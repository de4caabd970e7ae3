"""Closed strand diagrams, winding classes, and the conjugacy decision.

Closing a (p,p,n)-strand diagram glues each main sink to the matching main
source (`_Graph.glue`, one splice per pair); every closure edge carries
winding weight 1 and all others 0, so the per-edge integer cochain
represents the class that counts trips around the annulus.
`reduced_closure` skips the element and diagram objects: it builds the
open graph of an element's reduced tree pair straight from the reduced
triples (`diagrams._tree_pair_graph`), glues its sink to its source the
same way, and reduces that fresh graph in place by the body of
`reduce_closed`, which works on a copy.

The conjugacy decision builds a closure only for elements of infinite
order, and `are_conjugate` compares torsion status first: a torsion
element's invariant starts with "", which no other element's does, so a
pair with exactly one torsion element is not conjugate, and no closure is
built for it.  Torsion is decided on the reduced triples by one reader,
`_torsion_records`, which the census and `_reduced_and_records` (for
`are_conjugate`, `conjugacy_invariant`, `is_torsion` and `torsion_order`)
call: a torsion element permutes the words of a finite invariant prefix
code (`elements._torsion_loop_records`), and its reduced closure is free
loops alone, refinement equivalent to one record (cycle length, composite
label) per cycle, so its invariant comes from those records
(`_torsion_invariant`).  Infinite order is certified by a cone that a power
of the element maps strictly into itself or onto a larger cone; only then,
or when the refinement reaches its code-size cap and `_torsion_records`
falls back on it, is the closure of the same reduced triples built.

Equality of closed diagrams (`==`, `closed_equal`) is equality of the
underlying port graph together with that cohomology class, decided by
spanning-tree normalization inside the canonical serialization.
`reduce_closed` is not canonical in that sense: its result depends on the
rewrite schedule and is unique only up to the vertex twists over H and
coboundaries below, so reduced closures are compared with
`conjugating_equivalent` or `gauge_canonical`.

Components without splits and merges are free loops.  A vertex-free cycle
is stored as a FreeLoop record the moment it appears.  Reduction applies
type I-III to exhaustion, after which a cycle of sigma-vertices alone is a
single sigma self-loop, and turns each such loop into a record carrying its
label.  Type IV is not a reduction here: on a closed diagram it is a vertex
twist, one of the gauge moves below.  Two reduced closed diagrams decide
conjugacy in V_n(H) by matching up to the moves conjugation can perform:

  * relabelling a free loop within its H-conjugacy class (re-rooting the
    composite of its sigma-vertices, refactored over H),
  * refining a free loop through its label's orbits: (w, t) with orbits
    O_i of size L_i splits into loops (w * L_i, t^L_i) -- re-encoding the
    same return map on the n child branches, and
  * gauge-twisting the sigma-decorations of the split/merge skeleton by
    elements of H at its vertices (the composition-order residue of the
    type III moves can land anywhere along a cycle).

The first two moves act on records (w, [s]), [s] an H-class; refinement
v = r(v) is the defining relation of a graph monoid, where two multisets
are equal iff they have a common *forward* refinement (Ara-Moreno-Pardo,
"Nonstable K-theory for graph algebras", 2007).  A fixed-point-free loop
equals its refinement, whose loops all have fixed points, and refining a
loop v with a fixed point keeps v and adds D_v = r(v) - v >= 0.  So such
multisets a, b are equivalent iff they have the same support closure S
(finite: the descendants of (w, s) are (w*m, [s^m]) with m | ord(s)) and
a - b lies in the integer span of {D_v : v in S}; `_loop_class` decides
this exactly, with no search bound.  The gauge quotient is canonicalized
exactly by nonabelian spanning-tree gauge fixing.  The oracle cross-check
in the census module guards these readings empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagrams import (
    MERGE,
    SIGMA,
    SPLIT,
    DiagramError,
    StrandDiagram,
    _Graph,
    _join_below,
    _loop_token,
    _scan_ports,
    _to_dot,
    _tree_pair_graph,
)
from .elements import (
    TreePairElement,
    _check_compatible,
    _reduce_triples,
    _torsion_loop_records,
)
from .perms import Perm, Subgroup
from .rewriting import CochainError, _reduce_graph


@dataclass(frozen=True)
class FreeLoop:
    """A vertex-free oriented loop: positive winding plus the composite of
    the sigma-vertices it carried (identity allowed here)."""

    winding: int
    label: Perm

    def __post_init__(self):
        if self.winding < 1:
            raise ValueError("free loop winding must be >= 1")


class ClosedDiagram:
    """Pitchfork graph without main sources/sinks, with per-edge winding
    weights positive on every directed loop, plus free-loop records."""

    def __init__(self, graph: _Graph):
        if not graph.is_closed():
            raise DiagramError("closed diagram cannot have main sources or sinks")
        for kind in graph.kind.values():
            if kind not in (SPLIT, MERGE, SIGMA):
                raise DiagramError(f"closed diagram cannot contain a {kind} vertex")
        graph.check_ports()
        if not graph.positive_on_loops():
            raise CochainError("winding must be positive on every oriented loop")
        self._g = graph
        self._canon = None

    @classmethod
    def from_loops(cls, n, loops):
        """A purely free-loop diagram from (winding, label) pairs."""
        g = _Graph(n)
        g.free_loops = [(fl.winding, fl.label) for fl in map(_as_loop, loops)]
        return cls(g)

    @property
    def n(self):
        return self._g.n

    @property
    def free_loops(self):
        return tuple(
            FreeLoop(w, lab) for w, lab in sorted(self._g.free_loops, key=_loop_token)
        )

    def counts(self):
        return self._g.counts()

    def has_graph_part(self):
        return bool(self._g.kind)

    def canonical(self):
        if self._canon is None:
            s, order = self._g.closed_canonical()
            self._order = order
            self._canon = s
        return self._canon

    def canonical_order(self):
        self.canonical()
        return list(self._order)

    def __eq__(self, other):
        return isinstance(other, ClosedDiagram) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        c = self.counts()
        loops = [(fl.winding, list(fl.label.images)) for fl in self.free_loops]
        return (
            f"ClosedDiagram(n={self.n}, splits={c[SPLIT]}, merges={c[MERGE]}, "
            f"sigmas={c[SIGMA]}, free_loops={loops})"
        )

    def to_dot(self):
        return _to_dot(self._g, self.canonical_order())


def _as_loop(x):
    if isinstance(x, FreeLoop):
        return x
    return FreeLoop(x[0], x[1])


def close(d: StrandDiagram) -> ClosedDiagram:
    """Identify the i-th main sink with the i-th main source and erase the
    joint; every closure edge gets winding 1."""
    if d.p != d.q:
        raise DiagramError(f"can only close (p,p,n) diagrams, got ({d.p},{d.q})")
    g = d._g.copy()
    g.glue(zip(list(g.sinks), list(g.sources)), 1)
    return ClosedDiagram(g)


def _extract_sigma_cycles(g):
    """Turn every sigma self-loop into a free-loop record (weight, label).

    This covers every all-sigma component of a graph reduced by I-III: a
    sigma feeding another sigma is a type III redex, so a cycle of sigmas
    alone has length 1."""
    for v in [v for v, kind in g.kind.items() if kind == SIGMA]:
        eid = g.out_at[(v, 1)]
        if g.edges[eid][2] == v:
            g.free_loops.append((g.edges[eid][4], g.label[v]))
            g.del_edge(eid)
            g.del_vertex(v)


def reduce_closed(cd: ClosedDiagram, *, rng=None, trace=None) -> ClosedDiagram:
    """Reduced form: no type I-III redex remains, and every free loop is a
    record with a single composite label.  Type IV is not applied: on a
    closed diagram it is a vertex twist over H, and twists neither enable
    an I/II collapse nor survive `gauge_canonical`.

    The result depends on the rewrite schedule (`rng`): it is unique only up
    to vertex twists over H and coboundary, so compare reduced closures with
    `conjugating_equivalent` or `gauge_canonical`, not with `==`.  The
    winding check of the `ClosedDiagram` constructor runs once, on the
    result.
    """
    return _reduce_closed_graph(cd._g.copy(), rng=rng, trace=trace)


def _reduce_closed_graph(g, *, rng=None, trace=None) -> ClosedDiagram:
    """The body of `reduce_closed` on a closed graph g that it may consume:
    g is reduced in place and checked once, as the result's graph."""
    _reduce_graph(g, rng=rng, trace=trace)
    _extract_sigma_cycles(g)
    return ClosedDiagram(g)


def closed_equal(c1: ClosedDiagram, c2: ClosedDiagram) -> bool:
    """Kind/label/port-preserving isomorphism whose pullback preserves the
    winding class; free-loop records compare exactly."""
    return c1 == c2


def add_coboundary(cd: ClosedDiagram, potential) -> ClosedDiagram:
    """Shift each edge weight by potential[tail] - potential[head]; the
    winding class, hence equality, is unchanged."""
    g = cd._g.copy()
    for rec in g.edges.values():
        rec[4] += potential.get(rec[0], 0) - potential.get(rec[2], 0)
    return ClosedDiagram(g)


# -- gauge canonicalization of the graph part -------------------------------
#
# Twisting a split or merge v by a in H inserts a on every in-edge and a^-1
# on every out-edge of v, permuting ports >= 1 by a; every path through v
# computes the same map, so the twisted diagram represents the same
# conjugacy data (type IV is precisely the twist by the out-edge's own
# label).  Conjugation can deposit the type-III composition residue
# anywhere along the cycles of the skeleton, so conjugacy comparison must
# quotient the sigma-decorations by this gauge action.  Twists cannot
# enable new type I collapses (equalizing d*l_i*c^-1 across strands forces
# the l_i already equal), so gauging commutes with reduction.
#
# The canonical form of a component is the least gauge-fixed BFS
# serialization over every (start vertex, root twist).  Candidates are
# serialized one after another against the running minimum, and each stops
# as soon as its ";"-joined prefix sorts above the minimum's prefix of the
# same length (`diagrams._join_below`).  The bound must be taken on the
# joined string, not token by token: a weight token "w1" is a prefix of
# "w12" while ";" sorts after the digits, so the two orders can pick
# different minima.  Gauges are image tuples, each stored with its inverse.


def _skeleton(g):
    """Smooth sigma-vertices into edge labels on the split/merge skeleton:
    each edge is (tail, tport, head, hport, label, label^-1, weight), the
    labels as image tuples."""
    verts = {v: k for v, k in g.kind.items() if k in (SPLIT, MERGE)}
    out_at, in_at = {}, {}
    ident = tuple(range(1, g.n + 1))
    for (v, p), eid in g.out_at.items():
        if v not in verts:
            continue
        lab = ident
        w = 0
        cur = eid
        while True:
            _, _, head, hport, wt = g.edges[cur]
            w += wt
            if g.kind[head] == SIGMA:
                sig = g.label[head].images
                lab = tuple([sig[j - 1] for j in lab])
                cur = g.out_at[(head, 1)]
            else:
                inv = [0] * g.n
                for i, j in enumerate(lab, start=1):
                    inv[j - 1] = i
                edge = (v, p, head, hport, lab, tuple(inv), w)
                out_at[(v, p)] = edge
                in_at[(head, hport)] = edge
                break
    return verts, out_at, in_at


def _gauge_tokens(scans, verts, out_at, in_at, start, root):
    """Tokens of the gauge-fixed BFS serialization of start's component,
    the root twisted by `root` = (images, inverse images): each vertex
    reached gets the gauge that makes its BFS tree edge's label the
    identity, and edge weights are normalized to zero on the BFS tree.
    `scans` maps SPLIT and MERGE to their port order (`_scan_ports`)."""
    gauge = {start: root}
    phi = {start: 0}
    num = {start: 0}
    order = [start]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        gv, gv_inv = gauge[v]
        kind = verts[v]
        yield kind[0]
        for d, p in scans[kind]:
            pre = p if p == 0 else gv_inv[p - 1]
            tail, tport, head, hport, lab, lab_inv, w = (
                out_at[(v, pre)] if d == "o" else in_at[(v, pre)]
            )
            peer = head if d == "o" else tail
            if peer not in gauge:
                if d == "o":
                    # gauge[v] * lab^-1, inverse lab * gauge[v]^-1
                    gauge[peer] = (
                        tuple([gv[j - 1] for j in lab_inv]),
                        tuple([lab[j - 1] for j in gv_inv]),
                    )
                    phi[peer] = phi[v] + w
                else:
                    # gauge[v] * lab, inverse lab^-1 * gauge[v]^-1
                    gauge[peer] = (
                        tuple([gv[j - 1] for j in lab]),
                        tuple([lab_inv[j - 1] for j in gv_inv]),
                    )
                    phi[peer] = phi[v] - w
                num[peer] = len(order)
                order.append(peer)
            g_head = gauge[head][0]
            g_tail, g_tail_inv = gauge[tail]
            # gauge[head] * lab * gauge[tail]^-1
            gl = tuple([g_head[lab[j - 1] - 1] for j in g_tail_inv])
            nw = w + phi[tail] - phi[head]
            pt = tport if tport == 0 else g_tail[tport - 1]
            ph = hport if hport == 0 else g_head[hport - 1]
            yield f"{d}{p}>{num[peer]}:{pt}.{ph}:{gl}w{nw}"


def gauge_canonical(cd: ClosedDiagram, subgroup: Subgroup) -> str:
    """Canonical string of the graph part modulo vertex twists over H,
    coboundaries, and port-graph isomorphism: per component the minimum
    gauge-fixed BFS serialization over every (start vertex, root twist).

    The minimum is kept as one running string per component; each
    candidate serialization stops as soon as its ";"-joined prefix sorts
    above it (`diagrams._join_below`), so the result is the same string as
    serializing every candidate in full and taking `min`."""
    g = cd._g
    verts, out_at, in_at = _skeleton(g)
    if not verts:
        return ""
    roots = [(h.images, h.inverse().images) for h in sorted(subgroup.elements)]
    scans = {kind: _scan_ports(kind, g.n) for kind in (SPLIT, MERGE)}
    comp_strs = []
    for comp in g.components():
        # A component holds its splits and merges, joined by sigma chains;
        # a cycle of sigma-vertices alone has no skeleton.
        starts = sorted(v for v in comp if v in verts)
        if not starts:
            continue
        best = None
        for start in starts:
            for root in roots:
                s = _join_below(_gauge_tokens(scans, verts, out_at, in_at, start, root), best)
                if s is not None:
                    best = s
        comp_strs.append(best)
    return "#".join(sorted(comp_strs))


# -- free-loop record equivalence ------------------------------------------


def _loop_class(records, subgroup: Subgroup):
    """Complete invariant of free-loop records under relabelling within an
    H-class and refinement through orbits: (support closure S in column
    order, the record vector reduced modulo the lattice of refinement
    increments over S).  Memoised on the subgroup, keyed on the sorted
    (winding, class representative's image tuple) pairs, so that the key
    is built and looked up on plain tuples; a label outside H raises
    ValueError (`Subgroup.class_rep`)."""
    rep = subgroup.class_rep
    key = tuple(sorted([(w, rep(label).images) for w, label in records]))
    cached = subgroup._loop_classes.get(key)
    if cached is not None:
        return cached
    refine = subgroup.refinement
    counts = {}
    for w, label in records:
        s = rep(label)
        row = refine(s)
        # A fixed-point-free loop is replaced by its refinement.
        for v in [(w, s)] if row[0][0] == 1 else [(w * L, c) for L, c in row]:
            counts[v] = counts.get(v, 0) + 1
    closure, stack = set(counts), list(counts)
    while stack:
        w, s = stack.pop()
        for L, c in refine(s):
            v = (w * L, c)
            if v not in closure:
                closure.add(v)
                stack.append(v)
    cols = sorted(closure, key=lambda v: (-v[1].order(), v))
    index = {v: i for i, v in enumerate(cols)}
    rows = []
    for i, (w, s) in enumerate(cols):
        row = [0] * len(cols)
        row[i] = -1
        for L, c in refine(s):
            row[index[(w * L, c)]] += 1
        rows.append(row)
    vec = [counts.get(v, 0) for v in cols]
    for j, pivot in _echelon(rows, len(cols)):
        q = vec[j] // pivot[j]
        if q:
            vec = [x - q * y for x, y in zip(vec, pivot)]
    result = subgroup._loop_classes[key] = (tuple(cols), tuple(vec))
    return result


def _echelon(rows, width):
    """Integer row echelon basis of the lattice spanned by rows, as
    (pivot column, row) with a positive pivot, by gcd elimination."""
    basis = []
    for j in range(width):
        live = [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            pivot, nxt = live[0], [live[0]]
            for r in live[1:]:
                q = r[j] // pivot[j]
                r = [x - q * y for x, y in zip(r, pivot)]
                (nxt if r[j] else rows).append(r)
            live = nxt
        if live:
            pivot = live[0]
            basis.append((j, pivot if pivot[j] > 0 else [-x for x in pivot]))
    return basis


def conjugating_equivalent(c1: ClosedDiagram, c2: ClosedDiagram, subgroup: Subgroup) -> bool:
    """Equality up to conjugating transformations: graph parts equal up to
    vertex twists over H and coboundary, free loops matched under the loop
    moves (see module docstring).  `closed_equal` is the exact comparison."""
    if c1.n != c2.n:
        return False
    return closure_invariant(c1, subgroup) == closure_invariant(c2, subgroup)


# -- conjugacy decision for elements ---------------------------------------


def reduced_closure(g: TreePairElement, *, trace=None) -> ClosedDiagram:
    """Reduced closed diagram of g.

    The closure of g's reduced tree pair is built straight from its reduced
    triples (`diagrams._tree_pair_graph`), with no element, tree or open
    diagram object in between: the open graph's sink is glued to its source
    at winding 1.  It is the graph `close(build_diagram(reduce_element(g)))`
    builds, with the same vertex ids, so `reduce_closed` takes the same
    rewrite steps on it and appends them to `trace`.  The fresh graph is
    reduced in place, and the winding check runs once, on the reduced
    result."""
    return _closure_of_reduced(g.n, _reduce_triples(g.n, g.triples()), trace)


def _closure_of_reduced(n, reduced, trace=None) -> ClosedDiagram:
    """`reduced_closure` of the element whose reduced triples are `reduced`."""
    graph = _tree_pair_graph(n, reduced)
    graph.glue([(graph.sinks[0], graph.sources[0])], 1)
    return _reduce_closed_graph(graph, trace=trace)


def closure_invariant(cd: ClosedDiagram, subgroup: Subgroup):
    """Hashable invariant of a reduced closure: its graph part modulo vertex
    twists over H and coboundary, and the class of its free-loop records
    under relabelling and refinement -- their support closure and their
    residue modulo the lattice of refinement increments (`_loop_class`),
    read straight off the graph's (winding, label) records."""
    return gauge_canonical(cd, subgroup), _loop_class(cd._g.free_loops, subgroup)


def _torsion_records(n, reduced):
    """Loop records of the element whose reduced triples are `reduced`, or
    None when it has infinite order.

    This is the one reader of `elements._torsion_loop_records`: records
    decide torsion, a `_Nesting` certificate decides infinite order, and
    when the refinement stops undecided the reduced closure of the same
    triples decides, its free loops standing in for the records."""
    records = _torsion_loop_records(n, reduced)
    if records is None:
        cd = _closure_of_reduced(n, reduced)
        return None if cd.has_graph_part() else cd._g.free_loops
    return records if isinstance(records, list) else None


def _torsion_invariant(records, subgroup: Subgroup):
    """The conjugacy invariant of a torsion element from its loop records:
    its reduced closure is free loops alone, refinement equivalent to the
    records, and `gauge_canonical` of a closure with no graph part is ""."""
    return "", _loop_class(records, subgroup)


def _reduced_and_records(g: TreePairElement):
    """g's reduced triples and `_torsion_records` of them: the records of a
    torsion element, None for one of infinite order."""
    reduced = _reduce_triples(g.n, g.triples())
    return reduced, _torsion_records(g.n, reduced)


def conjugacy_invariant(g: TreePairElement):
    """Hashable complete invariant: two elements are conjugate iff their
    invariants are equal.

    Torsion status is read first (`_torsion_records`): a torsion element's
    invariant comes from its loop records (`_torsion_invariant`), with no
    closure built for it, and its first part is "", which no element of
    infinite order has.  Any other element takes the closure of the same
    reduced triples.  An element the records leave undecided, and that has
    infinite order, has its closure built twice, once by
    `_torsion_records`: no element of the bench corpora has been
    undecided, so the simple shape is kept."""
    reduced, records = _reduced_and_records(g)
    if records is not None:
        return _torsion_invariant(records, g.subgroup)
    return closure_invariant(_closure_of_reduced(g.n, reduced), g.subgroup)


def are_conjugate(f: TreePairElement, g: TreePairElement) -> bool:
    """Conjugacy in V_n(H), the verdict `conjugacy_invariant(f) ==
    conjugacy_invariant(g)` decided in stages.  Torsion status is compared
    first: when exactly one of f, g is torsion they are not conjugate, and
    no closure is built.  Two torsion elements compare the invariants of
    their loop records; only two elements of infinite order build their
    reduced closures and compare `closure_invariant`."""
    _check_compatible(f, g)
    f_reduced, f_records = _reduced_and_records(f)
    g_reduced, g_records = _reduced_and_records(g)
    if (f_records is None) != (g_records is None):
        return False
    n, h = f.n, f.subgroup
    if f_records is not None:
        return _torsion_invariant(f_records, h) == _torsion_invariant(g_records, h)
    f_closure, g_closure = _closure_of_reduced(n, f_reduced), _closure_of_reduced(n, g_reduced)
    return closure_invariant(f_closure, h) == closure_invariant(g_closure, h)


def is_torsion(g: TreePairElement) -> bool:
    """True iff g has finite order: its reduced triples give loop records
    (equivalently, its reduced closure consists solely of free loops)."""
    return _reduced_and_records(g)[1] is not None


def torsion_order(g: TreePairElement):
    """Order of g, lcm over its loop records (L, s) of L * ord(s); None when
    g is not torsion."""
    records = _reduced_and_records(g)[1]
    if records is None:
        return None
    out = 1
    for length, label in records:
        out = math.lcm(out, length * label.order())
    return out
