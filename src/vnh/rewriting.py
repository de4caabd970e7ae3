"""Type I-IV reductions and their inverses on strand diagrams.

The four rule families, in token-flow terms (a token entering a split
sheds its first letter into the port choice, a merge prepends its in-port,
a sigma-vertex applies its label letter-wise to the remaining tail):

    I    split whose n strands run (through one s-vertex each, or directly)
         into one merge, strand i entering port s(i)  ->  one s-vertex
    II   merge whose 0-edge meets a split's 0-edge (directly or through one
         s-vertex)  ->  n s-vertices, in-port i continuing at out-port s(i)
    III  adjacent s1-, s2-vertices  ->  one (s2 o s1)-vertex
    IV   s-vertex on a merge's out-edge pushed to n copies on its in-edges
         (in-ports permuted by s); symmetrically through a split's in-edge

Strands are read by `diagrams._Graph.strand` (one edge, or two through a
sigma-vertex).  Each of I-III erases its support and joins the strands it
leaves by one splice (`diagrams._Graph.splice`): as one edge in the
identity instances, at one new sigma-vertex in the labelled ones.  Type IV
smooths out the sigma-vertex it pushes by a splice too.  Rule supports may
close up into loops inside closed diagrams; an identity splice of an edge
onto itself emits a free-loop record instead of an edge, and a labelled
one leaves a sigma self-loop.  The free loop case of rule
IV is the record-level consolidation performed by `closed.reduce_closed`;
on graphs it is subsumed by the loop supports of rules I and II.

`reduce` and `closed.reduce_closed` run one driver, `_reduce_graph`.  It
picks redexes by the plain key (rule priority, anchor ids), or at random
when given an `rng`, and never serializes a diagram.  Open diagrams reduce
by I-IV to a unique form whatever the order (local confluence).  Closed
diagrams reduce by I-III to a form unique only up to vertex twists over H
and coboundary; `closed.gauge_canonical` compares them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import MERGE, SIGMA, SPLIT, StrandDiagram


class StaleRedexError(ValueError):
    pass


class CochainError(RuntimeError):
    """Winding cochain corruption: unequal parallel paths or a nonpositive loop."""


@dataclass(frozen=True)
class Redex:
    rule: str  # I, I-identity, II, II-identity, III, III-identity, IV
    anchors: tuple  # vertex ids identifying the support
    sigma: object = None  # the Perm involved, if any

    def __repr__(self):
        s = "" if self.sigma is None else f", sigma={list(self.sigma.images)}"
        return f"Redex({self.rule}, anchors={list(self.anchors)}{s})"


_PRIORITY = {
    "I-identity": 0,
    "I": 1,
    "II-identity": 2,
    "II": 3,
    "III-identity": 4,
    "III": 5,
    "IV": 6,
}


def _match_I(g, v1):
    """Type I pattern at split v1; returns (merge, sigma|None) or None.

    Every strand out of v1 must end at one merge, through sigma-vertices of
    one label s or through none, strand i entering port s(i) (port i when
    there is no label).  The support must be a disk in the annulus: all n
    strands are required to carry equal winding (automatic for open
    diagrams, where weights are zero).  A combinatorial match whose strands
    wind differently is not an instance of the move.
    """
    if g.kind.get(v1) != SPLIT:
        return None
    merge, _, weight, sv = g.strand(g.out_at[(v1, 1)])
    if g.kind[merge] != MERGE:
        return None
    label = None if sv is None else g.label[sv]
    for i in range(1, g.n + 1):
        end, port, w, sv = g.strand(g.out_at[(v1, i)])
        if (
            end != merge
            or w != weight
            or (None if sv is None else g.label[sv]) != label
            or port != (i if label is None else label(i))
        ):
            return None
    return merge, label


def _match_II(g, v1):
    """Type II pattern at merge v1; returns (split, sigma|None) or None."""
    if g.kind.get(v1) != MERGE:
        return None
    end, _, _, sv = g.strand(g.out_at[(v1, 0)])
    if g.kind[end] != SPLIT:
        return None
    return end, None if sv is None else g.label[sv]


def _find(g):
    """All current redexes, unsorted."""
    out = []
    for v in g.kind:
        kind = g.kind[v]
        if kind == SPLIT:
            hit = _match_I(g, v)
            if hit is not None:
                merge, sigma = hit
                rule = "I-identity" if sigma is None else "I"
                out.append(Redex(rule, (v, merge), sigma))
            ein = g.in_at[(v, 0)]
            tail = g.edges[ein][0]
            if g.kind[tail] == SIGMA:
                out.append(Redex("IV", (tail, v), g.label[tail]))
        elif kind == MERGE:
            hit = _match_II(g, v)
            if hit is not None:
                split, sigma = hit
                rule = "II-identity" if sigma is None else "II"
                out.append(Redex(rule, (v, split), sigma))
            eout = g.out_at[(v, 0)]
            head = g.edges[eout][2]
            if g.kind[head] == SIGMA:
                out.append(Redex("IV", (v, head), g.label[head]))
        elif kind == SIGMA:
            eout = g.out_at[(v, 1)]
            head = g.edges[eout][2]
            if g.kind[head] == SIGMA and head != v:
                comp = g.label[head] * g.label[v]
                rule = "III-identity" if comp.is_identity() else "III"
                out.append(Redex(rule, (v, head), comp if rule == "III" else None))
    return out


def find_redexes(d):
    """All redexes of a diagram, in the reduction driver's order."""
    return _order(_find(d._g))


# -- applications ----------------------------------------------------------


def _cut_strand(g, eid):
    """Delete the strand that starts with edge eid, with its sigma-vertex if
    it has one; returns the strand's weight."""
    _, _, w, sv = g.strand(eid)
    g.del_edge(eid)
    if sv is not None:
        g.del_edge(g.out_at[(sv, 1)])
        g.del_vertex(sv)
    return w


def _apply_I(g, v1, v2, sigma):
    found = _match_I(g, v1)
    if found is None or found[0] != v2 or found[1] != sigma:
        raise StaleRedexError("type I pattern no longer present")
    # The match guarantees equal strand weights.  When the merge feeds the
    # split, the splice closes a free loop, or a sigma self-loop.
    for i in range(1, g.n + 1):
        w = _cut_strand(g, g.out_at[(v1, i)])
    g.splice(g.in_at[(v1, 0)], g.out_at[(v2, 0)], w, sigma)
    g.del_vertex(v1)
    g.del_vertex(v2)


def _apply_II(g, v1, v2, sigma):
    found = _match_II(g, v1)
    if found is None or found[0] != v2 or found[1] != sigma:
        raise StaleRedexError("type II pattern no longer present")
    mid = _cut_strand(g, g.out_at[(v1, 0)])
    # Edges are looked up per port: when the split feeds the merge, an
    # earlier splice has already fused or moved that edge.
    for i in range(1, g.n + 1):
        j = i if sigma is None else sigma(i)
        g.splice(g.in_at[(v1, i)], g.out_at[(v2, j)], mid, sigma)
    g.del_vertex(v1)
    g.del_vertex(v2)


def _apply_III(g, s1, s2, _comp):
    if (
        g.kind.get(s1) != SIGMA
        or g.kind.get(s2) != SIGMA
        or s1 == s2
        or g.edges[g.out_at[(s1, 1)]][2] != s2
    ):
        raise StaleRedexError("type III pattern no longer present")
    comp = g.label[s2] * g.label[s1]
    e_mid = g.out_at[(s1, 1)]
    w_mid = g.edges[e_mid][4]
    g.del_edge(e_mid)
    label = None if comp.is_identity() else comp
    g.splice(g.in_at[(s1, 0)], g.out_at[(s2, 1)], w_mid, label)
    g.del_vertex(s1)
    g.del_vertex(s2)


def _apply_IV(g, a, b, sigma):
    """(merge m, sigma s) pushes s up through m; (sigma s, split v) pushes
    s down through v.  The pushed vertex is smoothed out by a splice."""
    n = g.n
    if g.kind.get(a) == MERGE and g.kind.get(b) == SIGMA:
        m, s = a, b
        e0 = g.out_at[(m, 0)]
        if g.edges[e0][2] != s or g.label[s] != sigma:
            raise StaleRedexError("type IV (merge) pattern no longer present")
        g.splice(e0, g.out_at[(s, 1)], 0)
        g.del_vertex(s)
        ins = [g.in_at[(m, i)] for i in range(1, n + 1)]
        new_sigmas = []
        for eid in ins:
            u = g.new_vertex(SIGMA, sigma)
            g.set_head(eid, u, 0)
            new_sigmas.append(u)
        for i, u in enumerate(new_sigmas, start=1):
            g.add_edge(u, 1, m, sigma(i), 0)
    elif g.kind.get(a) == SIGMA and g.kind.get(b) == SPLIT:
        s, v = a, b
        e_b = g.out_at[(s, 1)]
        if g.edges[e_b][2] != v or g.edges[e_b][3] != 0 or g.label[s] != sigma:
            raise StaleRedexError("type IV (split) pattern no longer present")
        g.splice(g.in_at[(s, 0)], e_b, 0)
        g.del_vertex(s)
        outs = [g.out_at[(v, j)] for j in range(1, n + 1)]
        sigma_inv = sigma.inverse()
        new_sigmas = []
        for eid in outs:
            u = g.new_vertex(SIGMA, sigma)
            g.set_tail(eid, u, 1)
            new_sigmas.append(u)
        for j, u in enumerate(new_sigmas, start=1):
            g.add_edge(v, sigma_inv(j), u, 0, 0)
    else:
        raise StaleRedexError("type IV anchors no longer match")


def _apply(g, redex: Redex):
    rule = redex.rule
    if rule in ("I", "I-identity"):
        _apply_I(g, *redex.anchors, redex.sigma)
    elif rule in ("II", "II-identity"):
        _apply_II(g, *redex.anchors, redex.sigma)
    elif rule in ("III", "III-identity"):
        _apply_III(g, *redex.anchors, redex.sigma)
    elif rule == "IV":
        _apply_IV(g, *redex.anchors, redex.sigma)
    else:
        raise ValueError(f"unknown rule {rule!r}")


def apply_reduction(d, redex: Redex):
    """Apply one redex, returning a new diagram of the same kind."""
    g = d._g.copy()
    _apply(g, redex)
    return type(d)(g)


def apply_inverse(d, rule, *, sigma_vertex=None, edge=None, edges=None, sigma_vertices=None):
    """Inverse of a type I or II reduction, anchored on the reduced side.

    rule "I": `sigma_vertex` expands to split + n sigma-vertices + merge;
    `edge` (identity case) expands to split + n parallel strands + merge.
    rule "II": `edges`, an ordered tuple of n distinct edges, each cut
    through a new merge/split pair sharing their 0-edge (identity case);
    `sigma_vertices`, n same-labelled vertices, pull their label back to a
    single sigma-vertex between the new merge and split.
    """
    g = d._g.copy()
    n = g.n
    if rule == "I" and sigma_vertex is not None:
        v = sigma_vertex
        if g.kind.get(v) != SIGMA:
            raise StaleRedexError("anchor is not a sigma-vertex")
        lab = g.label[v]
        s = g.new_vertex(SPLIT)
        m = g.new_vertex(MERGE)
        # On a sigma self-loop both calls move one edge: it becomes m -> s.
        g.set_head(g.in_at[(v, 0)], s, 0)
        g.set_tail(g.out_at[(v, 1)], m, 0)
        g.del_vertex(v)
        for i in range(1, n + 1):
            u = g.new_vertex(SIGMA, lab)
            g.add_edge(s, i, u, 0, 0)
            g.add_edge(u, 1, m, lab(i), 0)
    elif rule == "I" and edge is not None:
        if edge not in g.edges:
            raise StaleRedexError("anchor edge no longer present")
        tail, tport, head, hport, w = g.edges[edge]
        g.del_edge(edge)
        s = g.new_vertex(SPLIT)
        m = g.new_vertex(MERGE)
        g.add_edge(tail, tport, s, 0, w)
        g.add_edge(m, 0, head, hport, 0)
        for i in range(1, n + 1):
            g.add_edge(s, i, m, i, 0)
    elif rule == "II" and edges is not None:
        if len(edges) != n or len(set(edges)) != n:
            raise StaleRedexError(f"need {n} distinct anchor edges")
        if any(e not in g.edges for e in edges):
            raise StaleRedexError("anchor edge no longer present")
        m = g.new_vertex(MERGE)
        s = g.new_vertex(SPLIT)
        g.add_edge(m, 0, s, 0, 0)
        for i, eid in enumerate(edges, start=1):
            tail, tport, head, hport, w = g.edges[eid]
            g.del_edge(eid)
            g.add_edge(tail, tport, m, i, w)
            g.add_edge(s, i, head, hport, 0)
    elif rule == "II" and sigma_vertices is not None:
        if len(sigma_vertices) != n or len(set(sigma_vertices)) != n:
            raise StaleRedexError(f"need {n} distinct sigma-vertices")
        labs = {g.label[v] for v in sigma_vertices if g.kind.get(v) == SIGMA}
        if len(labs) != 1 or any(g.kind.get(v) != SIGMA for v in sigma_vertices):
            raise StaleRedexError("anchors must be sigma-vertices with one label")
        lab = labs.pop()
        m = g.new_vertex(MERGE)
        s = g.new_vertex(SPLIT)
        x = g.new_vertex(SIGMA, lab)
        g.add_edge(m, 0, x, 0, 0)
        g.add_edge(x, 1, s, 0, 0)
        for i, v in enumerate(sigma_vertices, start=1):
            e_in = g.in_at[(v, 0)]
            e_out = g.out_at[(v, 1)]
            g.set_head(e_in, m, i)
            g.set_tail(e_out, s, lab(i))
            g.del_vertex(v)
    else:
        raise ValueError("rule/anchor combination not supported")
    return type(d)(g)


def _order(redexes):
    """The driver's redex order: rule priority, then anchor vertex ids."""
    return sorted(redexes, key=lambda r: (_PRIORITY[r.rule], r.anchors))


def _reduce_graph(g, *, rng=None, trace=None):
    """Exhaust the graph-level redexes of g in place; returns the trace list.

    Redexes are taken in `_order`, or picked by `rng` when given.  Closed
    graphs (no main sources or sinks) reduce by I-III to exhaustion.  Every
    I or II step lowers the split+merge count, and every III step lowers the
    sigma count at an equal split+merge count, so the pair (splits+merges,
    sigmas) falls strictly in lexicographic order.  Type IV is left out
    there: on a closed graph it is a vertex twist over H, which
    `closed.gauge_canonical` quotients out, and twists cannot expose an I
    or II collapse.  Open graphs reduce by I-IV.  A sigma pushed up through
    a merge lands on a path that ends in a merge, and a sigma pushed down
    through a split on a path that starts at a split, so between two I/II
    steps no sigma reverses direction in the acyclic skeleton.

    The result is reduced but depends on the schedule: for closed graphs it
    is unique only up to vertex twists over H and coboundary.  Winding is
    not checked per step: I-III sum weights along the paths they replace,
    and `ClosedDiagram` checks each result once.
    """
    if trace is None:
        trace = []
    closed = not g.sources and not g.sinks
    while True:
        redexes = [r for r in _find(g) if not (closed and r.rule == "IV")]
        if not redexes:
            return trace
        redexes = _order(redexes)
        redex = redexes[0] if rng is None else rng.choice(redexes)
        _apply(g, redex)
        trace.append((redex.rule, redex.anchors))


def reduce(d: StrandDiagram, *, rng=None, trace=None) -> StrandDiagram:
    """Reduced form of an open strand diagram, unique by confluence."""
    g = d._g.copy()
    _reduce_graph(g, rng=rng, trace=trace)
    return StrandDiagram._trusted(g)


def format_trace(trace):
    """Line-oriented reduction log: one `rule anchor anchor` record per line."""
    return "\n".join(f"{rule} {' '.join(map(str, anchors))}" for rule, anchors in trace)
