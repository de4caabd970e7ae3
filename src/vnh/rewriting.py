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

Every redex lives at its first anchor, a vertex: type I at its split,
type II and the upward IV (merge, sigma) at the merge, type III and the
downward IV (sigma, split) at the first sigma-vertex.  `_redexes_at` finds
the redexes at one vertex and `_find` runs it over the whole graph; the
driver runs it over the graph once, then only where each step touched it.
`apply_reduction` checks a redex once, by finding it again at its first
anchor, and the rule bodies apply it without matching it again.

Strands are read by `diagrams._Graph.strand` (one edge, or two through a
sigma-vertex).  Each of I-III erases its support and joins the strands it
leaves by one splice (`diagrams._Graph.splice`): as one edge in the
identity instances, at one new sigma-vertex in the labelled ones.  Type IV
smooths out the sigma-vertex it pushes by a splice too.  Rule supports may
close up into loops inside closed diagrams; an identity splice of an edge
onto itself emits a free-loop record instead of an edge, and a labelled
one leaves a sigma self-loop.  The inverse moves cut their anchors open
(`_rewire`) and add the new strands by `diagrams._Graph.add_strand`.

`reduce` and `closed.reduce_closed` run one driver, `_reduce_graph`.  It
keeps the redex set across steps, grouped by first anchor, and rematches
only the tails of the edges a step added, deleted or re-ended (which
`diagrams._Graph` records while the driver tracks them), plus the
in-neighbour of each such tail that is a sigma-vertex.  It picks redexes
by the plain key (rule priority, anchor ids), or at random from the
sorted set when given an `rng`, and never serializes a diagram.  Open
diagrams reduce by I-IV to a unique form whatever the order (local
confluence).  Closed diagrams reduce by I-III to a form unique only up to
vertex twists over H and coboundary; `closed.gauge_canonical` compares
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagrams import MERGE, SIGMA, SPLIT, DiagramError, StrandDiagram


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


def _redexes_at(g, v, out):
    """Append to `out` every redex whose first anchor is vertex v, and
    return `out`: type I at a split; type II and the upward IV (merge,
    sigma) at a merge; type III and the downward IV (sigma, split) at a
    sigma-vertex.  A vertex that is gone has none."""
    kind = g.kind.get(v)
    if kind == SPLIT:
        hit = _match_I(g, v)
        if hit is not None:
            merge, sigma = hit
            out.append(Redex("I-identity" if sigma is None else "I", (v, merge), sigma))
    elif kind == MERGE:
        hit = _match_II(g, v)
        if hit is not None:
            split, sigma = hit
            out.append(Redex("II-identity" if sigma is None else "II", (v, split), sigma))
        head = g.edges[g.out_at[(v, 0)]][2]
        if g.kind[head] == SIGMA:
            out.append(Redex("IV", (v, head), g.label[head]))
    elif kind == SIGMA:
        head = g.edges[g.out_at[(v, 1)]][2]
        if g.kind[head] == SIGMA and head != v:
            comp = g.label[head] * g.label[v]
            if comp.is_identity():
                out.append(Redex("III-identity", (v, head)))
            else:
                out.append(Redex("III", (v, head), comp))
        elif g.kind[head] == SPLIT:
            out.append(Redex("IV", (v, head), g.label[v]))
    return out


def _find(g):
    """All current redexes, unsorted."""
    out = []
    for v in g.kind:
        _redexes_at(g, v, out)
    return out


def find_redexes(d):
    """All redexes of a diagram, in the reduction driver's order."""
    return _order(_find(d._g))


# -- applications ----------------------------------------------------------
#
# The bodies trust their redex: `apply_reduction` checks it once, and the
# driver applies only redexes it has just found.


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
    # The match guarantees equal strand weights.  When the merge feeds the
    # split, the splice closes a free loop, or a sigma self-loop.
    for i in range(1, g.n + 1):
        w = _cut_strand(g, g.out_at[(v1, i)])
    g.splice(g.in_at[(v1, 0)], g.out_at[(v2, 0)], w, sigma)
    g.del_vertex(v1)
    g.del_vertex(v2)


def _apply_II(g, v1, v2, sigma):
    mid = _cut_strand(g, g.out_at[(v1, 0)])
    # Edges are looked up per port: when the split feeds the merge, an
    # earlier splice has already fused or moved that edge.
    for i in range(1, g.n + 1):
        j = i if sigma is None else sigma(i)
        g.splice(g.in_at[(v1, i)], g.out_at[(v2, j)], mid, sigma)
    g.del_vertex(v1)
    g.del_vertex(v2)


def _apply_III(g, s1, s2, comp):
    e_mid = g.out_at[(s1, 1)]
    w_mid = g.edges[e_mid][4]
    g.del_edge(e_mid)
    g.splice(g.in_at[(s1, 0)], g.out_at[(s2, 1)], w_mid, comp)
    g.del_vertex(s1)
    g.del_vertex(s2)


def _apply_IV(g, a, b, sigma):
    """(merge m, sigma s) pushes s up through m; (sigma s, split v) pushes
    s down through v.  The pushed vertex is smoothed out by a splice."""
    up = g.kind[a] == MERGE
    s, v = (b, a) if up else (a, b)
    g.splice(g.in_at[(s, 0)], g.out_at[(s, 1)], 0)
    g.del_vertex(s)
    ports = range(1, g.n + 1)
    new_sigmas = [g.new_vertex(SIGMA, sigma) for _ in ports]
    if up:
        for i, u in zip(ports, new_sigmas):
            g.set_head(g.in_at[(v, i)], u, 0)
        for i, u in zip(ports, new_sigmas):
            g.add_edge(u, 1, v, sigma(i), 0)
    else:
        sigma_inv = sigma.inverse()
        for j, u in zip(ports, new_sigmas):
            g.set_tail(g.out_at[(v, j)], u, 1)
        for j, u in zip(ports, new_sigmas):
            g.add_edge(v, sigma_inv(j), u, 0, 0)


_APPLY = {
    "I": _apply_I,
    "I-identity": _apply_I,
    "II": _apply_II,
    "II-identity": _apply_II,
    "III": _apply_III,
    "III-identity": _apply_III,
    "IV": _apply_IV,
}


def _apply(g, redex: Redex):
    """Apply a redex found on g, in place."""
    _APPLY[redex.rule](g, *redex.anchors, redex.sigma)


def apply_reduction(d, redex: Redex):
    """Apply one redex, returning a new diagram of the same kind.

    The redex must equal one that `find_redexes(d)` reports, its anchors
    given as any sequence; any other raises `StaleRedexError`."""
    g = d._g
    key = Redex(redex.rule, tuple(redex.anchors), redex.sigma)
    if not key.anchors or key not in _redexes_at(g, key.anchors[0], []):
        raise StaleRedexError(f"{redex!r} is not a redex of this diagram")
    g = g.copy()
    _apply(g, key)
    return type(d)(g)


def _anchor_label(g, anchors, count, on_sigma):
    """Check the anchors of an inverse move -- `count` distinct edges, or
    sigma-vertices of one label when `on_sigma` -- and return that label,
    or None for edges."""
    if len(anchors) != count or len(set(anchors)) != count:
        raise StaleRedexError(f"need {count} distinct anchors")
    if not on_sigma:
        if any(e not in g.edges for e in anchors):
            raise StaleRedexError("anchor edge no longer present")
        return None
    if any(g.kind.get(v) != SIGMA for v in anchors):
        raise StaleRedexError("anchor is not a sigma-vertex")
    labels = {g.label[v] for v in anchors}
    if len(labels) != 1:
        raise StaleRedexError("anchors must be sigma-vertices with one label")
    return labels.pop()


def _rewire(g, anchor, on_sigma, head_end, tail_end):
    """Cut an edge (or, `on_sigma`, a sigma-vertex) open: what entered it now
    ends at the in-port `head_end`, what left it starts at the out-port
    `tail_end`.  A cut edge's weight stays on its first half; a sigma
    self-loop becomes one edge tail_end -> head_end."""
    if on_sigma:
        g.set_head(g.in_at[(anchor, 0)], *head_end)
        g.set_tail(g.out_at[(anchor, 1)], *tail_end)
        g.del_vertex(anchor)
        return
    tail, tport, head, hport, w = g.edges[anchor]
    g.del_edge(anchor)
    g.add_edge(tail, tport, *head_end, w)
    g.add_edge(*tail_end, head, hport, 0)


def apply_inverse(d, rule, *, sigma_vertex=None, edge=None, edges=None, sigma_vertices=None):
    """Inverse of a type I or II reduction, anchored on the reduced side.

    rule "I": `sigma_vertex` expands to split + n sigma-vertices + merge;
    `edge` (identity case) expands to split + n parallel strands + merge.
    rule "II": `edges`, an ordered tuple of n distinct edges, each cut
    through a new merge/split pair sharing their 0-edge (identity case);
    `sigma_vertices`, n same-labelled vertices, pull their label back to a
    single sigma-vertex between the new merge and split.  A type II inverse
    whose new pair closes a cycle (open diagram) or a loop of winding <= 0
    (closed diagram) raises `DiagramError`.
    """
    g = d._g.copy()
    n = g.n
    if rule == "I" and (sigma_vertex is not None or edge is not None):
        on_sigma = sigma_vertex is not None
        anchors = (sigma_vertex if on_sigma else edge,)
    elif rule == "II" and (edges is not None or sigma_vertices is not None):
        on_sigma = edges is None
        anchors = tuple(sigma_vertices if on_sigma else edges)
    else:
        raise ValueError("rule/anchor combination not supported")
    label = _anchor_label(g, anchors, 1 if rule == "I" else n, on_sigma)
    ports = [i if label is None else label(i) for i in range(1, n + 1)]
    if rule == "I":
        s = g.new_vertex(SPLIT)
        m = g.new_vertex(MERGE)
        _rewire(g, anchors[0], on_sigma, (s, 0), (m, 0))
        for i, j in enumerate(ports, start=1):
            g.add_strand(s, i, m, j, label)
    else:
        m = g.new_vertex(MERGE)
        s = g.new_vertex(SPLIT)
        g.add_strand(m, 0, s, 0, label)
        for i, (anchor, j) in enumerate(zip(anchors, ports), start=1):
            _rewire(g, anchor, on_sigma, (m, i), (s, j))
        # On a closed graph the new merge-split pair may close a loop of
        # winding <= 0, the counterpart of the cycle that cutting edges of
        # one path makes in an open graph: both are refused as input errors.
        if g.is_closed() and not g.positive_on_loops():
            raise DiagramError("the inverse type II move closes a loop of winding <= 0")
    return type(d)(g)


def _key(redex):
    return _PRIORITY[redex.rule], redex.anchors


def _order(redexes):
    """The driver's redex order: rule priority, then anchor vertex ids."""
    return sorted(redexes, key=_key)


def _rematch(g, vertices, at):
    """Set `at[v]` ({first anchor: redexes}) to the redexes now at each of
    `vertices`, dropping the vertices with none; closed graphs leave out IV.
    No step adds or removes a main source or sink, so whether g is closed is
    read once per call."""
    closed = g.is_closed()
    for v in vertices:
        found = _redexes_at(g, v, [])
        if closed:
            found = [r for r in found if r.rule != "IV"]
        if found:
            at[v] = found
        else:
            at.pop(v, None)


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

    The redex set is kept across steps, grouped by first anchor, and after
    a step only the vertices whose redexes it can have changed are
    rematched.  That set is exact.  A redex at v reads v's out-edges (head,
    port, weight) and, past a sigma-vertex h at the head of one, h's
    out-edge; beyond these it reads only kinds and labels, which never
    change, and vertex ids are never reused.  So a step changes the
    redexes at v only by adding, deleting or re-ending an out-edge of v or
    of a sigma-vertex that v feeds; a weight changes only on an edge the
    same splice re-ends, and a deleted vertex has lost its out-edges.
    While the driver tracks them, `_Graph` records the tail of each such
    edge, the old and the new one when the tail moves, and the driver adds
    the in-neighbour of each recorded sigma-vertex h.  If h's in-edge
    changed, its tails are recorded with it; otherwise h has the same
    in-neighbour before and after the step.

    The result is reduced but depends on the schedule: for closed graphs it
    is unique only up to vertex twists over H and coboundary.  Winding is
    not checked per step: I-III sum weights along the paths they replace,
    and `ClosedDiagram` checks each result once.
    """
    if trace is None:
        trace = []
    at = {}
    _rematch(g, g.kind, at)
    g._touched = touched = set()
    try:
        while at:
            live = itertools.chain.from_iterable(at.values())
            redex = min(live, key=_key) if rng is None else rng.choice(_order(live))
            _apply(g, redex)
            trace.append((redex.rule, redex.anchors))
            touched.update(
                [g.edges[g.in_at[(t, 0)]][0] for t in touched if g.kind.get(t) == SIGMA]
            )
            _rematch(g, touched, at)
            touched.clear()
    finally:
        g._touched = None
    return trace


def reduce(d: StrandDiagram, *, rng=None, trace=None) -> StrandDiagram:
    """Reduced form of an open strand diagram, unique by confluence."""
    g = d._g.copy()
    _reduce_graph(g, rng=rng, trace=trace)
    return StrandDiagram._trusted(g)


def format_trace(trace):
    """Line-oriented reduction log: one `rule anchor anchor` record per line."""
    return "\n".join(f"{rule} {' '.join(map(str, anchors))}" for rule, anchors in trace)
