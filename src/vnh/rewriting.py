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

Identity instances of I-III erase the vertices entirely and splice the
strands they leave (`diagrams._Graph.splice`).  Rule supports may close up
into loops inside closed diagrams; a splice of an edge onto itself emits a
free-loop record instead of an edge, and a type I collapse whose split is
fed by its own merge leaves a sigma self-loop.  The free loop case of rule
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

    The support must be a disk in the annulus: all n strands are required
    to carry equal winding (automatic for open diagrams, where weights are
    zero).  A combinatorial match whose strands wind differently is not an
    instance of the move.
    """
    if g.kind.get(v1) != SPLIT:
        return None
    n = g.n
    merge = None
    labels = []
    ports = []
    weights = []
    for i in range(1, n + 1):
        eid = g.out_at[(v1, i)]
        head, hport = g.edges[eid][2], g.edges[eid][3]
        w = g.edges[eid][4]
        if g.kind[head] == SIGMA:
            lab = g.label[head]
            e2 = g.out_at[(head, 1)]
            head2, hport2 = g.edges[e2][2], g.edges[e2][3]
            if g.kind[head2] != MERGE:
                return None
            labels.append(lab)
            ports.append(hport2)
            weights.append(w + g.edges[e2][4])
            head = head2
        elif g.kind[head] == MERGE:
            labels.append(None)
            ports.append(hport)
            weights.append(w)
        else:
            return None
        if merge is None:
            merge = head
        elif merge != head:
            return None
    if any(w != weights[0] for w in weights):
        return None
    if all(lab is None for lab in labels):
        if ports == list(range(1, n + 1)):
            return merge, None
        return None
    first = labels[0]
    if first is None or any(lab != first for lab in labels):
        return None
    if ports != [first(i) for i in range(1, n + 1)]:
        return None
    return merge, first


def _match_II(g, v1):
    """Type II pattern at merge v1; returns (split, sigma|None) or None."""
    if g.kind.get(v1) != MERGE:
        return None
    eid = g.out_at[(v1, 0)]
    head = g.edges[eid][2]
    if g.kind[head] == SPLIT:
        return head, None
    if g.kind[head] == SIGMA:
        e2 = g.out_at[(head, 1)]
        head2 = g.edges[e2][2]
        if g.kind[head2] == SPLIT:
            return head2, g.label[head]
    return None


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


def _strand_weights_equal(weights):
    if any(w != weights[0] for w in weights):
        raise CochainError(f"parallel strands carry unequal weights {weights}")
    return weights[0]


def _apply_I(g, v1, v2, sigma):
    found = _match_I(g, v1)
    if found is None or found[0] != v2 or found[1] != sigma:
        raise StaleRedexError("type I pattern no longer present")
    n = g.n
    weights = []
    for i in range(1, n + 1):
        eid = g.out_at[(v1, i)]
        rec = g.edges[eid]
        if g.kind[rec[2]] == SIGMA:
            sv = rec[2]
            e2 = g.out_at[(sv, 1)]
            weights.append(rec[4] + g.edges[e2][4])
            g.del_edge(e2)
            g.del_edge(eid)
            g.del_vertex(sv)
        else:
            weights.append(rec[4])
            g.del_edge(eid)
    common = _strand_weights_equal(weights)
    e_in = g.in_at[(v1, 0)]
    e_out = g.out_at[(v2, 0)]
    if sigma is None:
        g.splice(e_in, e_out, common)
    else:
        # When the merge feeds the split, e_in is e_out: a sigma self-loop.
        u = g.new_vertex(SIGMA, sigma)
        g.set_head(e_in, u, 0)
        g.edges[e_in][4] += common
        g.set_tail(e_out, u, 1)
    g.del_vertex(v1)
    g.del_vertex(v2)


def _apply_II(g, v1, v2, sigma):
    found = _match_II(g, v1)
    if found is None or found[0] != v2 or found[1] != sigma:
        raise StaleRedexError("type II pattern no longer present")
    n = g.n
    e0 = g.out_at[(v1, 0)]
    if sigma is None:
        mid = g.edges[e0][4]
        g.del_edge(e0)
        # Edges are looked up per port: when the split feeds the merge, an
        # earlier splice has already fused that strand into a longer chain.
        for i in range(1, n + 1):
            g.splice(g.in_at[(v1, i)], g.out_at[(v2, i)], mid)
    else:
        sv = g.edges[e0][2]
        e2 = g.out_at[(sv, 1)]
        mid = g.edges[e0][4] + g.edges[e2][4]
        g.del_edge(e0)
        g.del_edge(e2)
        g.del_vertex(sv)
        a = {i: g.in_at[(v1, i)] for i in range(1, n + 1)}
        b = {j: g.out_at[(v2, j)] for j in range(1, n + 1)}
        for i in range(1, n + 1):
            u = g.new_vertex(SIGMA, sigma)
            g.set_head(a[i], u, 0)
            g.edges[a[i]][4] += mid
            g.set_tail(b[sigma(i)], u, 1)
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
    e_in = g.in_at[(s1, 0)]
    e_mid = g.out_at[(s1, 1)]
    e_out = g.out_at[(s2, 1)]
    w_mid = g.edges[e_mid][4]
    g.del_edge(e_mid)
    if comp.is_identity():
        g.splice(e_in, e_out, w_mid)
    else:
        u = g.new_vertex(SIGMA, comp)
        g.set_head(e_in, u, 0)
        g.edges[e_in][4] += w_mid
        g.set_tail(e_out, u, 1)
    g.del_vertex(s1)
    g.del_vertex(s2)


def _apply_IV(g, a, b, sigma):
    """(merge m, sigma s) pushes s up through m; (sigma s, split v) pushes
    s down through v."""
    if g.kind.get(a) == MERGE and g.kind.get(b) == SIGMA:
        m, s = a, b
        e0 = g.out_at[(m, 0)]
        if g.edges[e0][2] != s or g.label[s] != sigma:
            raise StaleRedexError("type IV (merge) pattern no longer present")
        n = g.n
        e1 = g.out_at[(s, 1)]
        head, hport, w_new = g.edges[e1][2], g.edges[e1][3], g.edges[e0][4] + g.edges[e1][4]
        g.del_edge(e0)
        g.del_edge(e1)
        g.del_vertex(s)
        g.add_edge(m, 0, head, hport, w_new)
        ins = {i: g.in_at[(m, i)] for i in range(1, n + 1)}
        new_sigmas = {}
        for i in range(1, n + 1):
            u = g.new_vertex(SIGMA, sigma)
            g.set_head(ins[i], u, 0)
            new_sigmas[i] = u
        for i in range(1, n + 1):
            g.add_edge(new_sigmas[i], 1, m, sigma(i), 0)
    elif g.kind.get(a) == SIGMA and g.kind.get(b) == SPLIT:
        s, v = a, b
        e_b = g.out_at[(s, 1)]
        if g.edges[e_b][2] != v or g.edges[e_b][3] != 0 or g.label[s] != sigma:
            raise StaleRedexError("type IV (split) pattern no longer present")
        n = g.n
        e_a = g.in_at[(s, 0)]
        w = g.edges[e_a][4] + g.edges[e_b][4]
        g.del_edge(e_b)
        g.set_head(e_a, v, 0)
        g.edges[e_a][4] = w
        g.del_vertex(s)
        outs = {j: g.out_at[(v, j)] for j in range(1, n + 1)}
        sigma_inv = sigma.inverse()
        new_sigmas = {}
        for j in range(1, n + 1):
            u = g.new_vertex(SIGMA, sigma)
            g.set_tail(outs[j], u, 1)
            new_sigmas[j] = u
        for j in range(1, n + 1):
            g.add_edge(v, sigma_inv(j), new_sigmas[j], 0, 0)
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
        e_in = g.in_at[(v, 0)]
        e_out = g.out_at[(v, 1)]
        if e_in == e_out:
            w = g.edges[e_in][4]
            g.del_edge(e_in)
            g.del_vertex(v)
            g.add_edge(m, 0, s, 0, w)
        else:
            g.set_head(e_in, s, 0)
            g.set_tail(e_out, m, 0)
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
