"""(p,q,n)-strand diagrams: labelled port digraphs with a rotation system.

Vertex kinds and their ports (the rotation system is realized as named
ports, which fully determines crossings):

    source  out 0                  merge  in 1..n, out 0
    sink    in 0                   sigma  in 0, out 1 (label != Id)
    split   in 0, out 1..n

Every port carries exactly one edge end.  A strand diagram is acyclic with
p ordered main sources and q ordered main sinks; closed diagrams (module
`closed`) reuse the same graph core without sources/sinks and with an
integer winding weight per edge.  A graph says which it is
(`_Graph.is_closed`), and its serializations read that answer.  A strand is read by `_Graph.strand`: an
edge, or two edges through one sigma-vertex.  Two strands are joined by
one splice (`_Graph.splice`): the head end of one edge meets the tail end
of another and they become one edge, or an identity free-loop record when
they were the same edge; with a label they meet at one new sigma-vertex
instead.  Concatenation, closure (`_Graph.glue`) and every rewrite rule
join strands this way.

Equality is decided by canonical serialization: breadth-first traversal
seeded at the ordered sources (or, for source-free graphs, minimized over
all start vertices per component), visiting ports in a fixed per-kind
order and emitting kind/label/port tokens.
"""

from __future__ import annotations

import itertools

from .perms import Perm
from .trees import LEAF

SOURCE, SINK, SPLIT, MERGE, SIGMA = "source", "sink", "split", "merge", "sigma"

_KIND_CHAR = {SOURCE: "a", SINK: "z", SPLIT: "s", MERGE: "m", SIGMA: "g"}


class DiagramError(ValueError):
    pass


class NotReducedError(DiagramError):
    pass


def _scan_ports(kind, n):
    """Canonical port visiting order per vertex kind: ('i'/'o', port)."""
    if kind == SPLIT:
        return [("i", 0)] + [("o", p) for p in range(1, n + 1)]
    if kind == MERGE:
        return [("i", p) for p in range(1, n + 1)] + [("o", 0)]
    if kind == SIGMA:
        return [("i", 0), ("o", 1)]
    if kind == SOURCE:
        return [("o", 0)]
    if kind == SINK:
        return [("i", 0)]
    raise AssertionError(kind)


class _Graph:
    """Mutable port-graph workhorse behind the immutable diagram types."""

    def __init__(self, n):
        self.n = n
        self.kind = {}
        self.label = {}
        self.edges = {}  # eid -> [tail, tport, head, hport, weight]
        self.out_at = {}  # (vid, port) -> eid
        self.in_at = {}
        self.sources = []
        self.sinks = []
        self.free_loops = []  # (winding, Perm) records, closed graphs only
        self._next_v = 0
        self._next_e = 0
        # Tails of the edges added, deleted or re-ended since the rewrite
        # driver last read them, while it tracks them; None otherwise.
        self._touched = None

    # -- construction ----------------------------------------------------

    def new_vertex(self, kind, label=None):
        vid = self._next_v
        self._next_v += 1
        self.kind[vid] = kind
        if kind == SIGMA:
            if label is None or label.is_identity():
                raise DiagramError("sigma vertex requires a non-identity label")
            self.label[vid] = label
        if kind == SOURCE:
            self.sources.append(vid)
        if kind == SINK:
            self.sinks.append(vid)
        return vid

    def add_edge(self, tail, tport, head, hport, weight=0):
        eid = self._next_e
        self._next_e += 1
        if (tail, tport) in self.out_at or (head, hport) in self.in_at:
            raise DiagramError("port already in use")
        self.edges[eid] = [tail, tport, head, hport, weight]
        self.out_at[(tail, tport)] = eid
        self.in_at[(head, hport)] = eid
        if self._touched is not None:
            self._touched.add(tail)
        return eid

    def add_strand(self, tail, tport, head, hport, label=None):
        """One edge from out-port (tail, tport) to in-port (head, hport), or,
        with a (non-identity) `label`, two edges through a new sigma-vertex
        carrying it; all weights are 0."""
        if label is None:
            self.add_edge(tail, tport, head, hport)
            return
        v = self.new_vertex(SIGMA, label)
        self.add_edge(tail, tport, v, 0)
        self.add_edge(v, 1, head, hport)

    def del_edge(self, eid):
        tail, tport, head, hport, _ = self.edges.pop(eid)
        del self.out_at[(tail, tport)]
        del self.in_at[(head, hport)]
        if self._touched is not None:
            self._touched.add(tail)

    def del_vertex(self, vid):
        kind = self.kind.pop(vid)
        self.label.pop(vid, None)
        if kind == SOURCE:
            self.sources.remove(vid)
        if kind == SINK:
            self.sinks.remove(vid)

    def set_head(self, eid, head, hport):
        rec = self.edges[eid]
        del self.in_at[(rec[2], rec[3])]
        if (head, hport) in self.in_at:
            raise DiagramError("port already in use")
        rec[2], rec[3] = head, hport
        self.in_at[(head, hport)] = eid
        if self._touched is not None:
            self._touched.add(rec[0])

    def set_tail(self, eid, tail, tport):
        rec = self.edges[eid]
        del self.out_at[(rec[0], rec[1])]
        if (tail, tport) in self.out_at:
            raise DiagramError("port already in use")
        if self._touched is not None:
            self._touched.add(rec[0])
            self._touched.add(tail)
        rec[0], rec[1] = tail, tport
        self.out_at[(tail, tport)] = eid

    def copy(self):
        g = _Graph(self.n)
        g.kind = dict(self.kind)
        g.label = dict(self.label)
        g.edges = {e: list(rec) for e, rec in self.edges.items()}
        g.out_at = dict(self.out_at)
        g.in_at = dict(self.in_at)
        g.sources = list(self.sources)
        g.sinks = list(self.sinks)
        g.free_loops = list(self.free_loops)
        g._next_v = self._next_v
        g._next_e = self._next_e
        return g

    def absorb(self, other):
        """Disjoint union; returns the vertex id mapping for `other`."""
        vmap = {}
        for vid, kind in other.kind.items():
            nv = self._next_v
            self._next_v += 1
            self.kind[nv] = kind
            if vid in other.label:
                self.label[nv] = other.label[vid]
            vmap[vid] = nv
        for rec in other.edges.values():
            self.add_edge(vmap[rec[0]], rec[1], vmap[rec[2]], rec[3], rec[4])
        self.sources.extend(vmap[v] for v in other.sources)
        self.sinks.extend(vmap[v] for v in other.sinks)
        self.free_loops.extend(other.free_loops)
        return vmap

    def strand(self, eid):
        """(end vertex, end port, weight, sigma-vertex or None) of the strand
        that starts with edge eid and passes through at most one
        sigma-vertex: its weight is the sum over its one or two edges."""
        _, _, head, hport, w = self.edges[eid]
        if self.kind[head] != SIGMA:
            return head, hport, w, None
        _, _, end, port, w2 = self.edges[self.out_at[(head, 1)]]
        return end, port, w + w2, head

    def splice(self, e_in, e_out, extra_weight, label=None):
        """Join the head end of e_in to the tail end of e_out as one edge
        carrying both weights plus `extra_weight`; when they are one edge,
        the closed chain becomes an identity free-loop record instead.

        With a (non-identity) `label` the two ends meet at one new
        sigma-vertex carrying it, and e_in takes `extra_weight`; when e_in
        is e_out that is a sigma self-loop."""
        if label is not None:
            u = self.new_vertex(SIGMA, label)
            self.set_head(e_in, u, 0)
            self.edges[e_in][4] += extra_weight
            self.set_tail(e_out, u, 1)
            return
        if e_in == e_out:
            w = self.edges[e_in][4] + extra_weight
            self.del_edge(e_in)
            self.free_loops.append((w, Perm.identity(self.n)))
            return
        tail, tport, _, _, w_in = self.edges[e_in]
        _, _, head, hport, w_out = self.edges[e_out]
        self.del_edge(e_in)
        self.del_edge(e_out)
        self.add_edge(tail, tport, head, hport, w_in + extra_weight + w_out)

    def glue(self, pairs, extra_weight):
        """Erase each (sink, source) pair, splicing the sink's in-edge to the
        source's out-edge.  Edges are looked up per pair, so a chain through
        several pairs fuses into one edge or one free loop."""
        for snk, src in pairs:
            self.splice(self.in_at[(snk, 0)], self.out_at[(src, 0)], extra_weight)
            self.del_vertex(snk)
            self.del_vertex(src)

    # -- views -----------------------------------------------------------

    def counts(self):
        c = {SPLIT: 0, MERGE: 0, SIGMA: 0, SOURCE: 0, SINK: 0}
        for kind in self.kind.values():
            c[kind] += 1
        return c

    def components(self):
        seen = set()
        comps = []
        adj = {v: [] for v in self.kind}
        for rec in self.edges.values():
            adj[rec[0]].append(rec[2])
            adj[rec[2]].append(rec[0])
        for v in sorted(self.kind):
            if v in seen:
                continue
            comp, stack = set(), [v]
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u])
            seen |= comp
            comps.append(comp)
        return comps

    # -- validation ------------------------------------------------------

    def check_ports(self):
        for vid, kind in self.kind.items():
            for d, p in _scan_ports(kind, self.n):
                table = self.in_at if d == "i" else self.out_at
                if (vid, p) not in table:
                    raise DiagramError(f"unused port {d}{p} on vertex {vid} ({kind})")
        for (vid, _), _eid in itertools.chain(self.out_at.items(), self.in_at.items()):
            if vid not in self.kind:
                raise DiagramError("edge attached to deleted vertex")

    def is_closed(self):
        """True iff the graph has no main sources and no main sinks: a closed
        graph carries winding weights and free-loop records, an open one
        neither."""
        return not self.sources and not self.sinks

    def is_acyclic(self):
        indeg = {v: 0 for v in self.kind}
        for rec in self.edges.values():
            indeg[rec[2]] += 1
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for d, p in _scan_ports(self.kind[v], self.n):
                if d == "o":
                    w = self.edges[self.out_at[(v, p)]][2]
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
        return seen == len(self.kind)

    # -- canonical serialization ------------------------------------------

    def canon_from(self, seeds):
        """BFS canonical string and vertex order from ordered seed vertices."""
        order = []
        return ";".join(self._canon_tokens(seeds, order)), order

    def _canon_tokens(self, seeds, order):
        """Tokens of the BFS canonical string from ordered seed vertices,
        appending each vertex to `order` as it is numbered; a closed graph's
        edge tokens carry their weights, normalized to zero on the BFS tree."""
        closed = self.is_closed()
        num, phi = {}, {}
        for s in seeds:
            if s not in num:
                num[s] = len(num)
                order.append(s)
                phi[s] = 0
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            kind = self.kind[v]
            lab = self.label.get(v)
            yield _KIND_CHAR[kind] + ("" if lab is None else str(lab.images))
            for d, p in _scan_ports(kind, self.n):
                eid = self.in_at[(v, p)] if d == "i" else self.out_at[(v, p)]
                tail, tport, head, hport, w = self.edges[eid]
                peer, peerport = (head, hport) if d == "o" else (tail, tport)
                if peer not in num:
                    num[peer] = len(num)
                    order.append(peer)
                    phi[peer] = phi[v] + w if d == "o" else phi[v] - w
                tok = f"{d}{p}>{num[peer]}.{peerport}"
                yield f"{tok}w{w + phi[tail] - phi[head]}" if closed else tok

    def closed_canonical(self):
        """Canonical (string, vertex order) for a source-free graph: per
        component the minimum BFS serialization over all start vertices,
        with winding weights normalized to zero on the BFS tree.  Each
        serialization stops once it sorts above the running minimum
        (`_join_below`); a tie keeps the earlier start's order."""
        results = []
        for comp in self.components():
            best = None
            for start in sorted(comp):
                order = []
                bound = None if best is None else best[0]
                s = _join_below(self._canon_tokens([start], order), bound)
                if s is not None:
                    best = (s, order)
            results.append(best)
        results.sort(key=lambda t: t[0])
        strings = [t[0] for t in results]
        order = [v for t in results for v in t[1]]
        loops = ",".join(sorted(_loop_token(r) for r in self.free_loops))
        return "#".join(strings) + "||" + loops, order

    def positive_on_loops(self):
        """True iff every directed cycle has total weight >= 1 (records too).

        Bellman-Ford negative-cycle detection on w' = (V+1) w - 1: a cycle of
        length L <= V has total w' < 0 iff its total w <= 0.
        """
        if any(w < 1 for w, _ in self.free_loops):
            return False
        verts = list(self.kind)
        if not verts:
            return True
        scale = len(verts) + 1
        dist = {v: 0 for v in verts}
        arcs = [(rec[0], rec[2], scale * rec[4] - 1) for rec in self.edges.values()]
        for _ in range(len(verts)):
            changed = False
            for u, v, w in arcs:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return True
        return not any(dist[u] + w < dist[v] for u, v, w in arcs)


def _join_below(tokens, best):
    """``";".join(tokens)`` if it sorts strictly below ``best`` (always when
    ``best`` is None), else None.

    Each piece (the token, preceded by ";" after the first) is compared with
    the slice of ``best`` at the same offset, and no further token is drawn
    once the join so far sorts above ``best``.  The order is that of the
    joined strings, not of the token sequences: "w1" is a prefix of "w12",
    yet "w12" < "w1;..." because ";" sorts after the digits.
    """
    if best is None:
        return ";".join(tokens)
    out = []
    pos = 0
    tied = True
    for tok in tokens:
        if tied:
            piece = ";" + tok if out else tok
            if best.startswith(piece, pos):
                pos += len(piece)
            elif piece > best[pos : pos + len(piece)]:
                return None
            else:
                tied = False
        out.append(tok)
    if tied and pos == len(best):
        return None
    return ";".join(out)


def _loop_token(record):
    winding, label = record
    return f"L{winding}:{label.images}"


class StrandDiagram:
    """Immutable (p,q,n)-strand diagram. Do not mutate after construction."""

    def __init__(self, graph: _Graph):
        graph.check_ports()
        if graph.free_loops:
            raise DiagramError("open strand diagram cannot carry free loops")
        if not graph.is_acyclic():
            raise DiagramError("strand diagram must be acyclic")
        c = graph.counts()
        if (c[SINK] - c[SOURCE]) != (graph.n - 1) * (c[SPLIT] - c[MERGE]):
            raise DiagramError("split/merge count identity violated")
        self._g = graph
        self._canon = None

    @classmethod
    def _trusted(cls, graph: _Graph) -> "StrandDiagram":
        """Diagram from a graph already known to be valid (built from a tree
        pair, glued or rewritten from valid diagrams), without the checks in
        ``__init__``."""
        d = object.__new__(cls)
        d._g = graph
        d._canon = None
        return d

    @property
    def n(self):
        return self._g.n

    @property
    def p(self):
        return len(self._g.sources)

    @property
    def q(self):
        return len(self._g.sinks)

    def counts(self):
        return self._g.counts()

    def canonical(self):
        if self._canon is None:
            s, order = self._g.canon_from(self._g.sources)
            if len(order) != len(self._g.kind):
                raise DiagramError("diagram has a component with no main source")
            sink_token = ",".join(str(order.index(v)) for v in self._g.sinks)
            self._canon = f"p{self.p}|{s}|snk:{sink_token}"
            self._order = order
        return self._canon

    def canonical_order(self):
        self.canonical()
        return list(self._order)

    def __eq__(self, other):
        return isinstance(other, StrandDiagram) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        c = self.counts()
        return (
            f"StrandDiagram(p={self.p}, q={self.q}, n={self.n}, "
            f"splits={c[SPLIT]}, merges={c[MERGE]}, sigmas={c[SIGMA]})"
        )

    def to_dot(self):
        return _to_dot(self._g, self.canonical_order())


def diagram_equal(d1, d2) -> bool:
    """Port-, kind-, label- and source/sink-order-preserving isomorphism."""
    return d1 == d2


def _to_dot(g, order):
    """DOT text of g with vertices numbered in `order`; a closed graph's
    edges show their weights, and its free loops are drawn as nodes."""
    names = {}
    prefix = {SOURCE: "src", SINK: "snk", SPLIT: "s", MERGE: "m", SIGMA: "g"}
    lines = ["digraph strand {"]
    for idx, vid in enumerate(order):
        kind = g.kind[vid]
        names[vid] = f"{prefix[kind]}{idx}"
        if kind == SIGMA:
            lab = list(g.label[vid].images)
            lines.append(f'  {names[vid]} [shape=circle, label="{lab}"];')
        elif kind in (SPLIT, MERGE):
            lines.append(f"  {names[vid]} [shape=point];")
        else:
            lines.append(f'  {names[vid]} [shape=plaintext, label="{names[vid]}"];')
    pos = {vid: i for i, vid in enumerate(order)}
    edge_rows = sorted(
        g.edges.values(), key=lambda rec: (pos[rec[0]], rec[1], pos[rec[2]], rec[3])
    )
    for tail, tport, head, hport, w in edge_rows:
        attrs = [f'taillabel="{tport}"', f'headlabel="{hport}"']
        if g.is_closed():
            attrs.append(f'label="w={w}"')
        lines.append(f"  {names[tail]} -> {names[head]} [{', '.join(attrs)}];")
    for i, (winding, label) in enumerate(sorted(g.free_loops, key=_loop_token)):
        name = f"loop{i}"
        lines.append(
            f'  {name} [shape=ellipse, label="winding={winding}, label={list(label.images)}"];'
        )
        lines.append(f"  {name} -> {name};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- tree pair <-> diagram ------------------------------------------------


def _internal_nodes(addrs):
    """Sorted proper prefixes of a complete prefix code: the internal nodes
    of its tree, in preorder.

    Each address is walked up from its longest proper prefix and stops at
    the first prefix already seen, whose own prefixes were all added with
    it; so each internal node is sliced once, plus once per address."""
    seen = set()
    for a in addrs:
        for i in range(len(a) - 1, -1, -1):
            u = a[:i]
            if u in seen:
                break
            seen.add(u)
    return sorted(seen)


def _tree_pair_graph(n, triple_by_dom):
    """Open port graph of a tree pair given as {domain address: (range
    address, label)}: a main source above the domain tree as splits, the
    range tree as merges above a main sink, and strand a -> b through a
    sigma-vertex when the label is not the identity.  Vertices are created
    as source, sink, splits in preorder, merges in preorder, then sigmas in
    domain-leaf order; the rewrite driver's schedule reads these ids.
    """
    g = _Graph(n)
    down = {(): (g.new_vertex(SOURCE), 0)}  # address -> the out-port feeding it
    up = {(): (g.new_vertex(SINK), 0)}  # address -> the in-port it feeds
    dom = sorted(triple_by_dom)
    for u in _internal_nodes(dom):
        v = g.new_vertex(SPLIT)
        tail = down.pop(u)
        g.add_edge(tail[0], tail[1], v, 0)
        for c in range(1, n + 1):
            down[u + (c,)] = (v, c)
    for u in _internal_nodes([b for b, _ in triple_by_dom.values()]):
        v = g.new_vertex(MERGE)
        head = up.pop(u)
        g.add_edge(v, 0, head[0], head[1])
        for c in range(1, n + 1):
            up[u + (c,)] = (v, c)
    for a in dom:
        b, lab = triple_by_dom[a]
        g.add_strand(*down[a], *up[b], None if lab.is_identity() else lab)
    return g


def build_diagram(elem) -> StrandDiagram:
    """(1,1,n)-strand diagram of a tree-pair element: domain tree as splits
    below the source, range tree as merges above the sink, strand i -> tau(i)
    with a sigma-vertex carrying the leaf label when it is not the identity."""
    return StrandDiagram._trusted(_tree_pair_graph(elem.n, elem.triples()))


def cut_diagram(d: StrandDiagram):
    """Inverse of `build_diagram` on reduced (1,1,n)-strand diagrams.

    Every source-to-sink path of a reduced diagram is splits, then at most
    one sigma-vertex, then merges; cutting between the split and merge
    blocks recovers the reduced tree pair.
    """
    from .rewriting import _redexes_at

    if d.p != 1 or d.q != 1:
        raise DiagramError(f"cut requires a (1,1,n) diagram, got ({d.p},{d.q})")
    g = d._g
    if any(_redexes_at(g, v, []) for v in g.kind):
        raise NotReducedError("diagram is not reduced")
    n = g.n

    def walk(table, end, kind, root):
        """The tree of `kind` vertices hanging from the port (root, 0), and
        the ports at its leaves in leaf order.  `table` maps a port to its
        edge, whose `end` (0 tail, 2 head) is the next vertex; a None on the
        stack closes the node whose n children are the last n subtrees done."""
        done, cuts = [], []
        stack = [(root, 0)]
        while stack:
            port = stack.pop()
            if port is None:
                done[-n:] = [tuple(done[-n:])]
                continue
            v = g.edges[table[port]][end]
            if g.kind[v] == kind:
                stack.append(None)
                stack.extend((v, c) for c in range(n, 0, -1))
            else:
                cuts.append(port)
                done.append(LEAF)
        return done[0], cuts

    domain_tree, dom_cuts = walk(g.out_at, 2, SPLIT, g.sources[0])
    range_tree, ran_cuts = walk(g.in_at, 0, MERGE, g.sinks[0])
    ran_index = {port: j for j, port in enumerate(ran_cuts, start=1)}

    tau = []
    labels = [None] * len(dom_cuts)
    one = Perm.identity(n)
    for cut in dom_cuts:
        end, port, _, sv = g.strand(g.out_at[cut])
        j = ran_index.get((end, port))
        if j is None:
            raise NotReducedError("strand does not run split-sigma-merge")
        tau.append(j)
        labels[j - 1] = one if sv is None else g.label[sv]

    return (domain_tree, range_tree, tuple(tau), tuple(labels))


def cut_to_element(d: StrandDiagram, subgroup):
    from .elements import TreePairElement

    domain_tree, range_tree, tau, labels = cut_diagram(d)
    return TreePairElement(d.n, subgroup, domain_tree, range_tree, tau, labels)


def identity_diagram(n: int, p: int) -> StrandDiagram:
    """The (p,p,n) groupoid identity: p parallel source-to-sink strands."""
    g = _Graph(n)
    for _ in range(p):
        src = g.new_vertex(SOURCE)
        snk = g.new_vertex(SINK)
        g.add_edge(src, 0, snk, 0)
    return StrandDiagram(g)


def concatenate(d1: StrandDiagram, d2: StrandDiagram) -> StrandDiagram:
    """Glue d1's i-th main sink to d2's i-th main source (d1 acts first)."""
    if d1.n != d2.n:
        raise DiagramError("arity mismatch")
    if d1.q != d2.p:
        raise DiagramError(f"cannot glue {d1.q} sinks to {d2.p} sources")
    g = d1._g.copy()
    vmap = g.absorb(d2._g)
    g.glue(zip(g.sinks[: d1.q], [vmap[v] for v in d2._g.sources]), 0)
    if g.free_loops:
        raise DiagramError("concatenation of open diagrams created a loop")
    return StrandDiagram._trusted(g)
