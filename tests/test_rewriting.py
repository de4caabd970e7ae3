import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnh.rewriting
from tests.test_closed import CLOSURE_GROUPS
from vnh.closed import ClosedDiagram, FreeLoop, close, reduce_closed
from vnh.diagrams import (
    MERGE,
    SIGMA,
    SINK,
    SOURCE,
    SPLIT,
    DiagramError,
    StrandDiagram,
    _Graph,
    _tree_pair_graph,
    build_diagram,
    concatenate,
    diagram_equal,
    identity_diagram,
)
from vnh.elements import (
    TreePairElement,
    _reduce_triples,
    expand_representative,
    identity_element,
    random_element,
    reduce_element,
)
from vnh.perms import Perm, Subgroup
from vnh.rewriting import (
    CochainError,
    Redex,
    StaleRedexError,
    _PRIORITY,
    _apply,
    _find,
    _match_I,
    _match_II,
    _order,
    _redexes_at,
    _reduce_graph,
    apply_inverse,
    apply_reduction,
    find_redexes,
    format_trace,
    reduce,
)
from vnh.trees import random_tree


def neg_shift(n):
    # the reversal-style label i -> -i+1 mod n, 1-based
    return Perm(tuple(((1 - i) % n) or n for i in range(1, n + 1)))


def build_merge_sigma_split(n, sigma):
    """(n,n,n)-diagram: sources -> merge -> sigma -> split -> sinks."""
    g = _Graph(n)
    m = g.new_vertex(MERGE)
    s = g.new_vertex(SPLIT)
    srcs = [g.new_vertex(SOURCE) for _ in range(n)]
    snks = [g.new_vertex(SINK) for _ in range(n)]
    for i in range(1, n + 1):
        g.add_edge(srcs[i - 1], 0, m, i)
        g.add_edge(s, i, snks[i - 1], 0)
    if sigma is None:
        g.add_edge(m, 0, s, 0)
    else:
        v = g.new_vertex(SIGMA, sigma)
        g.add_edge(m, 0, v, 0)
        g.add_edge(v, 1, s, 0)
    return StrandDiagram(g)


def test_identity_diagram_has_no_redexes():
    assert find_redexes(identity_diagram(2, 1)) == []
    assert find_redexes(identity_diagram(3, 4)) == []


def test_expanded_element_has_type_I_redex(rng, group):
    n, h = group
    g = reduce_element(random_element(n, h, rng))
    expanded = expand_representative(g, 1)
    redexes = find_redexes(build_diagram(expanded))
    assert any(r.rule in ("I", "I-identity") for r in redexes)


def test_merge_sigma_split_has_type_II_redex():
    n = 3
    d = build_merge_sigma_split(n, neg_shift(n))
    redexes = find_redexes(d)
    assert any(r.rule == "II" for r in redexes)
    (r,) = [r for r in redexes if r.rule == "II"]
    assert r.sigma == neg_shift(n)


def test_identity_type_I_yields_single_edge():
    h = Subgroup.trivial(2)
    one = Perm.identity(2)
    g = expand_representative(identity_element(2, h), 1)
    d = build_diagram(g)
    (r,) = [r for r in find_redexes(d) if r.rule == "I-identity"]
    reduced = apply_reduction(d, r)
    assert diagram_equal(reduced, identity_diagram(2, 1))


def test_type_III_composes_and_cancels():
    n = 3
    h = Subgroup.symmetric(3)
    s = Perm((2, 3, 1))
    g = _Graph(n)
    src = g.new_vertex(SOURCE)
    snk = g.new_vertex(SINK)
    v1 = g.new_vertex(SIGMA, s)
    v2 = g.new_vertex(SIGMA, s.inverse())
    g.add_edge(src, 0, v1, 0)
    g.add_edge(v1, 1, v2, 0)
    g.add_edge(v2, 1, snk, 0)
    d = StrandDiagram(g)
    (r,) = find_redexes(d)
    assert r.rule == "III-identity"
    assert diagram_equal(apply_reduction(d, r), identity_diagram(n, 1))


def test_stale_redex_raises():
    h = Subgroup.trivial(2)
    g = expand_representative(identity_element(2, h), 1)
    d = build_diagram(g)
    (r,) = [x for x in find_redexes(d) if x.rule == "I-identity"]
    reduced = apply_reduction(d, r)
    with pytest.raises(StaleRedexError):
        apply_reduction(reduced, r)


def test_redex_with_list_anchors_applies_as_printed():
    # `Redex.__repr__` prints the anchors as a list; a redex built that way
    # is the same redex.
    h = Subgroup.trivial(2)
    d = build_diagram(expand_representative(identity_element(2, h), 1))
    (r,) = [x for x in find_redexes(d) if x.rule == "I-identity"]
    as_list = Redex(r.rule, list(r.anchors), r.sigma)
    assert f"anchors={list(r.anchors)}" in repr(as_list)
    assert diagram_equal(apply_reduction(d, as_list), apply_reduction(d, r))
    with pytest.raises(StaleRedexError):
        apply_reduction(apply_reduction(d, r), as_list)


def test_reduce_cross_module_consistency(rng, group):
    n, h = group
    for _ in range(20):
        g = random_element(n, h, rng)
        lhs = reduce(build_diagram(g))
        rhs = build_diagram(reduce_element(g))
        assert diagram_equal(lhs, rhs)


def test_reduce_idempotent(rng, group):
    n, h = group
    for _ in range(10):
        g = random_element(n, h, rng)
        d = reduce(build_diagram(g))
        assert diagram_equal(reduce(d), d)


def random_open_diagram(n, h, rng):
    d = build_diagram(random_element(n, h, rng))
    for _ in range(rng.randrange(3)):
        d = concatenate(d, build_diagram(random_element(n, h, rng)))
    return d


def test_confluence_fuzz_randomized_schedules(rng, group):
    n, h = group
    for _ in range(30):
        d = random_open_diagram(n, h, rng)
        r1 = reduce(d, rng=random.Random(rng.random()))
        r2 = reduce(d, rng=random.Random(rng.random()))
        assert diagram_equal(r1, r2)
        assert diagram_equal(r1, reduce(d))


def test_reduction_never_serializes(monkeypatch, rng, group):
    n, h = group
    opens = [random_open_diagram(n, h, rng) for _ in range(10)]
    closures = [close(build_diagram(random_element(n, h, rng))) for _ in range(10)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("canonical serialization inside the rewrite loop")

    monkeypatch.setattr(_Graph, "canon_from", refuse)
    monkeypatch.setattr(_Graph, "closed_canonical", refuse)
    for d in opens:
        reduce(d)
        reduce(d, rng=random.Random(rng.random()))
    for cd in closures:
        reduce_closed(cd)
        reduce_closed(cd, rng=random.Random(rng.random()))


def test_measure_monotonicity(rng, group):
    # I and II strictly decrease splits+merges; III decreases sigma count;
    # IV preserves splits+merges.  Closed reduction never applies IV, so
    # (splits+merges, sigmas) falls strictly with every step it takes.
    n, h = group
    opens = [random_open_diagram(n, h, rng) for _ in range(20)]
    closures = [close(build_diagram(random_element(n, h, rng))) for _ in range(20)]
    for cd in closures:
        for _ in range(3):
            trace = []
            reduce_closed(cd, rng=random.Random(rng.random()), trace=trace)
            assert all(rule != "IV" for rule, _ in trace)
    for d in opens + closures:
        for r in find_redexes(d):
            before = d.counts()
            after = apply_reduction(d, r).counts()
            if r.rule.startswith("I-") or r.rule in ("I", "II", "II-identity"):
                assert (
                    after[SPLIT] + after[MERGE] < before[SPLIT] + before[MERGE]
                )
            if r.rule.startswith("III"):
                assert after[SIGMA] < before[SIGMA]
                assert after[SPLIT] + after[MERGE] == before[SPLIT] + before[MERGE]
            if r.rule == "IV":
                assert after[SPLIT] + after[MERGE] == before[SPLIT] + before[MERGE]


def test_trace_mode():
    h = Subgroup.trivial(2)
    g = expand_representative(identity_element(2, h), 1)
    trace = []
    reduce(build_diagram(g), trace=trace)
    assert trace
    text = format_trace(trace)
    assert all(line.split()[0] in ("I", "I-identity", "II", "II-identity", "III", "III-identity", "IV") for line in text.splitlines())


# -- inverse rules ----------------------------------------------------------


def test_inverse_type_I_round_trip():
    h = Subgroup.symmetric(2)
    s = Perm((2, 1))
    g = _Graph(2)
    src = g.new_vertex(SOURCE)
    snk = g.new_vertex(SINK)
    v = g.new_vertex(SIGMA, s)
    g.add_edge(src, 0, v, 0)
    g.add_edge(v, 1, snk, 0)
    d = StrandDiagram(g)
    expanded = apply_inverse(d, "I", sigma_vertex=v)
    c = expanded.counts()
    assert (c[SPLIT], c[MERGE], c[SIGMA]) == (1, 1, 2)
    (r,) = [x for x in find_redexes(expanded) if x.rule == "I"]
    assert diagram_equal(apply_reduction(expanded, r), d)


def test_inverse_type_I_identity_round_trip():
    d = identity_diagram(2, 1)
    eid = next(iter(d._g.edges))
    expanded = apply_inverse(d, "I", edge=eid)
    (r,) = [x for x in find_redexes(expanded) if x.rule == "I-identity"]
    assert diagram_equal(apply_reduction(expanded, r), d)


def test_inverse_type_II_identity_round_trip():
    d = identity_diagram(2, 2)
    edges = tuple(sorted(d._g.edges))
    expanded = apply_inverse(d, "II", edges=edges)
    (r,) = [x for x in find_redexes(expanded) if x.rule == "II-identity"]
    assert diagram_equal(apply_reduction(expanded, r), d)


def test_inverse_type_II_sigma_round_trip():
    n = 2
    s = Perm((2, 1))
    g = _Graph(n)
    vs = []
    for _ in range(n):
        src = g.new_vertex(SOURCE)
        snk = g.new_vertex(SINK)
        v = g.new_vertex(SIGMA, s)
        g.add_edge(src, 0, v, 0)
        g.add_edge(v, 1, snk, 0)
        vs.append(v)
    d = StrandDiagram(g)
    expanded = apply_inverse(d, "II", sigma_vertices=tuple(vs))
    (r,) = [x for x in find_redexes(expanded) if x.rule == "II"]
    assert diagram_equal(apply_reduction(expanded, r), d)


def test_inverse_type_I_on_free_loop_gives_split_merge_loop():
    # Expanding a single-sigma free loop yields a split and a merge that
    # share their 0-edge, with the sigma-strands between them.
    n = 2
    s = Perm((2, 1))
    g = _Graph(n)
    v = g.new_vertex(SIGMA, s)
    g.add_edge(v, 1, v, 0, 1)
    cd = ClosedDiagram(g)
    expanded = apply_inverse(cd, "I", sigma_vertex=v)
    c = expanded.counts()
    assert (c[SPLIT], c[MERGE], c[SIGMA]) == (1, 1, n)
    # The split and merge share their 0-edge: an identity type II redex.
    assert any(r.rule == "II-identity" for r in find_redexes(expanded))
    # Reducing collapses the split/merge pair again.
    back = reduce_closed(expanded)
    assert not back.has_graph_part() or back.counts()[SIGMA] <= 1


# -- the four local-confluence overlap cases ---------------------------------


def theta_graph(n, strand_sigma=None, loop_weight=1, strand_weights=None):
    """Closed diagram: split s -> n strands -> merge m -> back edge to s.

    With strand_sigma=None the strands run i -> i directly (identity type I
    redex); otherwise each strand carries a strand_sigma vertex into port
    sigma(i) (type I redex).  The back edge makes (m, s) an identity type II
    redex simultaneously: the tightest I/II overlap.  Strand i carries
    winding strand_weights[i - 1] (0 by default).
    """
    g = _Graph(n)
    s = g.new_vertex(SPLIT)
    m = g.new_vertex(MERGE)
    g.add_edge(m, 0, s, 0, loop_weight)
    for i, w in enumerate(strand_weights or [0] * n, start=1):
        if strand_sigma is None:
            g.add_edge(s, i, m, i, w)
        else:
            v = g.new_vertex(SIGMA, strand_sigma)
            g.add_edge(s, i, v, 0, w)
            g.add_edge(v, 1, m, strand_sigma(i))
    return ClosedDiagram(g)


def test_confluence_case_1_identity_I_vs_identity_II():
    # Identity type I and identity type II on the same support converge.
    for n in (2, 3):
        d = theta_graph(n)
        rI = [r for r in find_redexes(d) if r.rule == "I-identity"]
        rII = [r for r in find_redexes(d) if r.rule == "II-identity"]
        assert rI and rII
        outI = reduce_closed(apply_reduction(d, rI[0]))
        outII = reduce_closed(apply_reduction(d, rII[0]))
        # One free loop of winding 1 vs n of winding 1: the same class.
        from vnh.closed import conjugating_equivalent

        h = Subgroup.symmetric(n)
        assert conjugating_equivalent(outI, outII, h)


def test_confluence_case_2_sigma_II_vs_identity_I():
    # split v1 -> direct strands -> merge v2, then v2 -> sigma -> split v3:
    # r0 = type II with sigma, r1 = identity type I; completions converge.
    n = 2
    s = Perm((2, 1))
    g = _Graph(n)
    src = g.new_vertex(SOURCE)
    v1 = g.new_vertex(SPLIT)
    v2 = g.new_vertex(MERGE)
    sv = g.new_vertex(SIGMA, s)
    v3 = g.new_vertex(SPLIT)
    snks = [g.new_vertex(SINK) for _ in range(n)]
    g.add_edge(src, 0, v1, 0)
    for i in range(1, n + 1):
        g.add_edge(v1, i, v2, i)
    g.add_edge(v2, 0, sv, 0)
    g.add_edge(sv, 1, v3, 0)
    for i in range(1, n + 1):
        g.add_edge(v3, i, snks[i - 1], 0)
    d = StrandDiagram(g)
    r0 = [r for r in find_redexes(d) if r.rule == "II"]
    r1 = [r for r in find_redexes(d) if r.rule == "I-identity"]
    assert r0 and r1
    side0 = apply_reduction(d, r0[0])
    side1 = apply_reduction(d, r1[0])
    (b,) = [r for r in find_redexes(side1) if r.rule == "IV"]
    side1 = apply_reduction(side1, b)
    assert diagram_equal(side0, side1)


def test_confluence_case_3_sigma_II_vs_sigma_I():
    # Strands of v1 -> v2 carry s'-vertices; v2 -> s-vertex -> v3.
    n = 2
    s = Perm((2, 1))
    sp = Perm((2, 1))
    g = _Graph(n)
    src = g.new_vertex(SOURCE)
    v1 = g.new_vertex(SPLIT)
    v2 = g.new_vertex(MERGE)
    sv = g.new_vertex(SIGMA, s)
    v3 = g.new_vertex(SPLIT)
    snks = [g.new_vertex(SINK) for _ in range(n)]
    g.add_edge(src, 0, v1, 0)
    for i in range(1, n + 1):
        u = g.new_vertex(SIGMA, sp)
        g.add_edge(v1, i, u, 0)
        g.add_edge(u, 1, v2, sp(i))
    g.add_edge(v2, 0, sv, 0)
    g.add_edge(sv, 1, v3, 0)
    for i in range(1, n + 1):
        g.add_edge(v3, i, snks[i - 1], 0)
    d = StrandDiagram(g)
    r0 = [r for r in find_redexes(d) if r.rule == "II"]
    r1 = [r for r in find_redexes(d) if r.rule == "I"]
    assert r0 and r1
    # r0 side: type II, then n type III compositions.
    side0 = apply_reduction(d, r0[0])
    for _ in range(n):
        reds = [r for r in find_redexes(side0) if r.rule.startswith("III")]
        assert reds
        side0 = apply_reduction(side0, reds[0])
    # r1 side: type I, one type III, then the type IV push-through.
    side1 = apply_reduction(d, r1[0])
    reds = [r for r in find_redexes(side1) if r.rule.startswith("III")]
    assert reds
    side1 = apply_reduction(side1, reds[0])
    reds = [r for r in find_redexes(side1) if r.rule == "IV"]
    if reds:  # composite may be the identity, in which case both sides agree
        side1 = apply_reduction(side1, reds[0])
    assert diagram_equal(reduce(side0), reduce(side1))
    assert diagram_equal(reduce(side0), reduce(d))


def test_confluence_case_4_III_vs_III():
    # sigma1 -> sigma2 -> sigma3 chain: both orders of composition converge.
    n = 3
    s1, s2, s3 = Perm((2, 3, 1)), Perm((2, 1, 3)), Perm((3, 2, 1))
    g = _Graph(n)
    src = g.new_vertex(SOURCE)
    snk = g.new_vertex(SINK)
    a = g.new_vertex(SIGMA, s1)
    b = g.new_vertex(SIGMA, s2)
    c = g.new_vertex(SIGMA, s3)
    g.add_edge(src, 0, a, 0)
    g.add_edge(a, 1, b, 0)
    g.add_edge(b, 1, c, 0)
    g.add_edge(c, 1, snk, 0)
    d = StrandDiagram(g)
    reds = [r for r in find_redexes(d) if r.rule.startswith("III")]
    assert len(reds) == 2
    out = []
    for r in reds:
        side = apply_reduction(d, r)
        more = [x for x in find_redexes(side) if x.rule.startswith("III")]
        assert len(more) == 1
        out.append(apply_reduction(side, more[0]))
    assert diagram_equal(out[0], out[1])
    # Final label is the full composite s3 o s2 o s1.
    sig = [v for v, k in out[0]._g.kind.items() if k == SIGMA]
    assert len(sig) == 1
    assert out[0]._g.label[sig[0]] == s3 * s2 * s1


def test_zero_winding_cycle_raises_cochain_error():
    # A split/merge cycle of total winding 0 is not a closed diagram, and a
    # reduction of such a graph fails when its result is built.
    with pytest.raises(CochainError):
        theta_graph(2, loop_weight=0)
    d = theta_graph(2)
    (r,) = [x for x in find_redexes(d) if x.rule == "II-identity"]
    for rec in d._g.edges.values():
        rec[4] = 0
    with pytest.raises(CochainError):
        apply_reduction(d, r)


# -- splices that close a chain into a loop -----------------------------------


def _apply_to_copy(cd, redex):
    g = cd._g.copy()
    _apply(g, redex)
    return g


def _merge_fed_by_split(same_port):
    """Closed V2(Z2) graph: merge m -> split s at winding 3 (an identity
    type II redex), s's out-port 1 straight back into m, and its out-port 2
    through a swap vertex x into m's other in-port.  With `same_port` the
    straight strand enters m at port 1, otherwise at port 2."""
    swap = Perm((2, 1))
    g = _Graph(2)
    m = g.new_vertex(MERGE)
    s = g.new_vertex(SPLIT)
    x = g.new_vertex(SIGMA, swap)
    g.add_edge(m, 0, s, 0, 3)
    straight, through = (1, 2) if same_port else (2, 1)
    g.add_edge(s, 1, m, straight, 0)
    g.add_edge(s, 2, x, 0, 0)
    g.add_edge(x, 1, m, through, 0)
    return ClosedDiagram(g), (m, s, x), swap


def test_identity_II_fed_by_its_own_split_on_the_same_port_gives_a_free_loop():
    cd, (m, s, x), swap = _merge_fed_by_split(same_port=True)
    assert find_redexes(cd)[0] == Redex("II-identity", (m, s))
    g = _apply_to_copy(cd, Redex("II-identity", (m, s)))
    # Port 1 closes on itself; port 2 fuses x's two edges into a self-loop.
    assert g.free_loops == [(3, Perm.identity(2))]
    assert g.kind == {x: SIGMA}
    assert list(g.edges.values()) == [[x, 1, x, 0, 3]]
    out = reduce_closed(cd)
    assert out.free_loops == (FreeLoop(3, Perm.identity(2)), FreeLoop(3, swap))
    assert not out.has_graph_part()


def test_identity_II_fed_by_its_own_split_on_another_port_carries_the_middle_weight_twice():
    cd, (m, s, x), swap = _merge_fed_by_split(same_port=False)
    assert find_redexes(cd)[0] == Redex("II-identity", (m, s))
    g = _apply_to_copy(cd, Redex("II-identity", (m, s)))
    # x -> m1 and s1 -> m2 fuse first, then that edge and s2 -> x: one chain
    # through both junctions, each adding the middle weight.
    assert g.free_loops == []
    assert g.kind == {x: SIGMA}
    assert list(g.edges.values()) == [[x, 1, x, 0, 6]]
    out = reduce_closed(cd)
    assert out.free_loops == (FreeLoop(6, swap),)
    assert not out.has_graph_part()


def test_identity_III_on_a_two_sigma_cycle_gives_a_free_loop():
    n = 3
    rot = Perm((2, 3, 1))
    g = _Graph(n)
    a = g.new_vertex(SIGMA, rot)
    b = g.new_vertex(SIGMA, rot.inverse())
    g.add_edge(a, 1, b, 0, 1)
    g.add_edge(b, 1, a, 0, 2)
    cd = ClosedDiagram(g)
    assert find_redexes(cd) == [Redex("III-identity", (a, b)), Redex("III-identity", (b, a))]
    out = _apply_to_copy(cd, Redex("III-identity", (a, b)))
    assert out.free_loops == [(3, Perm.identity(n))]
    assert not out.kind and not out.edges


def test_type_I_fed_by_its_own_merge_closes_up():
    # The split's in-edge is the merge's out-edge: identity I leaves a free
    # loop, I with a label a sigma self-loop, both at the loop's winding.
    for n in (2, 3):
        cd = theta_graph(n, loop_weight=3)
        (s, m) = find_redexes(cd)[0].anchors
        assert find_redexes(cd)[0] == Redex("I-identity", (s, m))
        g = _apply_to_copy(cd, Redex("I-identity", (s, m)))
        assert g.free_loops == [(3, Perm.identity(n))]
        assert not g.kind and not g.edges
        lab = neg_shift(n)
        cd = theta_graph(n, strand_sigma=lab, loop_weight=3)
        assert find_redexes(cd)[0] == Redex("I", (s, m), lab)
        g = _apply_to_copy(cd, Redex("I", (s, m), lab))
        assert g.free_loops == []
        ((u, kind),) = g.kind.items()
        assert kind == SIGMA and g.label[u] == lab
        assert list(g.edges.values()) == [[u, 1, u, 0, 3]]
        assert reduce_closed(cd).free_loops == (FreeLoop(3, lab),)


# -- the type IV plateau: no I/II collapse past I-III exhaustion -------------


def _reference_step(g, redex, trace, closed):
    _apply(g, redex)
    trace.append((redex.rule, redex.anchors))
    if closed and not g.positive_on_loops():
        raise CochainError("reduction produced a nonpositive loop winding")


def _reference_state_key(g):
    """Exact hashable state of g, independent of sigma-vertex ids.

    Forward moves never create split, merge, source or sink vertices and ids
    are never reused, so those vertices keep their ids.  Each path from one
    of their out-ports to the next such vertex is recorded by its two ends
    and the sequence of edge weights and sigma labels along it; sigma-only
    cycles (by their least rotation) and free-loop records are multisets.
    """
    paths = set()
    on_path = set()
    for (v, p), eid in g.out_at.items():
        if g.kind[v] == SIGMA:
            continue
        seq = []
        while True:
            _, _, head, hport, w = g.edges[eid]
            seq.append(w)
            if g.kind[head] != SIGMA:
                break
            on_path.add(head)
            seq.append(g.label[head].images)
            eid = g.out_at[(head, 1)]
        paths.add((v, p, head, hport, tuple(seq)))
    cycles = []
    for v, kind in g.kind.items():
        if kind != SIGMA or v in on_path:
            continue
        cycle, u = [], v
        while u not in on_path:
            on_path.add(u)
            eid = g.out_at[(u, 1)]
            cycle.append((g.label[u].images, g.edges[eid][4]))
            u = g.edges[eid][2]
        cycles.append(min(tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))))
    loops = sorted((w, lab.images) for w, lab in g.free_loops)
    return frozenset(paths), tuple(sorted(cycles)), tuple(loops)


def _reference_plateau(g, trace):
    """Breadth-first search of g's type IV plateau for an I/II collapse.

    A plateau move is one type IV followed by type III until an I/II redex
    appears or none is left (III never destroys an I/II redex).  If some
    reachable state enables a type I or II redex, g becomes that state, the
    moves to it are appended to trace, and the result is True.  Otherwise g
    is unchanged and reduced, and the result is False.  The search closed
    reduction once ran after I-III; a test oracle for its deletion.
    """
    seen = {_reference_state_key(g)}
    queue = deque([(g, [])])
    while queue:
        state, moves = queue.popleft()
        for redex in _order(r for r in _find(state) if r.rule == "IV"):
            nxt, path = state.copy(), list(moves)
            _reference_step(nxt, redex, path, closed=True)
            while True:
                rest = _order(r for r in _find(nxt) if r.rule != "IV")
                if not rest:
                    break
                if not rest[0].rule.startswith("III"):
                    vars(g).update(vars(nxt))
                    trace.extend(path)
                    return True
                _reference_step(nxt, rest[0], path, closed=True)
            key = _reference_state_key(nxt)
            if key not in seen:
                seen.add(key)
                queue.append((nxt, path))
    return False


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
@settings(max_examples=500, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_no_type_IV_plateau_past_I_to_III_exhaustion(name, rng):
    # A type IV move on a closed graph is a vertex twist over H, and twists
    # preserve the type I and II patterns, so no plateau path reaches a
    # collapse that I-III missed.
    n, h, max_carets = CLOSURE_GROUPS[name]
    g = close(build_diagram(random_element(n, h, rng, max_carets=max_carets)))._g.copy()
    _reduce_graph(g, rng=random.Random(rng.random()))
    assert all(r.rule == "IV" for r in _find(g))
    before = _reference_state_key(g)
    assert _reference_plateau(g, []) is False
    assert _reference_state_key(g) == before


# -- unequal winding refuses type I -------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("labelled", [False, True], ids=["identity", "sigma"])
def test_type_I_refused_on_strands_of_unequal_winding(n, labelled):
    # The n strands of a type I support must wind alike: a support whose
    # strands wind differently is not a disk in the annulus.
    lab = neg_shift(n) if labelled else None
    s, m = 0, 1  # theta_graph's split and merge
    redex = Redex("I", (s, m), lab) if labelled else Redex("I-identity", (s, m))
    assert redex in find_redexes(theta_graph(n, lab, strand_weights=[1] * n))
    unequal = theta_graph(n, lab, strand_weights=list(range(n)))
    type_I = [r for r in find_redexes(unequal) if r.rule in ("I", "I-identity")]
    assert not [r for r in type_I if r.anchors[0] == s]
    assert Redex("II-identity", (m, s)) in find_redexes(unequal)
    with pytest.raises(StaleRedexError):
        apply_reduction(unequal, Redex("I-identity", (s, m)))
    with pytest.raises(StaleRedexError):
        apply_reduction(unequal, redex)


# -- per-step reference: the rule bodies before `_Graph.strand` ---------------
#
# The matches and rule bodies below are the library's as they stood before
# strands were read by `_Graph.strand` and joined by a labelled `splice`,
# copied verbatim apart from the `_reference` prefix on their names.  Each
# step of a random schedule is applied by both, and the graphs must agree
# in everything but edge ids: `splice` gives a joined strand a fresh edge
# id where the old bodies moved one end of an existing edge, and nothing
# prints or orders by edge ids (DOT and canonical forms order edges by
# vertex positions; every other reader looks edges up by port).


def _reference_match_I(g, v1):
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


def _reference_match_II(g, v1):
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


def _reference_strand_weights_equal(weights):
    if any(w != weights[0] for w in weights):
        raise CochainError(f"parallel strands carry unequal weights {weights}")
    return weights[0]


def _reference_apply_I(g, v1, v2, sigma):
    found = _reference_match_I(g, v1)
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
    common = _reference_strand_weights_equal(weights)
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


def _reference_apply_II(g, v1, v2, sigma):
    found = _reference_match_II(g, v1)
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


def _reference_apply_III(g, s1, s2, _comp):
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


def _reference_apply_IV(g, a, b, sigma):
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


_REFERENCE_APPLY = {
    "I": _reference_apply_I,
    "I-identity": _reference_apply_I,
    "II": _reference_apply_II,
    "II-identity": _reference_apply_II,
    "III": _reference_apply_III,
    "III-identity": _reference_apply_III,
    "IV": _reference_apply_IV,
}

_REFERENCE_GROUPS = {
    "V2(Z2)": (2, Subgroup.symmetric(2)),
    "V3(S3)": (3, Subgroup.symmetric(3)),
    "V4(S4)": (4, Subgroup.symmetric(4)),
}


def _graph_state(g):
    edges = sorted(tuple(rec) for rec in g.edges.values())
    return g.kind, g.label, g.free_loops, g._next_v, edges


def _random_factor(n, h, rng):
    """A random element, half the time with one leaf expanded: the diagram
    then has a type I redex, labelled when the leaf's label is not 1."""
    g = random_element(n, h, rng)
    if rng.random() < 0.5:
        g = expand_representative(g, rng.randint(1, g.k))
    return g


def _assert_steps_match_reference(g, rng, max_steps):
    """Apply random redexes of g to g and to a copy, by the library and by
    the reference bodies, comparing the graphs and the matches after each
    step; returns the rules applied."""
    ref = g.copy()
    rules = set()
    for _ in range(max_steps):
        for v in g.kind:
            assert _match_I(g, v) == _reference_match_I(ref, v)
            assert _match_II(g, v) == _reference_match_II(ref, v)
        redexes = _order(_find(g))
        if not redexes:
            break
        redex = rng.choice(redexes)
        _apply(g, redex)
        _REFERENCE_APPLY[redex.rule](ref, *redex.anchors, redex.sigma)
        assert _graph_state(g) == _graph_state(ref), redex
        rules.add(redex.rule)
    return rules


def test_rule_bodies_match_reference_on_open_products():
    rules = set()
    for name, (n, h) in sorted(_REFERENCE_GROUPS.items()):
        rng = random.Random(name)
        for _ in range(30):
            factors = [_random_factor(n, h, rng) for _ in range(rng.randint(2, 4))]
            d = build_diagram(factors[0])
            for f in factors[1:]:
                d = concatenate(d, build_diagram(f))
            g = d._g.copy()
            rules |= _assert_steps_match_reference(g, rng, max_steps=10_000)
            assert not _find(g)
    assert rules == set(_REFERENCE_APPLY)


def test_rule_bodies_match_reference_on_closures():
    # Type IV is a vertex twist on closed graphs and need not terminate
    # there, so each schedule, which takes IV too, stops after 60 steps.
    rules = set()
    for name, (n, h) in sorted(_REFERENCE_GROUPS.items()):
        rng = random.Random(name)
        for _ in range(30):
            g = close(build_diagram(_random_factor(n, h, rng)))._g.copy()
            rules |= _assert_steps_match_reference(g, rng, max_steps=60)
    assert rules == set(_REFERENCE_APPLY)


# -- one anchor per redex -------------------------------------------------------
#
# `_reference_find` is the library's redex scan as it stood before it ran
# `_redexes_at` per vertex (the downward type IV was found at its split),
# copied verbatim apart from the `_reference` prefix on its name.


def _reference_find(g):
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


def _random_states(n, h, rng, closed):
    """Up to 12 diagrams along a random schedule from a random open product
    of 2-3 factors, or from the closure of one factor."""
    if closed:
        d = close(build_diagram(_random_factor(n, h, rng)))
    else:
        factors = [_random_factor(n, h, rng) for _ in range(rng.randint(2, 3))]
        d = build_diagram(factors[0])
        for f in factors[1:]:
            d = concatenate(d, build_diagram(f))
    for _ in range(12):
        yield d
        found = find_redexes(d)
        if not found:
            return
        d = apply_reduction(d, rng.choice(found))


def _altered(redex, g):
    """Redexes that differ from `redex` in one field: every other rule name
    ("I" for an identity match among them), a wrong sigma, swapped anchors,
    an unknown first anchor, or no anchors."""
    for rule in sorted(set(_PRIORITY) - {redex.rule}):
        yield Redex(rule, redex.anchors, redex.sigma)
    for sigma in (None, Perm.identity(g.n), neg_shift(g.n)):
        if sigma != redex.sigma:
            yield Redex(redex.rule, redex.anchors, sigma)
    yield Redex(redex.rule, redex.anchors[::-1], redex.sigma)
    yield Redex(redex.rule, (g._next_v,) + redex.anchors[1:], redex.sigma)
    yield Redex(redex.rule, (), redex.sigma)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_apply_reduction_accepts_exactly_the_found_redexes(monkeypatch, closed):
    def refuse(*_args):
        raise AssertionError("a rule body matched its redex again")

    stale = 0
    rules = set()
    for name, (n, h) in sorted(_REFERENCE_GROUPS.items()):
        rng = random.Random(f"anchors/{name}")
        for _ in range(20):
            for d in _random_states(n, h, rng, closed):
                g = d._g
                found = _find(g)
                rules |= {r.rule for r in found}
                assert _order(found) == _order(_reference_find(g))
                for v in g.kind:
                    at_v = _redexes_at(g, v, [])
                    assert all(r.anchors[0] == v for r in at_v)
                    assert len(set(at_v)) == len(at_v)
                assert len(set(found)) == len(found)
                results = {r: apply_reduction(d, r) for r in found}
                with monkeypatch.context() as m:
                    m.setattr(vnh.rewriting, "_match_I", refuse)
                    m.setattr(vnh.rewriting, "_match_II", refuse)
                    for r in found:
                        copy = g.copy()
                        _apply(copy, r)
                        assert _graph_state(copy) == _graph_state(results[r]._g)
                if not found:
                    continue
                applied = results[rng.choice(found)]
                still = find_redexes(applied)
                for r in found:
                    if r in still:
                        apply_reduction(applied, r)
                    else:
                        stale += 1
                        with pytest.raises(StaleRedexError):
                            apply_reduction(applied, r)
                for r in found:
                    for bad in _altered(r, g):
                        if bad in found:
                            apply_reduction(d, bad)
                            continue
                        with pytest.raises(StaleRedexError):
                            apply_reduction(d, bad)
    assert stale
    assert rules == set(_PRIORITY)


# -- inverse moves against the bodies before `_Graph.add_strand` ----------------
#
# `_reference_apply_inverse` is the library's `apply_inverse` as it stood
# before its four branches became one type I and one type II body over
# `_anchor_label`, `_rewire` and `_Graph.add_strand`, copied verbatim apart
# from the `_reference` prefix on its name.  Both must build the same graph
# in everything but edge ids, or raise the same exception type.


def _reference_apply_inverse(d, rule, *, sigma_vertex=None, edge=None, edges=None, sigma_vertices=None):
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


def _outcome(apply, d, rule, kwargs):
    try:
        return _graph_state(apply(d, rule, **kwargs)._g)
    except (ValueError, CochainError) as exc:
        # Cutting edges of one path makes a cycle on an open diagram, and a
        # loop of winding 0 on a closed one.  The reference raised
        # DiagramError for the first and CochainError, an internal error,
        # for the second; `apply_inverse` raises DiagramError for both.
        return type(exc)


def _random_inverse_calls(g, rng):
    """Random inverse moves on g: good and bad anchors of every kind."""
    n = g.n
    edges = sorted(g.edges)
    sigmas = sorted(v for v, k in g.kind.items() if k == SIGMA)
    others = sorted(v for v, k in g.kind.items() if k != SIGMA)
    gone = g._next_e
    by_label = {}
    for v in sigmas:
        by_label.setdefault(g.label[v], []).append(v)
    calls = []
    for v in rng.sample(sigmas, min(3, len(sigmas))) + others[:1] + [g._next_v]:
        calls.append(("I", {"sigma_vertex": v}))
    for e in rng.sample(edges, min(3, len(edges))) + [gone]:
        calls.append(("I", {"edge": e}))
    for _ in range(3):
        if len(edges) >= n:
            pick = rng.sample(edges, n)
            calls.append(("II", {"edges": tuple(pick)}))
            calls.append(("II", {"edges": tuple(pick[:-1] + [pick[0]])}))
            calls.append(("II", {"edges": tuple(pick[:-1] + [gone])}))
            calls.append(("II", {"edges": tuple(pick[:-1])}))
    for vs in by_label.values():
        if len(vs) >= n:
            calls.append(("II", {"sigma_vertices": tuple(rng.sample(vs, n))}))
    if len(sigmas) >= n:
        calls.append(("II", {"sigma_vertices": tuple(rng.sample(sigmas, n))}))
    if others and len(sigmas) >= n - 1:
        calls.append(("II", {"sigma_vertices": tuple(sigmas[: n - 1] + others[:1])}))
    calls.append(("II", {"edge": edges[0] if edges else 0}))
    calls.append(("I", {"edges": tuple(edges[:n])}))
    calls.append(("III", {"sigma_vertex": sigmas[0] if sigmas else 0}))
    return calls


def _sigma_self_loops(g):
    return [v for v, k in g.kind.items() if k == SIGMA and g.edges[g.out_at[(v, 1)]][2] == v]


def test_inverse_moves_match_reference():
    outcomes = set()
    self_loops = zero_loops = 0
    for name, (n, h) in sorted(_REFERENCE_GROUPS.items()):
        rng = random.Random(f"inverse/{name}")
        elems = sorted(h.elements)
        for _ in range(25):
            # Open products, and closures part way through closed reduction
            # (a same-tree element is torsion: its closure often reduces to
            # sigma self-loops).
            states = list(_random_states(n, h, rng, closed=False))
            g = random_element(n, h, rng, max_carets=2)
            tau = tuple(rng.sample(range(1, g.k + 1), g.k))
            labels = tuple(rng.choice(elems) for _ in tau)
            g = TreePairElement(n, h, g.domain_tree, g.domain_tree, tau, labels)
            graph = close(build_diagram(g))._g.copy()
            for _ in range(rng.randrange(30)):
                redexes = [r for r in _find(graph) if r.rule != "IV"]
                if not redexes:
                    break
                _apply(graph, rng.choice(redexes))
            states.append(ClosedDiagram(graph))
            for d in rng.sample(states, min(3, len(states))):
                loops = _sigma_self_loops(d._g)
                self_loops += len(loops)
                calls = _random_inverse_calls(d._g, rng)
                calls += [("I", {"sigma_vertex": v}) for v in loops]
                for rule, kwargs in calls:
                    expected = _outcome(_reference_apply_inverse, d, rule, kwargs)
                    outcomes.add(expected if isinstance(expected, type) else rule)
                    if expected is CochainError:
                        assert isinstance(d, ClosedDiagram) and rule == "II", (rule, kwargs)
                        expected = DiagramError
                        zero_loops += 1
                    assert _outcome(apply_inverse, d, rule, kwargs) == expected, (rule, kwargs)
    assert self_loops
    assert zero_loops
    assert {"I", "II", StaleRedexError, ValueError, DiagramError, CochainError} <= outcomes


def test_inverse_move_rejections():
    # Each rejection path of both versions: wrong count, a repeated anchor,
    # a missing edge, a non-sigma anchor and mixed labels are stale; a rule
    # without its anchor kind is unsupported.
    n = 2
    s = Perm((2, 1))
    g = _Graph(n)
    srcs = [g.new_vertex(SOURCE) for _ in range(3)]
    snks = [g.new_vertex(SINK) for _ in range(3)]
    x = g.new_vertex(SIGMA, s)
    y = g.new_vertex(SIGMA, s)
    g.add_edge(srcs[0], 0, x, 0)
    g.add_edge(x, 1, snks[0], 0)
    g.add_edge(srcs[1], 0, y, 0)
    g.add_edge(y, 1, snks[1], 0)
    plain = g.add_edge(srcs[2], 0, snks[2], 0)
    d = StrandDiagram(g)
    stale = [
        ("II", {"edges": (plain,)}),
        ("II", {"edges": (plain, plain)}),
        ("II", {"edges": (plain, plain + 1)}),
        ("I", {"edge": plain + 1}),
        ("I", {"sigma_vertex": srcs[0]}),
        ("II", {"sigma_vertices": (x,)}),
        ("II", {"sigma_vertices": (x, x)}),
        ("II", {"sigma_vertices": (x, srcs[0])}),
    ]
    for rule, kwargs in stale:
        for apply in (apply_inverse, _reference_apply_inverse):
            with pytest.raises(StaleRedexError):
                apply(d, rule, **kwargs)
    assert apply_inverse(d, "II", sigma_vertices=(x, y)).counts()[SIGMA] == 1
    g3 = _Graph(3)
    vs = []
    for lab in (Perm((2, 3, 1)), Perm((2, 3, 1)), Perm((3, 1, 2))):
        src, snk = g3.new_vertex(SOURCE), g3.new_vertex(SINK)
        v = g3.new_vertex(SIGMA, lab)
        g3.add_edge(src, 0, v, 0)
        g3.add_edge(v, 1, snk, 0)
        vs.append(v)
    d3 = StrandDiagram(g3)
    for apply in (apply_inverse, _reference_apply_inverse):
        with pytest.raises(StaleRedexError):
            apply(d3, "II", sigma_vertices=tuple(vs))
    unsupported = [
        ("I", {"edges": (plain,)}),
        ("I", {"sigma_vertices": (x,)}),
        ("II", {"edge": plain}),
        ("II", {"sigma_vertex": x}),
        ("III", {"sigma_vertex": x}),
        ("I", {}),
    ]
    for rule, kwargs in unsupported:
        for apply in (apply_inverse, _reference_apply_inverse):
            with pytest.raises(ValueError) as info:
                apply(d, rule, **kwargs)
            assert info.type is ValueError


# -- the driver's redex set against a full rescan per step ----------------------
#
# `_reference_reduce_graph` is the library's driver as it stood before it
# kept its redex set across steps: every step rescans the whole graph with
# `_find`.  It is copied verbatim apart from the `_reference` prefix on its
# name and its docstring.


def _reference_reduce_graph(g, *, rng=None, trace=None):
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


def _element_with_carets(n, h, carets, rng):
    """A random element with exactly `carets` carets in each tree."""
    k = 1 + carets * (n - 1)
    tau = list(range(1, k + 1))
    rng.shuffle(tau)
    elems = sorted(h.elements)
    labels = tuple(rng.choice(elems) for _ in tau)
    return TreePairElement(n, h, random_tree(n, k, rng), random_tree(n, k, rng), tuple(tau), labels)


def _product_graph(factors):
    d = build_diagram(factors[0])
    for f in factors[1:]:
        d = concatenate(d, build_diagram(f))
    return d._g


def _reduced_closure_graph(g):
    """The unreduced graph `closed.reduced_closure` reduces: the closure of
    g's reduced tree pair."""
    graph = _tree_pair_graph(g.n, _reduce_triples(g.n, g.triples()))
    graph.glue([(graph.sinks[0], graph.sources[0])], 1)
    return graph


def _driver_inputs(n, h, rng):
    """Open products of 2-4 small factors and closures of one, then an open
    product of three 6-caret factors and the reduced closure of a 16-caret
    element."""
    for _ in range(12):
        yield _product_graph([_random_factor(n, h, rng) for _ in range(rng.randint(2, 4))])
        yield close(build_diagram(_random_factor(n, h, rng)))._g
    yield _product_graph([_element_with_carets(n, h, 6, rng) for _ in range(3)])
    yield _reduced_closure_graph(_element_with_carets(n, h, 16, rng))


def test_driver_matches_a_full_rescan_per_step():
    rules = set()
    for name, (n, h, _) in sorted(CLOSURE_GROUPS.items()):
        rng = random.Random(f"driver/{name}")
        for graph in _driver_inputs(n, h, rng):
            for seed in (None, rng.random(), rng.random()):
                g, ref = graph.copy(), graph.copy()
                pick = None if seed is None else random.Random(seed)
                pick_ref = None if seed is None else random.Random(seed)
                trace = _reduce_graph(g, rng=pick)
                assert trace == _reference_reduce_graph(ref, rng=pick_ref)
                assert (g.kind, g.label, g.edges) == (ref.kind, ref.label, ref.edges)
                assert g.free_loops == ref.free_loops
                assert g._touched is None
                rules |= {rule for rule, _ in trace}
            if graph.sources:
                d = reduce(StrandDiagram._trusted(graph))
            else:
                d = reduce_closed(ClosedDiagram(graph))
            assert d._g._touched is None
            assert d._g.copy()._touched is None
    assert rules == set(_PRIORITY)


def test_driver_rematches_a_bounded_number_of_vertices_per_step(monkeypatch):
    # The first scan visits every vertex once.  After that a step rematches
    # the tails of the edges it added, deleted or re-ended and the
    # in-neighbours of those that are sigma-vertices: a few per step on
    # average, O(n) at most.  A full rescan would visit |V| per step.
    calls = 0

    def counting(g, v, out):
        nonlocal calls
        calls += 1
        return _redexes_at(g, v, out)

    s3, s4 = Subgroup.symmetric(3), Subgroup.symmetric(4)
    closure = _reduced_closure_graph(_element_with_carets(3, s3, 256, random.Random("count/V3(S3)")))
    rng = random.Random("count/V4(S4)")
    product = _product_graph([_element_with_carets(4, s4, 8, rng) for _ in range(4)])
    monkeypatch.setattr(vnh.rewriting, "_redexes_at", counting)
    for g in (closure, product):
        calls = 0
        vertices = len(g.kind)
        steps = len(_reduce_graph(g))
        assert steps > 100
        assert calls <= vertices + (2 * g.n + 4) * steps
