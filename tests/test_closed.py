import functools
import itertools
import math
import random
import re
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vnh.closed
from vnh.closed import (
    ClosedDiagram,
    FreeLoop,
    _extract_sigma_cycles,
    _loop_class,
    add_coboundary,
    are_conjugate,
    close,
    closed_equal,
    closure_invariant,
    conjugacy_invariant,
    conjugating_equivalent,
    gauge_canonical,
    is_torsion,
    reduce_closed,
    reduced_closure,
    torsion_order,
)
from vnh.diagrams import (
    MERGE,
    SIGMA,
    SPLIT,
    DiagramError,
    _Graph,
    _join_below,
    _loop_token,
    _scan_ports,
    _tree_pair_graph,
    build_diagram,
    identity_diagram,
)
from vnh.elements import (
    SubgroupMismatch,
    TreePairElement,
    compose,
    element_order,
    expand_representative,
    identity_element,
    invert,
    random_element,
    reduce_element,
)
from vnh.perms import Perm, Subgroup
from vnh.trees import LEAF


def conj(h, f):
    return compose(compose(h, f), invert(h))


# (n, H, max_carets): the groups and sizes of the closed-layer properties.
CLOSURE_GROUPS = {
    "V2(Id)": (2, Subgroup.trivial(2), 3),
    "V2(Z2)": (2, Subgroup.symmetric(2), 3),
    "V3(S3)": (3, Subgroup.symmetric(3), 3),
    "V4(S4)": (4, Subgroup.symmetric(4), 2),
}


def global_swap():
    h = Subgroup.symmetric(2)
    return TreePairElement(2, h, LEAF, LEAF, (1,), (Perm((2, 1)),))


def caret_swap(h=None):
    h = h or Subgroup.symmetric(2)
    one = Perm.identity(2)
    return TreePairElement(2, h, (LEAF, LEAF), (LEAF, LEAF), (2, 1), (one, one))


def test_close_identity_gives_one_loop():
    cd = close(build_diagram(identity_element(2, Subgroup.trivial(2))))
    assert not cd.has_graph_part()
    assert cd.free_loops == (FreeLoop(1, Perm.identity(2)),)


def test_close_identity_p_strands():
    for p in (2, 3):
        cd = close(identity_diagram(2, p))
        assert cd.free_loops == tuple(FreeLoop(1, Perm.identity(2)) for _ in range(p))


def test_close_requires_square():
    h = Subgroup.trivial(2)
    g = identity_element(2, h)
    d = build_diagram(g)
    from vnh.diagrams import _Graph, SOURCE, SINK, SPLIT, StrandDiagram

    gr = _Graph(2)
    src = gr.new_vertex(SOURCE)
    s = gr.new_vertex(SPLIT)
    snk1, snk2 = gr.new_vertex(SINK), gr.new_vertex(SINK)
    gr.add_edge(src, 0, s, 0)
    gr.add_edge(s, 1, snk1, 0)
    gr.add_edge(s, 2, snk2, 0)
    with pytest.raises(DiagramError):
        close(StrandDiagram(gr))


def test_close_five_leaf_element_weight_one():
    from tests.test_diagrams import five_leaf_ternary_element

    cd = close(build_diagram(five_leaf_ternary_element()))
    # The single closure edge carries total winding 1 over every loop it
    # created; reduction keeps loop positivity.
    assert cd.has_graph_part()
    reduce_closed(cd)


def test_close_crossed_strands_p2():
    # A (2,2,2) diagram whose strands cross: closing chains the two closure
    # edges into one loop of winding 2.
    from vnh.diagrams import SINK, SOURCE, StrandDiagram, _Graph

    g = _Graph(2)
    s1, s2 = g.new_vertex(SOURCE), g.new_vertex(SOURCE)
    t1, t2 = g.new_vertex(SINK), g.new_vertex(SINK)
    g.add_edge(s1, 0, t2, 0)
    g.add_edge(s2, 0, t1, 0)
    cd = close(StrandDiagram(g))
    assert cd.free_loops == (FreeLoop(2, Perm.identity(2)),)


def test_caret_swap_closure_is_winding_two_loop():
    cd = reduced_closure(caret_swap(Subgroup.trivial(2)))
    assert not cd.has_graph_part()
    assert cd.free_loops == (FreeLoop(2, Perm.identity(2)),)


def test_global_swap_closure_is_single_sigma_loop():
    cd = reduced_closure(global_swap())
    assert not cd.has_graph_part()
    assert cd.free_loops == (FreeLoop(1, Perm((2, 1))),)


def test_closed_equal_basics():
    one = Perm.identity(2)
    s = Perm((2, 1))
    a = ClosedDiagram.from_loops(2, [(1, s)])
    b = ClosedDiagram.from_loops(2, [(2, s)])
    assert closed_equal(a, a)
    assert not closed_equal(a, b)
    assert not closed_equal(a, ClosedDiagram.from_loops(2, [(1, one)]))


def test_closed_equal_coboundary_invariance(rng, group):
    n, h = group
    for _ in range(25):
        g = random_element(n, h, rng)
        cd = reduce_closed(close(build_diagram(g)))
        potential = {v: rng.randrange(-3, 4) for v in cd._g.kind}
        shifted = add_coboundary(cd, potential)
        assert closed_equal(cd, shifted)
        assert conjugating_equivalent(cd, shifted, h)


def test_conjugating_equivalent_two_factor_loop():
    # A free loop carrying s1 then s2 reduces to either composite order;
    # the two reductions are conjugating transformations of each other.
    h = Subgroup.symmetric(3)
    s1 = Perm((2, 3, 1))
    s2 = Perm((2, 1, 3))
    a = ClosedDiagram.from_loops(3, [(1, s2 * s1)])
    b = ClosedDiagram.from_loops(3, [(1, s1 * s2)])
    assert not closed_equal(a, b)
    assert conjugating_equivalent(a, b, h)


def test_conjugating_equivalent_id_vs_nonid():
    h = Subgroup.symmetric(2)
    s = Perm((2, 1))
    one = Perm.identity(2)
    a = ClosedDiagram.from_loops(2, [(1, one)])
    b = ClosedDiagram.from_loops(2, [(1, s)])
    assert not conjugating_equivalent(a, b, h)


def test_conjugate_in_symn_but_not_in_h():
    # Labels conjugate in Sym(4) but not inside the cyclic subgroup
    # generated by a 3-cycle with a fixed point: the fixed point keeps the
    # label alive through every loop refinement, so the H-conjugacy
    # distinction is decisive.
    c = Perm((2, 3, 1, 4))
    h = Subgroup(4, [c])
    c2 = c * c
    a = ClosedDiagram.from_loops(4, [(1, c)])
    b = ClosedDiagram.from_loops(4, [(1, c2)])
    assert Subgroup.symmetric(4).are_conjugate(c, c2)
    assert not h.are_conjugate(c, c2)
    assert not conjugating_equivalent(a, b, h)
    assert conjugating_equivalent(a, b, Subgroup.symmetric(4))


def test_full_orbit_rotations_are_identified():
    # Both 3-cycles in the cyclic subgroup of Sym(3) refine to one trivial
    # period-3 loop, so the loops are equivalent even though the labels are
    # not conjugate in H; the conjugator (caret pair, tau=(1 3 2)-images,
    # labels Id, c^2, c) exists in V_3(C_3).
    h = Subgroup.cyclic(3)
    c = Perm((2, 3, 1))
    a = ClosedDiagram.from_loops(3, [(1, c)])
    b = ClosedDiagram.from_loops(3, [(1, c * c)])
    assert conjugating_equivalent(a, b, h)
    one = Perm.identity(3)
    caret = (LEAF, LEAF, LEAF)
    ac = TreePairElement(3, h, LEAF, LEAF, (1,), (c,))
    ac2 = TreePairElement(3, h, LEAF, LEAF, (1,), (c * c,))
    w = TreePairElement(3, h, caret, caret, (1, 3, 2), (one, c * c, c))
    from vnh.elements import equal_elements

    assert equal_elements(conj(w, ac), ac2)
    assert are_conjugate(ac, ac2)


def test_global_swap_conjugate_to_caret_swap_in_v2z2():
    # Witness: h = (caret, caret, id, [Id, s]) conjugates the letterwise swap
    # to the caret swap, so the single-sigma loop and the winding-2 loop must
    # be identified by the record moves.
    hgrp = Subgroup.symmetric(2)
    a = global_swap()
    b = caret_swap(hgrp)
    s = Perm((2, 1))
    one = Perm.identity(2)
    w = TreePairElement(2, hgrp, (LEAF, LEAF), (LEAF, LEAF), (1, 2), (one, s))
    from vnh.elements import equal_elements

    assert equal_elements(conj(w, a), b)
    assert are_conjugate(a, b)
    assert are_conjugate(a, conj(w, a))


def test_caret_swap_not_conjugate_to_global_swap_lookalike_in_v2id():
    # In V2(Id) there is no sigma-labelled element at all; the winding-2 loop
    # stays distinct from the identity loop.
    h = Subgroup.trivial(2)
    assert not are_conjugate(caret_swap(h), identity_element(2, h))


def test_two_label_loops_merge_into_one():
    # f = labels [s,s] on a caret (two single-sigma loops) is conjugate to
    # the global swap (one single-sigma loop): found by refining then
    # consolidating records.
    hgrp = Subgroup.symmetric(2)
    s = Perm((2, 1))
    f = TreePairElement(2, hgrp, (LEAF, LEAF), (LEAF, LEAF), (1, 2), (s, s))
    assert are_conjugate(f, global_swap())


def test_are_conjugate_conjugation_invariance(rng, group):
    n, h = group
    for _ in range(40):
        f = random_element(n, h, rng)
        w = random_element(n, h, rng)
        assert are_conjugate(f, conj(w, f))


def test_are_conjugate_order_invariant(rng, group):
    n, h = group
    for _ in range(15):
        f = random_element(n, h, rng)
        g = random_element(n, h, rng)
        if are_conjugate(f, g):
            assert element_order(f, 60) == element_order(g, 60)


def test_are_conjugate_distinguishes_orders():
    h = Subgroup.symmetric(3)
    one = Perm.identity(3)
    order2 = TreePairElement(3, h, LEAF, LEAF, (1,), (Perm((2, 1, 3)),))
    order3 = TreePairElement(3, h, LEAF, LEAF, (1,), (Perm((2, 3, 1)),))
    assert element_order(order2, 10) == 2
    assert element_order(order3, 10) == 3
    assert not are_conjugate(order2, order3)


def test_are_conjugate_is_equivalence(rng, group):
    n, h = group
    elems = [random_element(n, h, rng) for _ in range(8)]
    for f in elems:
        assert are_conjugate(f, f)
    for f in elems:
        for g in elems:
            assert are_conjugate(f, g) == are_conjugate(g, f)
    for f in elems:
        for g in elems:
            for k in elems:
                if are_conjugate(f, g) and are_conjugate(g, k):
                    assert are_conjugate(f, k)


def test_subgroup_mismatch():
    f = identity_element(2, Subgroup.trivial(2))
    g = identity_element(2, Subgroup.symmetric(2))
    with pytest.raises(SubgroupMismatch):
        are_conjugate(f, g)


def test_is_torsion_basics(rng):
    h = Subgroup.trivial(2)
    assert is_torsion(identity_element(2, h))
    assert is_torsion(caret_swap(h))
    # The basic non-torsion element of V2: one caret against the right comb.
    one = Perm.identity(2)
    dom = ((LEAF, LEAF), LEAF)
    ran = (LEAF, (LEAF, LEAF))
    x0 = TreePairElement(2, h, dom, ran, (1, 2, 3), (one, one, one))
    assert not is_torsion(x0)
    assert element_order(x0, 50) is None


def test_torsion_order_matches_element_order(rng, group):
    n, h = group
    checked = 0
    for _ in range(60):
        f = random_element(n, h, rng)
        t = torsion_order(f)
        if t is None:
            assert element_order(f, 24) is None or element_order(f, 24) > 24
        else:
            assert element_order(f, max(t, 1) + 1) == t
            checked += 1
    assert checked > 3


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
@settings(max_examples=500, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_reduce_closed_idempotent(name, rng):
    n, h, max_carets = CLOSURE_GROUPS[name]
    cd = close(build_diagram(random_element(n, h, rng, max_carets=max_carets)))
    cd = reduce_closed(cd, rng=random.Random(rng.random()))
    assert closed_equal(reduce_closed(cd), cd)
    assert closed_equal(reduce_closed(cd, rng=random.Random(rng.random())), cd)


def test_reduce_closed_unique_up_to_gauge_on_schedule_counterexample():
    # Different schedules reduce this closure to different diagrams (their
    # canonical strings differ); gauge class and loop records agree.
    h = Subgroup.symmetric(3)
    tree = (LEAF, LEAF, (LEAF, LEAF, LEAF))
    labels = tuple(Perm(x) for x in ((2, 1, 3), (1, 2, 3), (3, 1, 2), (3, 2, 1), (1, 2, 3)))
    g = TreePairElement(3, h, tree, tree, (5, 4, 3, 1, 2), labels)
    cd = close(build_diagram(reduce_element(g)))
    expected = closure_invariant(reduce_closed(cd), h)
    for k in range(6):
        assert closure_invariant(reduce_closed(cd, rng=random.Random(k)), h) == expected


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
@settings(max_examples=500, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_reduce_closed_unique_up_to_gauge_under_random_schedules(name, rng):
    # The invariant depends neither on the rewrite schedule nor on the
    # representative: re-encodings by `expand_representative` agree.
    n, h, max_carets = CLOSURE_GROUPS[name]
    encodings = [random_element(n, h, rng, max_carets=max_carets)]
    for _ in range(2):
        g = encodings[-1]
        encodings.append(expand_representative(g, rng.randrange(g.k) + 1))
    expected = closure_invariant(reduce_closed(close(build_diagram(encodings[0]))), h)
    for g in encodings:
        reduced = reduce_closed(close(build_diagram(g)), rng=random.Random(rng.random()))
        assert closure_invariant(reduced, h) == expected


def _traced_reduced_closure(monkeypatch, g):
    """reduced_closure(g) together with the rewrite trace of its closed
    reduction, the body it shares with `reduce_closed`."""
    trace = []
    reduce_graph = vnh.closed._reduce_closed_graph

    def traced(graph, **kwargs):
        return reduce_graph(graph, trace=trace, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(vnh.closed, "_reduce_closed_graph", traced)
        cd = reduced_closure(g)
    return cd, trace


def _assert_order_preserving_renaming(old_trace, new_trace):
    assert len(old_trace) == len(new_trace)
    ren = {}
    for (old_rule, old_anchors), (new_rule, new_anchors) in zip(old_trace, new_trace):
        assert old_rule == new_rule
        assert len(old_anchors) == len(new_anchors)
        for x, y in zip(old_anchors, new_anchors):
            assert ren.setdefault(x, y) == y
    pairs = sorted(ren.items())
    assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))


@pytest.mark.parametrize(
    "n,h,max_carets",
    [
        (2, Subgroup.trivial(2), 4),
        (2, Subgroup.symmetric(2), 4),
        (3, Subgroup.symmetric(3), 4),
        (4, Subgroup.symmetric(4), 3),
    ],
    ids=["V2(Id)", "V2(Z2)", "V3(S3)", "V4(S4)"],
)
def test_reduced_closure_matches_close_of_reduced_diagram(monkeypatch, n, h, max_carets):
    # reduced_closure builds the closure straight from the reduced triples;
    # it must reduce like the closure of the reduced element's diagram: the
    # same rule sequence on vertex ids renamed in order, the same result.
    # About a third of the elements have equal trees, so many are torsion.
    rng = random.Random(9000 + n * 10 + h.order)
    elems = sorted(h.elements)
    for _ in range(500):
        g = random_element(n, h, rng, max_carets=max_carets)
        if rng.random() < 0.3:
            tau = list(range(1, g.k + 1))
            rng.shuffle(tau)
            labels = tuple(rng.choice(elems) for _ in tau)
            g = TreePairElement(n, h, g.domain_tree, g.domain_tree, tuple(tau), labels)
        old_trace = []
        old = reduce_closed(close(build_diagram(reduce_element(g))), trace=old_trace)
        new, new_trace = _traced_reduced_closure(monkeypatch, g)
        assert closure_invariant(new, h) == closure_invariant(old, h)
        assert new == old
        _assert_order_preserving_renaming(old_trace, new_trace)


def test_closed_tree_pair_graph_of_one_leaf_pairs():
    n = 3
    one = Perm.identity(n)
    g = _tree_pair_graph(n, {(): ((), one)}, closed=True)
    assert not g.kind and not g.edges
    assert g.free_loops == [(1, one)]
    rot = Perm((2, 3, 1))
    g = _tree_pair_graph(n, {(): ((), rot)}, closed=True)
    assert list(g.kind.values()) == [SIGMA] and g.label == {0: rot}
    assert list(g.edges.values()) == [[0, 1, 0, 0, 1]]
    h = Subgroup.symmetric(n)
    for lab in (one, rot):
        elem = TreePairElement(n, h, LEAF, LEAF, (1,), (lab,))
        cd = reduced_closure(elem)
        assert not cd.has_graph_part()
        assert cd.free_loops == (FreeLoop(1, lab),)
        assert cd == reduce_closed(close(build_diagram(elem)))


def test_loop_class_needs_no_search_bound_on_v4_s4():
    # A two-way BFS over these records passes 6,000 states; with 60,000 it
    # reaches the second list.
    h = Subgroup.symmetric(4)
    transposition, cycle = Perm((1, 2, 4, 3)), Perm((2, 3, 4, 1))
    a = [(1, transposition), (2, cycle), (4, Perm.identity(4))]
    b = [(1, transposition), (1, cycle), (2, cycle)]
    assert _loop_class(a, h) == _loop_class(b, h)


def test_loop_class_finds_refinements_past_a_winding_cap():
    # 2 (2, t) and (2, t) + (2, u) over S4, t a transposition and u a double
    # transposition, have the common forward refinement 3 (2, t) + 4 (4, 1)
    # of total winding 22; a BFS whose states may total at most 20 keeps
    # them apart.
    h = Subgroup.symmetric(4)
    t, u, one = Perm((1, 2, 4, 3)), Perm((2, 1, 4, 3)), Perm.identity(4)

    def refine(records, i):
        w, label = records[i]
        return records[:i] + records[i + 1 :] + [(w * L, c) for L, c in h.refinement(label)]

    a = [(2, t), (2, t)]
    b = [(2, t), (2, u)]
    common = sorted(refine(refine(a, 0), 3))
    assert common == sorted(refine(refine(refine(b, 1), 0), 2))
    assert common == [(2, t)] * 3 + [(4, one)] * 4
    assert _loop_class(a, h) == _loop_class(b, h) == _loop_class(common, h)


def test_loop_class_rejects_labels_outside_h():
    with pytest.raises(ValueError):
        _loop_class([(1, Perm((2, 1)))], Subgroup.trivial(2))


_BFS_CACHE = {}


def _bfs_normal_form(records, subgroup, max_states=6000):
    """(normal form, cut): the canonical minimal multiset reachable via loop
    refinement (both ways) and per-loop H-conjugation, by a deterministic
    BFS whose normal form is None at its state bound, and whether its
    total-winding cap pruned a move.  A cut search may miss part of the
    class, so two cut searches can give different normal forms for
    equivalent records; equal normal forms always mean equivalent records.
    A test oracle for `_loop_class`."""
    rep = subgroup.class_rep
    start = tuple(sorted((w, rep(label)) for w, label in records))
    if not start:
        return start, False
    if (subgroup, start) in _BFS_CACHE:
        return _BFS_CACHE[(subgroup, start)]
    n = subgroup.n
    cap_total = max(12, n * sum(w for w, _ in start) + 4)
    tables = {sig: subgroup.refinement(sig) for sig in {rep(p) for p in subgroup.elements}}
    cut = False

    def moves(state):
        nonlocal cut
        out = []
        done = set()
        total = sum(x[0] for x in state)
        for idx, (w, label) in enumerate(state):
            if (w, label) in done:
                continue
            done.add((w, label))
            children = tuple((w * L, cl) for L, cl in tables[label])
            if total - w + sum(x[0] for x in children) <= cap_total:
                out.append(tuple(sorted(state[:idx] + state[idx + 1 :] + children)))
            else:
                cut = True
        max_w = max(x[0] for x in state)
        pool_count = {}
        for item in state:
            pool_count[item] = pool_count.get(item, 0) + 1
        for sig, children in tables.items():
            for w0 in range(1, max_w + 1):
                family = {}
                for L, cl in children:
                    item = (w0 * L, cl)
                    family[item] = family.get(item, 0) + 1
                if all(pool_count.get(it, 0) >= c for it, c in family.items()):
                    pool = list(state)
                    for it, c in family.items():
                        for _ in range(c):
                            pool.remove(it)
                    pool.append((w0, sig))
                    out.append(tuple(sorted(pool)))
        return out

    def key(state):
        return (sum(x[0] for x in state), len(state), state)

    best = start
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if len(seen) >= max_states:
            best = None
            break
        for nxt in moves(state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if key(nxt) < key(best):
                    best = nxt
    _BFS_CACHE[(subgroup, start)] = best, cut
    return best, cut


def _periods(records):
    """Least periods of the points of the return maps the records describe:
    (w, s) has points of least period w * lcm(sizes) for each nonempty set of
    orbits of s.  A conjugacy invariant, kept by refinement and relabelling,
    so records with different period sets are not equivalent."""
    out = set()
    for w, s in records:
        sizes = [len(o) for o in s.orbits()]
        for k in range(1, len(sizes) + 1):
            out.update(w * math.lcm(*c) for c in itertools.combinations(sizes, k))
    return out


@functools.lru_cache(maxsize=None)
def _additive_invariants(subgroup, m):
    """Every map f from the H-classes to Z/m with f(s) = sum of f(s^|O|)
    over the orbits O of s: then sum f(label) over the records is kept by
    relabelling and refinement, so records it tells apart are not
    equivalent.  Found by trying every map."""
    reps = sorted({subgroup.class_rep(p) for p in subgroup.elements})
    found = []
    for values in itertools.product(range(m), repeat=len(reps)):
        f = dict(zip(reps, values))
        if all((f[s] - sum(f[c] for _, c in subgroup.refinement(s))) % m == 0 for s in reps):
            found.append(f)
    return found


def _separated(a, b, subgroup):
    """True when a sound invariant tells the records a and b apart: their
    period sets, or an additive invariant mod m for m up to 6."""
    if _periods(a) != _periods(b):
        return True
    rep = subgroup.class_rep
    return any(
        sum(f[rep(s)] for _, s in a) % m != sum(f[rep(s)] for _, s in b) % m
        for m in range(2, 7)
        for f in _additive_invariants(subgroup, m)
    )


LOOP_SUBGROUPS = {
    "trivial(2)": Subgroup.trivial(2),
    "symmetric(2)": Subgroup.symmetric(2),
    "symmetric(3)": Subgroup.symmetric(3),
    "cyclic(3)": Subgroup.cyclic(3),
    "symmetric(4)": Subgroup.symmetric(4),
}


def _records(h):
    loop = st.tuples(st.integers(1, 3), st.sampled_from(sorted(h.elements)))
    return st.lists(loop, min_size=1, max_size=3)


@pytest.mark.parametrize("name", sorted(LOOP_SUBGROUPS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_loop_class_matches_bfs_normal_form(name, data):
    h = LOOP_SUBGROUPS[name]
    a = data.draw(_records(h), label="a")
    b = data.draw(_records(h), label="b")
    (nf_a, cut_a), (nf_b, cut_b) = _bfs_normal_form(a, h), _bfs_normal_form(b, h)
    assume(nf_a is not None and nf_b is not None)
    if nf_a == nf_b:
        assert _loop_class(a, h) == _loop_class(b, h)
    elif not (cut_a or cut_b):
        assert _loop_class(a, h) != _loop_class(b, h)
    # The cap cuts nearly every search, so separation is also checked on
    # invariants that are sound without one.
    if _separated(a, b, h):
        assert _loop_class(a, h) != _loop_class(b, h)
    assert _loop_class(nf_a, h) == _loop_class(a, h)
    # Refining one record through the subgroup's table keeps the class.
    i = data.draw(st.integers(0, len(a) - 1), label="refined record")
    w, label = a[i]
    refined = a[:i] + a[i + 1 :] + [(w * L, c) for L, c in h.refinement(label)]
    assert _loop_class(refined, h) == _loop_class(a, h)


def test_loop_class_equates_records_whose_common_refinement_exceeds_the_bfs_cap():
    # Their common forward refinement 3*(2, (1,2,4,3)) + 4*(4, id) has total
    # winding 22, above the reference BFS's cap of 20.
    h = Subgroup.symmetric(4)
    s, t = Perm((1, 2, 4, 3)), Perm((2, 1, 4, 3))
    a = [(2, s), (2, s)]
    b = [(2, s), (2, t)]
    assert _loop_class(a, h) == _loop_class(b, h)
    (nf_a, cut_a), (nf_b, cut_b) = _bfs_normal_form(a, h), _bfs_normal_form(b, h)
    assert nf_a != nf_b and cut_a and cut_b


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
@settings(max_examples=500, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_conjugacy_invariant_is_stable_under_conjugation(name, rng):
    n, h, max_carets = CLOSURE_GROUPS[name]
    f = random_element(n, h, rng, max_carets=max_carets)
    w = random_element(n, h, rng, max_carets=max_carets)
    assert conjugacy_invariant(f) == conjugacy_invariant(conj(w, f))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sigma_cycle_label_is_least_rotation_composite(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    labels = [p for p in sorted(Subgroup.symmetric(n).elements) if not p.is_identity()]
    seq = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6))
    weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(seq), max_size=len(seq)))
    g = _Graph(n)
    cycle = [g.new_vertex(SIGMA, lab) for lab in seq]
    for i, v in enumerate(cycle):
        g.add_edge(v, 1, cycle[(i + 1) % len(cycle)], 0, weights[i])
    _extract_sigma_cycles(g)
    # The composite read from rotation r applies seq[r] first, each with a
    # full product.
    composites = []
    for r in range(len(seq)):
        comp = Perm.identity(n)
        for lab in seq[r:] + seq[:r]:
            comp = lab * comp
        composites.append(comp)
    assert g.free_loops == [(sum(weights), min(composites))]
    assert not g.kind and not g.edges


# -- gauge canonical form ------------------------------------------------------
#
# The gauge serializer and canonical form that `gauge_canonical` replaced,
# kept verbatim as the reference: every (start vertex, root twist) is
# serialized in full and the least string kept.


def _reference_skeleton(g):
    """Smooth sigma-vertices into edge labels on the split/merge skeleton."""
    verts = {v: k for v, k in g.kind.items() if k in (SPLIT, MERGE)}
    out_at, in_at = {}, {}
    for (v, p), eid in g.out_at.items():
        if v not in verts:
            continue
        lab = Perm.identity(g.n)
        w = 0
        cur = eid
        while True:
            _, _, head, hport, wt = g.edges[cur]
            w += wt
            if g.kind[head] == SIGMA:
                lab = g.label[head] * lab
                cur = g.out_at[(head, 1)]
            else:
                edge = (v, p, head, hport, lab, w)
                out_at[(v, p)] = edge
                in_at[(head, hport)] = edge
                break
    return verts, out_at, in_at


def _reference_gauge_serialize(n, verts, out_at, in_at, comp, start, h0):
    gauge = {start: h0}
    phi = {start: 0}
    num = {start: 0}
    order = [start]
    tokens = []
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        gv_inv = gauge[v].inverse()
        tokens.append(verts[v][0])
        for d, p in _scan_ports(verts[v], n):
            pre = p if p == 0 else gv_inv(p)
            tail, tport, head, hport, lab, w = (
                out_at[(v, pre)] if d == "o" else in_at[(v, pre)]
            )
            peer = head if d == "o" else tail
            if peer not in gauge:
                if d == "o":
                    gauge[peer] = gauge[v] * lab.inverse()
                    phi[peer] = phi[v] + w
                else:
                    gauge[peer] = gauge[v] * lab
                    phi[peer] = phi[v] - w
                num[peer] = len(order)
                order.append(peer)
            gl = gauge[head] * lab * gauge[tail].inverse()
            nw = w + phi[tail] - phi[head]
            pt = tport if tport == 0 else gauge[tail](tport)
            ph = hport if hport == 0 else gauge[head](hport)
            tokens.append(f"{d}{p}>{num[peer]}:{pt}.{ph}:{gl.images}w{nw}")
    return ";".join(tokens)


def _reference_gauge_canonical(cd: ClosedDiagram, subgroup: Subgroup) -> str:
    """Canonical string of the graph part modulo vertex twists over H,
    coboundaries, and port-graph isomorphism: per component the minimum
    gauge-fixed BFS serialization over every (start vertex, root twist)."""
    g = cd._g
    verts, out_at, in_at = _reference_skeleton(g)
    if not verts:
        return ""
    adj = {v: set() for v in verts}
    for (v, _p), (tail, _tp, head, _hp, _l, _w) in out_at.items():
        adj[tail].add(head)
        adj[head].add(tail)
    comps, left = [], set(verts)
    while left:
        v0 = min(left)
        comp, stack = {v0}, [v0]
        while stack:
            u = stack.pop()
            for x in adj[u]:
                if x not in comp:
                    comp.add(x)
                    stack.append(x)
        left -= comp
        comps.append(sorted(comp))
    elems = sorted(subgroup.elements)
    comp_strs = []
    for comp in comps:
        best = min(
            _reference_gauge_serialize(g.n, verts, out_at, in_at, comp, start, h0)
            for start in comp
            for h0 in elems
        )
        comp_strs.append(best)
    return "#".join(sorted(comp_strs))


def _reference_closed_canonical(g):
    """`_Graph.closed_canonical` before the prefix bound: every start
    serialized in full, the least string kept (the first on a tie)."""
    results = []
    for comp in g.components():
        best = None
        for start in sorted(comp):
            s, order = g.canon_from([start], with_weights=True)
            if best is None or s < best[0]:
                best = (s, order)
        results.append(best)
    results.sort(key=lambda t: t[0])
    strings = [t[0] for t in results]
    order = [v for t in results for v in t[1]]
    loops = ",".join(sorted(_loop_token(r) for r in g.free_loops))
    return "#".join(strings) + "||" + loops, order


def _power(g, k):
    p = g
    for _ in range(k - 1):
        p = compose(p, g)
    return p


def _with_windings(cd, rng):
    """cd with 0, 1, 10 or 12 added to each edge weight: the same graph with
    irregular windings, still positive on every loop, whose normalized
    weights run to two digits and go negative."""
    g = cd._g.copy()
    for rec in g.edges.values():
        rec[4] += rng.choice((0, 1, 10, 12))
    return ClosedDiagram(g)


# (n, H, max carets) of the random closures checked against the reference.
GAUGE_GROUPS = {
    "V2(Id)": (2, Subgroup.trivial(2), 6),
    "V2(Z2)": (2, Subgroup.symmetric(2), 5),
    "V3(S3)": (3, Subgroup.symmetric(3), 4),
    "V4(S4)": (4, Subgroup.symmetric(4), 3),
}


@functools.lru_cache(maxsize=None)
def _gauge_corpus():
    """(closure, H) pairs: 300 random reduced closures per bench group; the
    heavy strata, 8 closures each of V4(S4) with exactly 3, 4 and 5 carets
    and V3(S3) with 6; and 12 high powers per group with a graph part, each
    also with irregular windings (`_with_windings`)."""
    rng = random.Random(20261019)
    corpus = []
    for n, h, max_carets in GAUGE_GROUPS.values():
        corpus += [(reduced_closure(random_element(n, h, rng, max_carets)), h) for _ in range(300)]
    for n, h, carets in [(4, GAUGE_GROUPS["V4(S4)"][1], c) for c in (3, 4, 5)] + [
        (3, GAUGE_GROUPS["V3(S3)"][1], 6)
    ]:
        found = 0
        while found < 8:
            g = random_element(n, h, rng, carets)
            if g.k == 1 + carets * (n - 1):
                corpus.append((reduced_closure(g), h))
                found += 1
    for n, h, _ in GAUGE_GROUPS.values():
        found = 0
        while found < 12:
            g = random_element(n, h, rng, 2)
            cd = reduced_closure(_power(g, rng.randrange(3, 13) if n == 2 else 3))
            if cd.has_graph_part():
                corpus += [(cd, h), (_with_windings(cd, rng), h)]
                found += 1
    return corpus


def test_gauge_canonical_matches_reference(monkeypatch):
    serialize = _reference_gauge_serialize
    candidates = {}

    def recording(n, verts, out_at, in_at, comp, start, h0):
        s = serialize(n, verts, out_at, in_at, comp, start, h0)
        candidates.setdefault(tuple(comp), []).append(s)
        return s

    monkeypatch.setitem(globals(), "_reference_gauge_serialize", recording)
    corpus = _gauge_corpus()
    assert len(corpus) >= 1000 + 32
    strings = []
    token_order_differs = 0
    for cd, h in corpus:
        candidates.clear()
        expected = _reference_gauge_canonical(cd, h)
        assert gauge_canonical(cd, h) == expected
        strings.append(expected)
        # A token-wise minimum would have picked another string here.
        token_order_differs += any(
            min(c) != min(c, key=lambda s: s.split(";")) for c in candidates.values()
        )
    assert any("#" in s for s in strings)  # multi-component graph parts
    assert any(re.search(r"w-?\d\d", s) for s in strings)
    assert any("w-" in s for s in strings)
    assert token_order_differs > 0


def test_closed_canonical_matches_reference():
    for cd, _h in _gauge_corpus():
        assert cd._g.closed_canonical() == _reference_closed_canonical(cd._g)


def test_join_below_orders_joined_strings_not_tokens():
    # "w1" is a prefix of "w12", so token by token ["w1", "x"] < ["w12"];
    # joined, ";" sorts after "2", so "w12" < "w1;x".
    assert ["w1", "x"] < ["w12"]
    assert "w12" < "w1;x"
    assert _join_below(iter(["w12"]), "w1;x") == "w12"
    assert _join_below(iter(["w1", "x"]), "w12") is None
    assert _join_below(iter(["w1", "x"]), None) == "w1;x"
    # Equal strings are not below; a proper prefix is.
    assert _join_below(iter(["a", "b"]), "a;b") is None
    assert _join_below(iter(["a"]), "a;b") == "a"
    assert _join_below(iter(["a", "b", "c"]), "a;b") is None


def test_join_below_stops_at_the_first_larger_piece():
    def tokens(first):
        yield "m"
        yield first
        raise AssertionError("drew a token after the join passed the bound")

    assert _join_below(tokens("i1>2"), "m;i1>1;o0>0") is None
    assert _join_below(tokens("i1>1;o0>0x"), "m;i1>1;o0>0") is None


def _twist(cd, twists):
    """cd with each split or merge v in `twists` twisted by a = twists[v]:
    a inserted on every in-edge and a^-1 on every out-edge of v, as new
    sigma-vertices, and the ports >= 1 of v permuted by a."""
    g = cd._g.copy()
    for v, a in twists.items():
        if a.is_identity():
            continue
        eids = {eid for (u, _p), eid in g.out_at.items() if u == v}
        eids |= {eid for (u, _p), eid in g.in_at.items() if u == v}
        records = [list(g.edges[eid]) for eid in sorted(eids)]
        for eid in eids:
            g.del_edge(eid)
        for tail, tport, head, hport, w in records:
            if tail == v:
                sigma = g.new_vertex(SIGMA, a.inverse())
                g.add_edge(v, a(tport) if tport else 0, sigma, 0, 0)
                tail, tport = sigma, 1
            if head == v:
                sigma = g.new_vertex(SIGMA, a)
                g.add_edge(sigma, 1, v, a(hport) if hport else 0, 0)
                head, hport = sigma, 0
            g.add_edge(tail, tport, head, hport, w)
    return ClosedDiagram(g)


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
@settings(max_examples=500, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_gauge_canonical_is_invariant_under_twists_and_coboundary(name, rng):
    n, h, max_carets = CLOSURE_GROUPS[name]
    cd = reduced_closure(random_element(n, h, rng, max_carets=max_carets))
    elems = sorted(h.elements)
    skeleton = [v for v, kind in cd._g.kind.items() if kind in (SPLIT, MERGE)]
    twists = {v: rng.choice(elems) for v in skeleton if rng.random() < 0.6}
    twisted = _twist(cd, twists)
    potential = {v: rng.randint(-3, 3) for v in twisted._g.kind}
    moved = add_coboundary(twisted, potential)
    assert gauge_canonical(moved, h) == gauge_canonical(cd, h)
    assert closure_invariant(moved, h) == closure_invariant(cd, h)
