import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    is_torsion,
    reduce_closed,
    reduced_closure,
    torsion_order,
)
from vnh.diagrams import (
    SIGMA,
    DiagramError,
    _Graph,
    build_diagram,
    identity_diagram,
)
from vnh.elements import (
    SubgroupMismatch,
    TreePairElement,
    compose,
    element_order,
    identity_element,
    invert,
    random_element,
    reduce_element,
)
from vnh.perms import Perm, Subgroup
from vnh.trees import LEAF


def conj(h, f):
    return compose(compose(h, f), invert(h))


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
    assert conjugating_equivalent(a, b, h, label_mode="exact") is False


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


def test_reduce_closed_idempotent(rng, group):
    n, h = group
    for _ in range(10):
        cd = reduce_closed(close(build_diagram(random_element(n, h, rng))))
        assert closed_equal(reduce_closed(cd), cd)


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


def test_reduce_closed_unique_up_to_gauge_under_random_schedules(rng, group):
    n, h = group
    for _ in range(10):
        cd = close(build_diagram(random_element(n, h, rng)))
        expected = closure_invariant(reduce_closed(cd), h)
        for _ in range(3):
            reduced = reduce_closed(cd, rng=random.Random(rng.random()))
            assert closure_invariant(reduced, h) == expected


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
    """Canonical minimal multiset reachable via loop refinement (both ways)
    and per-loop H-conjugation, by a deterministic BFS that returns None at
    its state bound.  A test oracle for `_loop_class`."""
    rep = subgroup.class_rep
    start = tuple(sorted((w, rep(label)) for w, label in records))
    if not start:
        return start
    if (subgroup, start) in _BFS_CACHE:
        return _BFS_CACHE[(subgroup, start)]
    n = subgroup.n
    cap_total = max(12, n * sum(w for w, _ in start) + 4)
    tables = {sig: subgroup.refinement(sig) for sig in {rep(p) for p in subgroup.elements}}

    def moves(state):
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
    _BFS_CACHE[(subgroup, start)] = best
    return best


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
    nf_a, nf_b = _bfs_normal_form(a, h), _bfs_normal_form(b, h)
    assume(nf_a is not None and nf_b is not None)
    assert (_loop_class(a, h) == _loop_class(b, h)) == (nf_a == nf_b)
    assert _loop_class(nf_a, h) == _loop_class(a, h)
    # Refining one record through the subgroup's table keeps the class.
    i = data.draw(st.integers(0, len(a) - 1), label="refined record")
    w, label = a[i]
    refined = a[:i] + a[i + 1 :] + [(w * L, c) for L, c in h.refinement(label)]
    assert _loop_class(refined, h) == _loop_class(a, h)


def test_conjugacy_invariant_is_stable_under_conjugation(rng, group):
    n, h = group
    for _ in range(10):
        f = random_element(n, h, rng)
        w = random_element(n, h, rng)
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
