import random

import pytest

from vnh import closed as closed_module
from vnh.closed import (
    ClosedDiagram,
    FreeLoop,
    LoopSearchBoundError,
    _normalize_loops,
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
    DiagramError,
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


def test_normalize_loops_raises_at_its_state_bound(monkeypatch):
    monkeypatch.setattr(closed_module, "_NORMALIZE_CACHE", {})
    h = Subgroup.trivial(2)
    records = [(1, Perm.identity(2))]
    with pytest.raises(LoopSearchBoundError):
        _normalize_loops(records, h, max_states=2)
    assert not issubclass(LoopSearchBoundError, ValueError)
    assert _normalize_loops(records, h) == ((1, Perm.identity(2)),)


def test_conjugacy_invariant_is_stable_under_conjugation(rng, group):
    n, h = group
    for _ in range(10):
        f = random_element(n, h, rng)
        w = random_element(n, h, rng)
        assert conjugacy_invariant(f) == conjugacy_invariant(conj(w, f))
