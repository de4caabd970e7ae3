import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnh.census
from vnh.census import (
    CongruenceInstance,
    _order_exactly,
    _order_p_candidates,
    _prober,
    _torsion_loop_records,
    class_census_experiment,
    count_congruence_solutions,
    count_order_p_classes,
    nonisomorphism_witness,
    oracle_conjugate,
)
from vnh.closed import (
    _closure_of_triples,
    _loop_class,
    are_conjugate,
    closure_invariant,
    reduced_closure,
)
from vnh.elements import (
    TreePairElement,
    _candidates,
    _collapse_once,
    _reduce_triples,
    compose,
    element_from_triples,
    element_order,
    equal_elements,
    expand_representative,
    identity_element,
    invert,
    is_reduced,
    random_element,
    reduce_element,
    reduced_elements,
)
from vnh.io import element_to_json
from vnh.perms import Perm, Subgroup
from vnh.trees import LEAF, parse_tree, random_tree


def brute_force_classes(inst, bound):
    m = inst.n - 1
    classes = set()
    for tup in itertools.product(range(bound + 1), repeat=len(inst.sizes)):
        total = sum(k * s for k, s in zip(tup, inst.sizes))
        if total % m != 1 % m or total == 0:
            continue
        classes.add(tuple((k % m, k == 0) for k in tup))
    return len(classes)


def test_congruence_single_space_n5():
    inst = CongruenceInstance(5, (1,))
    got = count_congruence_solutions(inst)
    assert got == brute_force_classes(inst, 20)
    assert got == 1  # n_1 congruent to 1 and nonzero: one class


def test_congruence_zp_instance_n4_p5():
    # One solution for each n_1 in {0,2,3}, two for n_1 congruent to 1.
    inst = CongruenceInstance(4, (1, 5))
    assert count_congruence_solutions(inst) == 5
    # With p dividing n-1 the count degenerates (the order-p class formula's
    # precondition fails):
    # n_1 is pinned to residue 1 and n_2 is free, giving 1 * 4 classes.
    assert count_congruence_solutions(CongruenceInstance(4, (1, 3))) == 4


def test_congruence_degenerate_n2():
    inst = CongruenceInstance(2, (1, 3))
    got = count_congruence_solutions(inst)
    assert got == brute_force_classes(inst, 12)
    assert got == 3  # zero flags only: (0,nz), (nz,0), (nz,nz)


def test_congruence_stabilizes_in_bound(rng):
    for _ in range(20):
        n = rng.randrange(2, 7)
        sizes = tuple(rng.randrange(1, 8) for _ in range(rng.randrange(1, 4)))
        inst = CongruenceInstance(n, sizes)
        base = count_congruence_solutions(inst)
        assert base == brute_force_classes(inst, 3 * (n - 1) * max(sizes))


@pytest.mark.parametrize(
    "n,p,ordp,expected",
    [(4, 5, 1, 4), (2, 3, 1, 2), (3, 5, 2, 3), (6, 7, 6, 6), (5, 13, 2, 5)],
)
def test_count_order_p_classes(n, p, ordp, expected):
    assert count_order_p_classes(n, p, ordp) == expected


def test_count_order_p_classes_preconditions():
    with pytest.raises(ValueError):
        count_order_p_classes(3, 2, 1)  # 2 divides n-1
    with pytest.raises(ValueError):
        count_order_p_classes(2, 3, 6)  # 3 divides ord(P)
    with pytest.raises(ValueError):
        count_order_p_classes(4, 4, 1)  # not prime


@pytest.mark.parametrize("order", [0, -2])
def test_group_orders_below_one_are_rejected(order):
    # 0 % p == 0 for every prime p, so an order of 0 would make the witness
    # search run forever and the class count report "p divides ord(P) = 0".
    # The class count is checked first, so a missing check fails here
    # instead of hanging in the witness search.
    with pytest.raises(ValueError, match="group order must be >= 1"):
        count_order_p_classes(2, 3, order)
    with pytest.raises(ValueError, match="group order must be >= 1"):
        nonisomorphism_witness(2, 3, order, 1)
    with pytest.raises(ValueError, match="group order must be >= 1"):
        nonisomorphism_witness(2, 3, 1, order)


@pytest.mark.parametrize("max_leaves", [0, -4])
def test_leaf_bounds_below_one_are_rejected(max_leaves):
    # A bound below 1 enumerates nothing; reporting that as zero classes or
    # an inconclusive search would pass an empty search off as an answer.
    h = Subgroup.trivial(2)
    f = identity_element(2, h)
    with pytest.raises(ValueError, match="leaf bound must be >= 1"):
        class_census_experiment(2, h, 3, max_leaves)
    with pytest.raises(ValueError, match="leaf bound must be >= 1"):
        oracle_conjugate(f, f, max_leaves)


def test_nonisomorphism_witness_examples():
    assert nonisomorphism_witness(2, 3, 1, 1) == 3
    assert count_order_p_classes(2, 3, 1) == 2
    assert count_order_p_classes(3, 3, 1) == 3
    assert nonisomorphism_witness(3, 4, 1, 1) == 5
    assert nonisomorphism_witness(2, 4, 2, 6) == 5


def test_oracle_finds_identity_witness():
    h = Subgroup.trivial(2)
    f = identity_element(2, h)
    w = oracle_conjugate(f, f, 1)
    assert w is not None
    assert equal_elements(w, f)


def test_oracle_finds_planted_witness(rng, group):
    n, h = group
    for _ in range(4):
        f = reduce_element(random_element(n, h, rng, max_carets=1))
        w = reduce_element(random_element(n, h, rng, max_carets=1))
        g = reduce_element(compose(compose(invert(w), f), w))
        found = oracle_conjugate(f, g, w.k)
        assert found is not None
        # Soundness: the witness really conjugates.
        assert equal_elements(compose(compose(invert(found), f), found), g)
        assert are_conjugate(f, g)


def test_oracle_inconclusive_on_nonconjugates():
    h = Subgroup.trivial(2)
    one = Perm.identity(2)
    ident = identity_element(2, h)
    swap = TreePairElement(2, h, (LEAF, LEAF), (LEAF, LEAF), (2, 1), (one, one))
    assert oracle_conjugate(ident, swap, 3) is None


def test_oracle_builds_only_the_candidates_it_scans(monkeypatch):
    # The oracle takes its candidates from `vnh.census.reduced_elements`,
    # looked up at call time so that a wrapper installed there sees them,
    # and composes and reduces on triples: the only elements built during a
    # search are the candidates, and a hit returns the last one.
    h = Subgroup.symmetric(2)
    one, s = Perm.identity(2), Perm((2, 1))
    f = TreePairElement(2, h, (LEAF, LEAF), (LEAF, LEAF), (2, 1), (one, s))
    caret_right, caret_left = (LEAF, (LEAF, LEAF)), ((LEAF, LEAF), LEAF)
    w = TreePairElement(2, h, caret_right, caret_left, (1, 2, 3), (one, one, s))
    g = reduce_element(compose(compose(invert(w), f), w))
    miss = identity_element(2, h)  # f is not the identity
    scanned = []

    def scanning(*args):
        for e in reduced_elements(*args):
            scanned.append(e)
            yield e

    monkeypatch.setattr(vnh.census, "reduced_elements", scanning)
    built = []
    post_init = TreePairElement.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TreePairElement, "__post_init__", counting)
    found = oracle_conjugate(f, g, 4)
    assert found is scanned[-1]
    assert [id(e) for e in built] == [id(e) for e in scanned]
    built.clear()
    scanned.clear()
    assert oracle_conjugate(f, miss, 4) is None
    assert len(scanned) > 1
    assert [id(e) for e in built] == [id(e) for e in scanned]


def _reference_oracle(f, g, max_leaves):
    """The oracle loop on whole elements: compose, invert and reduce for
    every candidate, compare keys.  A test oracle for `oracle_conjugate`."""
    target = reduce_element(g).key()
    for h in reduced_elements(f.n, f.subgroup, max_leaves):
        if reduce_element(compose(compose(invert(h), f), h)).key() == target:
            return h
    return None


def test_oracle_matches_element_level_reference(rng, group):
    # f and g are passed unreduced (expanded once), so an oracle that
    # compared against an unreduced target, or reduced only one side,
    # would miss the planted witnesses.
    n, h = group
    bound = 4 if h.order == 1 else 3  # leaves; V2(Z2) has 9,600 candidates at 4
    found = missed = 0
    for planted in [True] * 4 + [False] * 4:
        f = random_element(n, h, rng, max_carets=1)
        if planted:
            w = random_element(n, h, rng, max_carets=1)
            g = compose(compose(invert(w), f), w)
        else:
            g = random_element(n, h, rng, max_carets=1)
        f = expand_representative(f, rng.randrange(f.k) + 1)
        g = expand_representative(g, rng.randrange(g.k) + 1)
        got = oracle_conjugate(f, g, bound)
        want = _reference_oracle(f, g, bound)
        assert (got is None) == (want is None)
        if want is None:
            missed += 1
        else:
            assert got.key() == want.key()
            found += 1
        if planted:
            assert got is not None
    # The identity is conjugate only to itself.
    ident = expand_representative(identity_element(n, h), 1)
    caret = (LEAF,) * n
    swap = TreePairElement(
        n, h, caret, caret, (2, 1) + tuple(range(3, n + 1)), (Perm.identity(n),) * n
    )
    assert oracle_conjugate(ident, swap, bound) is None
    assert _reference_oracle(ident, swap, bound) is None
    assert found and missed


def test_census_v2_id_p3():
    assert class_census_experiment(2, Subgroup.trivial(2), 3, 4) <= 2


def test_census_rejects_bad_p():
    with pytest.raises(ValueError):
        class_census_experiment(3, Subgroup.trivial(3), 2, 3)  # 2 | n-1
    with pytest.raises(ValueError):
        class_census_experiment(2, Subgroup.symmetric(2), 2, 3)  # 2 | ord(H)


def test_census_rejects_composite_p():
    with pytest.raises(ValueError, match="not prime"):
        class_census_experiment(2, Subgroup.trivial(2), 4, 4)
    with pytest.raises(ValueError, match="not prime"):
        class_census_experiment(2, Subgroup.trivial(2), 1, 4)


@pytest.mark.parametrize("n", [0, 1])
def test_census_rejects_arity_below_two(n):
    # Arity is checked first: for n = 1 the p | n-1 check would otherwise
    # report "p = 2 divides n - 1 = 0".
    with pytest.raises(ValueError, match="arity must be >= 2"):
        count_order_p_classes(n, 2, 1)
    with pytest.raises(ValueError, match="arity must be >= 2"):
        class_census_experiment(n, Subgroup.trivial(n), 2, 3)


def test_census_monotone_in_leaves():
    h = Subgroup.trivial(2)
    counts = [class_census_experiment(2, h, 3, k) for k in (3, 4, 5)]
    assert counts == sorted(counts)
    assert counts[-1] == 2


ORDER_GROUPS = {
    "V2(Id)": (2, Subgroup.trivial(2)),
    "V2(Z2)": (2, Subgroup.symmetric(2)),
    "V3(S3)": (3, Subgroup.symmetric(3)),
    "V4(S4)": (4, Subgroup.symmetric(4)),
}


def _torsion_biased_element(n, h, rng):
    """A random element or, half the time, a random conjugate of a leaf
    permutation of one tree made of q-cycles, q in {2, 3, 5}, with identity
    or mostly identity labels: those often have order 2, 3 or 5."""
    if rng.random() < 0.5:
        return random_element(n, h, rng, max_carets=2)
    leaves = 1 + rng.randrange(1, 6) * (n - 1)
    tree = random_tree(n, leaves, rng)
    q = rng.choice([2, 3, 5])
    tau = list(range(1, leaves + 1))
    points = rng.sample(range(leaves), leaves)
    for c in range(rng.randrange(leaves // q + 1)):
        cycle = points[c * q : (c + 1) * q]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            tau[x] = y + 1
    one = Perm.identity(n)
    elems = sorted(h.elements)
    mix = rng.choice([0, 0.3])
    labels = tuple(rng.choice(elems) if rng.random() < mix else one for _ in range(leaves))
    g = TreePairElement(n, h, tree, tree, tuple(tau), labels)
    w = random_element(n, h, rng, max_carets=1)
    return compose(compose(invert(w), g), w)


@pytest.mark.parametrize("name", sorted(ORDER_GROUPS))
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_triple_order_test_matches_element_order(name, rng):
    n, h = ORDER_GROUPS[name]
    g = _torsion_biased_element(n, h, rng)
    for e in (g, expand_representative(g, rng.randrange(g.k) + 1)):
        triple_by_dom = e.triples()
        for p in (2, 3, 5):
            assert _order_exactly(n, triple_by_dom, p) == (element_order(e, p) == p)


def _padded_probe_order_exactly(n, triple_by_dom, p) -> bool:
    """The order-p test with the probe spelled out as a padded tuple: a
    test oracle for the symbolic probe of `_order_exactly`."""
    if all(a == b and lab.is_identity() for a, (b, lab) in triple_by_dom.items()):
        return False  # identity
    lengths = sorted(set(map(len, triple_by_dom)))
    pad = (1,) * ((p + 2) * lengths[-1] + 1)
    ident = Perm.identity(n)
    for a in triple_by_dom:
        probe = w = a + pad
        tail = ident
        for _ in range(p):
            for cut in lengths:
                hit = triple_by_dom.get(w[:cut])
                if hit is not None:
                    break
            else:
                raise AssertionError("probe not deep enough")
            b, lab = hit
            w = b + lab.act_word(w[cut:])
            tail = lab * tail
        if w != probe or not tail.is_identity():
            return False
    return True


def _reference_order_exactly(g, p):
    """Element-level order test: not the identity, and a padded probe below
    every domain leaf returns to itself after p steps with identity residual
    tail action."""
    by_dom = g.triples()
    if all(a == b and lab.is_identity() for a, (b, lab) in by_dom.items()):
        return False
    pad = (1,) * ((p + 2) * max(len(a) for a in by_dom) + 1)

    def ev(word):
        for cut in range(len(word) + 1):
            hit = by_dom.get(word[:cut])
            if hit is not None:
                b, lab = hit
                return b + lab.act_word(word[cut:]), lab
        raise AssertionError("probe not deep enough")

    for a in by_dom:
        w, tail = a + pad, Perm.identity(g.n)
        for _ in range(p):
            w, lab = ev(w)
            tail = lab * tail
        if w != a + pad or not tail.is_identity():
            return False
    return True


def _reference_census(n, h, p, max_leaves):
    """The census loop on whole elements: every reduced element is built and
    tested for order p, and each hit is bucketed by closure invariant.
    Returns the report lines and the keys of the hits.  A test oracle for
    `class_census_experiment`."""
    classes = {}
    hits = []
    for g in reduced_elements(n, h, max_leaves):
        if not _reference_order_exactly(g, p):
            continue
        hits.append(g.key())
        cd = reduced_closure(g)
        assert not cd.has_graph_part()
        classes.setdefault(closure_invariant(cd, h), g)
    lines = [
        f"class {k}: representative = {element_to_json(rep)}"
        for k, rep in enumerate(classes.values(), start=1)
    ]
    lines.append(f"classes={len(classes)} expected={n}")
    return lines, hits


def _triples_key(n, h, triple_by_dom):
    """Key of the element whose triples are {domain address: (range
    address, label)}."""
    return element_from_triples(n, h, triple_by_dom).key()


@pytest.mark.parametrize(
    "n,h,p,max_leaves",
    [
        (2, Subgroup.trivial(2), 2, 5),
        (2, Subgroup.trivial(2), 3, 5),
        (2, Subgroup.symmetric(2), 3, 4),
        (3, Subgroup.trivial(3), 5, 5),
        (4, Subgroup.trivial(4), 2, 4),
    ],
    ids=["V2(Id)-p2", "V2(Id)-p3", "V2(Z2)-p3", "V3(Id)-p5", "V4(Id)-p2"],
)
def test_census_matches_element_level_reference(monkeypatch, n, h, p, max_leaves):
    # The census reads loop records only off reduced order-p candidates,
    # straight from their triples: record the elements it reads.
    closed = []

    def recording_records(n, triple_by_dom):
        closed.append(_triples_key(n, h, triple_by_dom))
        return _torsion_loop_records(n, triple_by_dom)

    monkeypatch.setattr(vnh.census, "_torsion_loop_records", recording_records)
    for leaves in range(1, max_leaves + 1, n - 1):
        lines, hits = _reference_census(n, h, p, leaves)
        got = []
        closed.clear()
        assert class_census_experiment(n, h, p, leaves, got) == len(lines) - 1
        assert got == lines
        assert closed == hits


def test_census_closes_torsion_with_unequal_depth_sums(monkeypatch):
    # Torsion does not imply equal domain and range depth sums: this reduced
    # order-3 element has depth sums 14 and 13, and the census tests it.
    h = Subgroup.trivial(2)
    dom = parse_tree("(* (* (* (* *))))", 2)
    ran = parse_tree("(* ((* *) (* *)))", 2)
    g = TreePairElement(2, h, dom, ran, (2, 5, 3, 1, 4), (Perm.identity(2),) * 5)
    assert is_reduced(g) and element_order(g, 3) == 3
    assert sum(map(len, g.domain_addresses())) != sum(map(len, g.range_addresses()))
    closed = []

    def recording_records(n, triple_by_dom):
        closed.append(_triples_key(n, h, triple_by_dom))
        return _torsion_loop_records(n, triple_by_dom)

    monkeypatch.setattr(vnh.census, "_torsion_loop_records", recording_records)
    assert class_census_experiment(2, h, 3, 5) == 2
    assert g.key() in closed


@pytest.mark.parametrize(
    "n,h,p,max_leaves",
    [
        (2, Subgroup.trivial(2), 2, 5),
        (2, Subgroup.trivial(2), 3, 5),
        (2, Subgroup.symmetric(2), 3, 5),
        (3, Subgroup.trivial(3), 5, 5),
        (4, Subgroup.trivial(4), 2, 4),
    ],
    ids=["V2(Id)-p2", "V2(Id)-p3", "V2(Z2)-p3", "V3(Id)-p5", "V4(Id)-p2"],
)
def test_loop_records_match_the_reduced_closure_on_census_elements(n, h, p, max_leaves):
    # Every reduced order-p element the census buckets: its reduced closure
    # is free loops alone, in the loop class of the records read off an
    # invariant prefix code.
    read = 0
    for triple_by_dom in _order_p_candidates(n, h, p, max_leaves):
        if _collapse_once(n, triple_by_dom):
            continue
        records = _torsion_loop_records(n, triple_by_dom)
        cd = _closure_of_triples(n, triple_by_dom)
        assert not cd.has_graph_part()
        assert closure_invariant(cd, h) == ("", _loop_class(records, h))
        read += 1
    assert read


# In V4(Z3), Z3 = <(1 2 3)> fixing 4, a label s != id and its inverse lie
# in different H-classes and both have a fixed point, so refinement does not
# identify the records (w, s) and (w, s^-1): a composite read backwards
# changes the loop class.  In V3(Z3) every such label is fixed-point free
# and refines to identity labels.
TORSION_GROUPS = {
    **ORDER_GROUPS,
    "V3(Z3)": (3, Subgroup.cyclic(3)),
    "V4(Z3)": (4, Subgroup(4, [Perm((2, 3, 1, 4))])),
}


@pytest.mark.parametrize("name", sorted(TORSION_GROUPS))
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_loop_records_match_the_reduced_closure_on_torsion_conjugates(name, rng):
    # w t w^-1 for a same-tree t with random tau and labels is torsion.
    n, h = TORSION_GROUPS[name]
    elems = sorted(h.elements)
    leaves = 1 + rng.randrange(4) * (n - 1)
    tree = random_tree(n, leaves, rng)
    tau = rng.sample(range(1, leaves + 1), leaves)
    t = TreePairElement(n, h, tree, tree, tuple(tau), tuple(rng.choice(elems) for _ in tau))
    w = random_element(n, h, rng, max_carets=2)
    g = compose(compose(w, t), invert(w))
    reduced = _reduce_triples(n, g.triples())
    records = _torsion_loop_records(n, reduced)
    cd = _closure_of_triples(n, reduced)
    assert not cd.has_graph_part()
    assert closure_invariant(cd, h) == ("", _loop_class(records, h))
    # Any representative gives records in the same class.
    assert _loop_class(_torsion_loop_records(n, g.triples()), h) == _loop_class(records, h)


@pytest.mark.parametrize(
    "records",
    [
        [(3, Perm.identity(2)), (1, Perm((2, 1)))],
        [(1, Perm.identity(2)), (2, Perm.identity(2))],
    ],
    ids=["non-identity label", "winding 2"],
)
def test_census_rejects_loop_records_not_of_order_p(monkeypatch, records):
    # p = 3 does not divide ord(Z2): every record of an order-3 element is
    # (1, id) or (3, id), and the census checks that on each one.
    monkeypatch.setattr(vnh.census, "_torsion_loop_records", lambda n, triple_by_dom: records)
    with pytest.raises(AssertionError, match="loop record"):
        class_census_experiment(2, Subgroup.symmetric(2), 3, 3)


@pytest.mark.parametrize(
    "n,h,p,max_leaves",
    [
        (2, Subgroup.trivial(2), 2, 5),
        (2, Subgroup.trivial(2), 3, 5),
        (2, Subgroup.trivial(2), 5, 5),
        (2, Subgroup.symmetric(2), 3, 4),
        (3, Subgroup.trivial(3), 5, 5),
        (3, Subgroup.cyclic(3), 2, 3),
        (3, Subgroup.symmetric(3), 5, 3),
        (4, Subgroup.trivial(4), 2, 7),
        (4, Subgroup.trivial(4), 3, 7),
    ],
    ids=[
        "V2(Id)-p2",
        "V2(Id)-p3",
        "V2(Id)-p5",
        "V2(Z2)-p3",
        "V3(Id)-p5",
        "V3(Z3)-p2",
        "V3(S3)-p5",
        "V4(Id)-p2",
        "V4(Id)-p3",
    ],
)
def test_pruned_search_yields_the_order_p_candidates(n, h, p, max_leaves):
    # The search per shape block finds exactly the candidates that pass the
    # order test on the full walk, in the walk's order, each with the same
    # triples in the same domain-leaf order.
    def comparable(cands):
        return [[(a, b, lab.images) for a, (b, lab) in c.items()] for c in cands]

    walk = [c[4] for c in _candidates(n, h, max_leaves) if _order_exactly(n, c[4], p)]
    assert comparable(_order_p_candidates(n, h, p, max_leaves)) == comparable(walk)


@pytest.mark.parametrize("name", sorted(ORDER_GROUPS))
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_probe_decided_on_partial_triples_matches_full_verdict(name, rng):
    n, h = ORDER_GROUPS[name]
    g = _torsion_biased_element(n, h, rng)
    full = g.triples()
    for p in (2, 3, 5):
        assert _order_exactly(n, full, p) == _padded_probe_order_exactly(n, full, p)
        probe = _prober(n, frozenset(full), p)
        partial = {a: t for a, t in full.items() if rng.random() < 0.7}
        for a in full:
            verdict = probe(full, a)
            assert verdict is True or verdict is False
            got = probe(partial, a)
            if got is True or got is False:
                assert got == verdict
            else:
                # Undecided: it names the withheld leaf it stopped at.
                assert got in full and got not in partial
