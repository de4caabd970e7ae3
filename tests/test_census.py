import itertools
import math
import random

import pytest
from conftest import candidates
from hypothesis import given, settings
from hypothesis import strategies as st

import vnh.census
from vnh.census import (
    CongruenceInstance,
    _commutes_at_probes,
    _order_p_candidates,
    _prober,
    class_census_experiment,
    count_congruence_solutions,
    count_order_p_classes,
    nonisomorphism_witness,
    oracle_conjugate,
)
from vnh.closed import (
    _loop_class,
    _torsion_records,
    are_conjugate,
    closure_invariant,
    conjugacy_invariant,
    reduced_closure,
)
from vnh.elements import (
    TreePairElement,
    _at_point,
    _collapse_once,
    _is_identity,
    _reduce_triples,
    _torsion_loop_records,
    compose,
    element_from_triples,
    element_order,
    equal_elements,
    expand_representative,
    identity_element,
    invert,
    random_element,
    reduce_element,
    reduced_elements,
)
from vnh.io import element_from_json, element_to_json
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


def _comb(n, carets):
    tree = LEAF
    for _ in range(carets):
        tree = (LEAF,) * (n - 1) + (tree,)
    return tree


def _order_p_representatives(n, h, p):
    """One element per solution signature of n_1 + p*n_p =* 1 (mod n-1)
    with n_p >= 1: a comb against itself whose strands fix n_1 leaves and
    run n_p p-cycles, every label the identity.  A signature is, per
    variable, zero or a nonzero residue mod n-1; each is realized by its
    least member."""
    m = n - 1
    least = [r or m for r in range(m)]
    elems = []
    for n1 in [0] + least:
        for n_p in least:
            k = n1 + p * n_p
            if k % m != 1 % m:
                continue
            tau = list(range(1, k + 1))
            for start in range(n1, k, p):
                tau[start : start + p] = tau[start + 1 : start + p] + [tau[start]]
            tree = _comb(n, (k - 1) // m)
            labels = (Perm.identity(n),) * k
            elems.append(TreePairElement(n, h, tree, tree, tuple(tau), labels))
    return elems


def _class_count_cases():
    """The 45 (n, H, p) with 2 <= n <= 6, H trivial or symmetric, p <= 13
    prime dividing neither n-1 nor |H|."""
    for n in range(2, 7):
        for h in (Subgroup.trivial(n), Subgroup.symmetric(n)):
            for p in (2, 3, 5, 7, 11, 13):
                if (n - 1) % p and h.order % p:
                    yield n, h, p


def test_order_p_class_count_on_constructed_representatives():
    # The class-count theorem past the census's reach: for every (n, H, p)
    # of `_class_count_cases`, the representatives of the congruence's
    # signatures have order p and pairwise distinct invariants, as many as
    # `count_order_p_classes` says.
    counts = {}
    for n, h, p in _class_count_cases():
        elems = _order_p_representatives(n, h, p)
        assert all(element_order(g, cap=p) == p for g in elems)
        invariants = {conjugacy_invariant(g) for g in elems}
        assert len(invariants) == len(elems) == count_order_p_classes(n, p, h.order)
        counts[n, h.order, p] = len(invariants)
    assert len(counts) == 45
    # The witness prime separates V_n(P) from V_m(Q): n classes against m.
    for n, m in itertools.permutations(range(2, 7), 2):
        for ord_p, ord_q in itertools.product((1, math.factorial(n)), (1, math.factorial(m))):
            p = nonisomorphism_witness(n, m, ord_p, ord_q)
            assert (counts[n, ord_p, p], counts[m, ord_q, p]) == (n, m)


def _random_order_p_element(n, h, p, rng):
    """A random conjugate w^-1 t w of a same-tree element t of order p: t
    runs random p-cycles on the leaves of one random tree and fixes the
    rest.  The labels along a cycle are random in H except the first, which
    makes the composite around the cycle the identity, so that the order
    stays p; a draw of t without a p-cycle is dropped by its order."""
    elems = sorted(h.elements)
    one = Perm.identity(n)
    while True:
        leaves = 1 + rng.randrange(1, 2 * p // (n - 1) + 2) * (n - 1)
        tree = random_tree(n, leaves, rng)
        points = rng.sample(range(leaves), leaves)
        tau = list(range(1, leaves + 1))
        labels = [one] * leaves  # labels[j]: label of range leaf j + 1
        for start in range(0, rng.randrange(leaves // p + 1) * p, p):
            cycle = points[start : start + p]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                tau[x] = y + 1
            composite = one
            for y in cycle[1:]:
                labels[y] = rng.choice(elems)
                composite = labels[y] * composite
            labels[cycle[0]] = composite.inverse()
        t = TreePairElement(n, h, tree, tree, tuple(tau), tuple(labels))
        if element_order(t, cap=p) == p:
            w = random_element(n, h, rng, max_carets=2)
            return compose(compose(invert(w), t), w)


def test_random_order_p_elements_land_in_the_constructed_classes(rng):
    # The upper bound of the class count: random order-p elements of the
    # 45 (n, H, p) have one of the n invariants of the representatives.
    for n, h, p in _class_count_cases():
        invariants = {conjugacy_invariant(g) for g in _order_p_representatives(n, h, p)}
        for _ in range(20):
            g = _random_order_p_element(n, h, p, rng)
            assert element_order(g, cap=p) == p
            assert conjugacy_invariant(g) in invariants, (n, h.order, p, g)


@pytest.mark.parametrize("p", [2, 3])
def test_census_representatives_match_the_constructed_ones(p):
    # Where the census reaches every class (V2(Id) at 5 leaves), it finds
    # the invariants of the constructed representatives, no more, no fewer.
    h = Subgroup.trivial(2)
    lines = []
    assert class_census_experiment(2, h, p, 5, lines) == 2
    census = {conjugacy_invariant(element_from_json(line.split(" = ", 1)[1])) for line in lines[:-1]}
    assert census == {conjugacy_invariant(g) for g in _order_p_representatives(2, h, p)}


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
    # search are the candidates, and a hit returns the last one.  Elements
    # are counted on both paths that build them: the validating constructor
    # and the unchecked `_trusted` the enumeration uses.
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
    trusted = TreePairElement._trusted

    def counting_trusted(cls, *fields):
        e = trusted(*fields)
        built.append(e)
        return e

    monkeypatch.setattr(TreePairElement, "_trusted", classmethod(counting_trusted))
    found = oracle_conjugate(f, g, 4)
    assert found is scanned[-1]
    assert [id(e) for e in built] == [id(e) for e in scanned]
    built.clear()
    scanned.clear()
    assert oracle_conjugate(f, miss, 4) is None
    assert len(scanned) > 1
    assert [id(e) for e in built] == [id(e) for e in scanned]


@pytest.mark.parametrize(
    "n, h, bound",
    [(2, Subgroup.trivial(2), 5), (2, Subgroup.symmetric(2), 4), (3, Subgroup.symmetric(3), 3)],
    ids=["V2(Id)", "V2(Z2)", "V3(S3)"],
)
def test_trusted_candidates_are_validated_elements(n, h, bound):
    # `reduced_elements` builds its elements unchecked; each must be the
    # element the validating constructor builds from the same fields, hold
    # H's own label instances, and report the same triples, in the same
    # order.
    count = 0
    for e in reduced_elements(n, h, bound):
        checked = TreePairElement(n, h, e.domain_tree, e.range_tree, e.tau, e.labels)
        assert e == checked
        assert all(lab is h._members[lab] for lab in e.labels)
        assert list(e.triples().items()) == list(checked.triples().items())
        count += 1
    assert count > 1


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


ORDER_GROUPS = {
    "V2(Id)": (2, Subgroup.trivial(2)),
    "V2(Z2)": (2, Subgroup.symmetric(2)),
    "V3(S3)": (3, Subgroup.symmetric(3)),
    "V4(S4)": (4, Subgroup.symmetric(4)),
}


@pytest.mark.parametrize("name", ["V2(Z2)", "V3(S3)", "V4(S4)"])
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_point_filter_passes_every_true_witness(name, rng):
    # The oracle's filter is a necessary condition: the reduced w of
    # g = w^-1 f w has f(w(x)) = w(g(x)) at every probe point of the
    # reduced g, so the filter never rejects a witness.
    n, h = ORDER_GROUPS[name]
    f = random_element(n, h, rng, max_carets=2)
    w = random_element(n, h, rng, max_carets=2)
    target = _reduce_triples(n, compose(compose(invert(w), f), w).triples())
    passes = _commutes_at_probes(n, f.triples(), target)
    assert passes(reduce_element(w))


def _reference_passes(n, f_triples, g_triples, h_triples):
    """The probe filter on triple dicts: f(h(x)) = h(g(x)) at every point
    x = a c c c ..., a a domain leaf of g and c a letter, each image read by
    `_at_point`.  A test oracle for `_commutes_at_probes`."""
    return all(
        _at_point(f_triples, *_at_point(h_triples, a, c))
        == _at_point(h_triples, *_at_point(g_triples, a, c))
        for a in g_triples
        for c in range(1, n + 1)
    )


@pytest.mark.parametrize(
    "name, bound", [("V2(Z2)", 4), ("V3(S3)", 3), ("V4(S4)", 4)], ids=["V2(Z2)", "V3(S3)", "V4(S4)"]
)
def test_block_probes_match_dict_probes(name, bound):
    # `passes` reads h through a table per domain tree and the range leaf
    # addresses per range tree; on every candidate of the bounded blocks it
    # must give the verdict of the filter on h's triple dict.  One `passes`
    # serves all candidates, so its tables and f's memoised images carry
    # over from block to block as they do in the oracle.  V4(S4) has
    # 7,962,624 candidates in range and is cut after the first 30,000, all
    # under one tau, so random elements, each on trees of its own, follow.
    n, h = ORDER_GROUPS[name]
    rng = random.Random(f"block-probes/{name}")
    ident = identity_element(n, h)
    hits = misses = 0
    for planted in (True, False, True, False):
        f = ident
        while equal_elements(f, ident):
            f = random_element(n, h, rng, max_carets=2)
        w = random_element(n, h, rng, max_carets=1)
        g = compose(compose(invert(w), f), w) if planted else random_element(n, h, rng, 2)
        f_triples, target = f.triples(), _reduce_triples(n, g.triples())
        passes = _commutes_at_probes(n, f_triples, target)
        cands = itertools.chain(
            itertools.islice(reduced_elements(n, h, bound), 30_000),
            (random_element(n, h, rng, max_carets=3) for _ in range(500)),
        )
        for e in cands:
            got = passes(e)
            assert got == _reference_passes(n, f_triples, target, e.triples())
            hits += got
            misses += not got
    assert hits and misses


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


def _order_exactly(n, triple_by_dom, p) -> bool:
    """Exact test for order p, p prime, on the triple view {domain address:
    (range address, label)} of any representative, reduced or not: g != id
    and g^p = id.

    g^p is the identity iff the prefix action, iterated p times on a padded
    probe below every domain leaf, returns each probe to itself with
    identity residual tail action (see `census._prober`).  Order is a
    property of the homeomorphism, so the verdict does not depend on the
    representative."""
    if _is_identity(triple_by_dom):
        return False
    starts, probe = _prober(n, list(triple_by_dom), p)
    return all(probe(triple_by_dom, state) is True for state in starts.values())


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
        return _torsion_records(n, triple_by_dom)

    monkeypatch.setattr(vnh.census, "_torsion_records", recording_records)
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
    assert not _collapse_once(2, g.triples()) and element_order(g, 3) == 3
    assert sum(map(len, g.domain_addresses())) != sum(map(len, g.range_addresses()))
    closed = []

    def recording_records(n, triple_by_dom):
        closed.append(_triples_key(n, h, triple_by_dom))
        return _torsion_records(n, triple_by_dom)

    monkeypatch.setattr(vnh.census, "_torsion_records", recording_records)
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
        cd = reduced_closure(element_from_triples(n, h, triple_by_dom))
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
    cd = reduced_closure(element_from_triples(n, h, reduced))
    assert not cd.has_graph_part()
    assert closure_invariant(cd, h) == ("", _loop_class(records, h))
    # Any representative gives records in the same class.
    assert _loop_class(_torsion_loop_records(n, g.triples()), h) == _loop_class(records, h)


@pytest.mark.parametrize(
    "records",
    [
        [(3, Perm.identity(2)), (1, Perm((2, 1)))],
        [(1, Perm.identity(2)), (2, Perm.identity(2))],
        None,
    ],
    ids=["non-identity label", "winding 2", "infinite order"],
)
def test_census_rejects_loop_records_not_of_order_p(monkeypatch, records):
    # p = 3 does not divide ord(Z2): an order-3 element is torsion, every
    # record of it is (1, id) or (3, id), and the census checks that on each
    # one.
    monkeypatch.setattr(vnh.census, "_torsion_records", lambda n, triple_by_dom: records)
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

    walk = [c[4] for c in candidates(n, h, max_leaves) if _order_exactly(n, c[4], p)]
    assert comparable(_order_p_candidates(n, h, p, max_leaves)) == comparable(walk)


class _CountingDict(dict):
    """A triple dict that counts the lookups made through `get`."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(ORDER_GROUPS))
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_probe_decided_on_partial_triples_matches_full_verdict(name, rng):
    n, h = ORDER_GROUPS[name]
    g = _torsion_biased_element(n, h, rng)
    full = g.triples()
    for p in (2, 3, 5):
        assert _order_exactly(n, full, p) == _padded_probe_order_exactly(n, full, p)
        starts, probe = _prober(n, list(full), p)
        withheld = {a for a in full if rng.random() >= 0.7}
        for start in starts.values():
            verdict = probe(full, start)
            assert verdict is True or verdict is False
            partial = _CountingDict((a, t) for a, t in full.items() if a not in withheld)
            got = probe(partial, start)
            stops = 0
            while got is not True and got is not False:
                # Undecided: it names the withheld leaf it stopped at, and
                # its state resumes once that leaf has its triple.
                leaf, state = got
                assert leaf in full and leaf not in partial
                partial[leaf] = full[leaf]
                stops += 1
                got = probe(partial, state)
            assert got == verdict
            # A resumed probe goes on where it stopped: each of its p steps
            # reads one leaf, and each stop reads one more.
            assert partial.reads == p + stops
