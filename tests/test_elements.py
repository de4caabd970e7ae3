import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnh.elements import (
    ArityMismatch,
    TreePairElement,
    compose,
    element_from_triples,
    element_order,
    equal_elements,
    eval_prefix,
    expand_representative,
    identity_element,
    invert,
    is_reduced,
    random_element,
    reduce_element,
    reduced_elements,
)
from vnh.perms import Perm, Subgroup, all_perms
from vnh.trees import (
    LEAF,
    all_trees,
    common_expansion,
    expand_leaf,
    leaf_addresses,
    locate,
    parse_tree,
    random_tree,
)


def caret_swap_v2(h=None):
    h = h or Subgroup.trivial(2)
    one = Perm.identity(2)
    return TreePairElement(2, h, (LEAF, LEAF), (LEAF, LEAF), (2, 1), (one, one))


def eval_on_depth(g, d):
    """Images of all depth-d branches under g (d at least the domain depth)."""
    words = list(itertools.product(range(1, g.n + 1), repeat=d))
    return words, [eval_prefix(g, w)[0] for w in words]


def test_eval_prefix_identity():
    g = identity_element(2, Subgroup.trivial(2))
    assert eval_prefix(g, (1, 2, 1)) == ((1, 2, 1), Perm.identity(2))


def test_eval_prefix_caret_swap():
    g = caret_swap_v2()
    word, tail = eval_prefix(g, (1, 2))
    assert word == (2, 2) and tail.is_identity()


def test_eval_prefix_label_acts_letterwise():
    h = Subgroup.symmetric(2)
    s = Perm((2, 1))
    g = TreePairElement(2, h, LEAF, LEAF, (1,), (s,))
    word, tail = eval_prefix(g, (1, 2, 1))
    assert word == (2, 1, 2) and tail == s


def test_eval_prefix_too_shallow():
    g = caret_swap_v2()
    with pytest.raises(ValueError):
        eval_prefix(g, ())


def test_eval_bijective_on_deep_words(rng, group):
    # The images of all depth-d branches form a complete pairwise
    # independent branch set: g permutes the Cantor set.
    from vnh.trees import tree_from_addresses

    n, h = group
    for _ in range(10):
        g = random_element(n, h, rng)
        d = 1 + max(len(a) for a in g.domain_addresses())
        words, images = eval_on_depth(g, d)
        assert len(set(images)) == len(words)
        tree_from_addresses(images, n)  # raises unless complete + independent


def test_compose_identity_laws(rng, group):
    n, h = group
    e = identity_element(n, h)
    for _ in range(10):
        f = random_element(n, h, rng)
        assert equal_elements(compose(e, f), f)
        assert equal_elements(compose(f, e), f)


def test_compose_matches_pointwise_evaluation(rng, group):
    n, h = group
    for _ in range(15):
        f = random_element(n, h, rng)
        g = random_element(n, h, rng)
        gf = compose(g, f)
        d = 0
        for elem in (f, g, gf):
            d = max(d, *(len(a) for a in elem.domain_addresses()))
        d += 1
        for w in itertools.product(range(1, n + 1), repeat=d):
            via_f, _ = eval_prefix(f, w)
            expect, _ = eval_prefix(g, via_f)
            got, _ = eval_prefix(gf, w)
            assert got == expect


def test_compose_labels_stay_in_subgroup(rng, group):
    n, h = group
    for _ in range(15):
        f = random_element(n, h, rng)
        g = random_element(n, h, rng)
        for lab in compose(g, f).labels:
            assert lab in h


def test_invert_round_trips(rng, group):
    n, h = group
    ident = identity_element(n, h)
    for _ in range(15):
        g = random_element(n, h, rng)
        assert equal_elements(compose(g, invert(g)), ident)
        assert equal_elements(compose(invert(g), g), ident)
        assert equal_elements(invert(invert(g)), g)
    assert equal_elements(invert(ident), ident)


def test_reduce_collapses_expansion(rng, group):
    n, h = group
    for _ in range(15):
        g = reduce_element(random_element(n, h, rng))
        expanded = g
        for _ in range(3):
            expanded = expand_representative(
                expanded, rng.randrange(expanded.k) + 1
            )
        assert expanded.k == g.k + 3 * (n - 1)
        assert reduce_element(expanded).key() == g.key()


def test_reduce_idempotent(rng, group):
    n, h = group
    for _ in range(10):
        r = reduce_element(random_element(n, h, rng))
        assert reduce_element(r).key() == r.key()


def test_reduce_identity_on_big_pair():
    h = Subgroup.trivial(2)
    one = Perm.identity(2)
    t = parse_tree("((* *) (* (* *)))", 2)
    k = 5
    g = TreePairElement(2, h, t, t, tuple(range(1, k + 1)), (one,) * k)
    r = reduce_element(g)
    assert r.key() == identity_element(2, h).key()


def test_reduce_respects_label_pattern():
    # The collapse demands child pattern AND labels equal the same element of H.
    h = Subgroup.symmetric(2)
    one, s = Perm.identity(2), Perm((2, 1))
    # tau = swap with both labels s: this is the expansion of the global swap.
    g = TreePairElement(2, h, (LEAF, LEAF), (LEAF, LEAF), (2, 1), (s, s))
    r = reduce_element(g)
    assert r.domain_tree == LEAF and r.labels == (s,)
    # tau = swap with identity labels: reduced already (pattern != labels).
    g2 = TreePairElement(2, h, (LEAF, LEAF), (LEAF, LEAF), (2, 1), (one, one))
    assert is_reduced(g2)
    # In V2(Id) the same pattern cannot collapse either (s not in H).
    g3 = caret_swap_v2()
    assert is_reduced(g3)


def test_equal_elements_examples(rng, group):
    n, h = group
    for _ in range(10):
        f = random_element(n, h, rng)
        assert equal_elements(f, expand_representative(f, 1))
    ident = identity_element(2, Subgroup.trivial(2))
    assert not equal_elements(ident, caret_swap_v2())


def test_equal_elements_agrees_with_evaluation(rng, group):
    n, h = group
    for _ in range(10):
        f = random_element(n, h, rng)
        g = random_element(n, h, rng)
        d = 1 + max(
            max(len(a) for a in f.domain_addresses()),
            max(len(a) for a in g.domain_addresses()),
        )
        same_eval = all(
            eval_prefix(f, w)[0] == eval_prefix(g, w)[0]
            for w in itertools.product(range(1, n + 1), repeat=d)
        )
        assert equal_elements(f, g) == same_eval


def test_element_order_basics():
    h = Subgroup.trivial(2)
    assert element_order(identity_element(2, h)) == 1
    assert element_order(caret_swap_v2()) == 2
    hz = Subgroup.symmetric(2)
    s = Perm((2, 1))
    glob = TreePairElement(2, hz, LEAF, LEAF, (1,), (s,))
    assert element_order(glob) == 2
    assert element_order(glob, cap=1) is None


def test_element_order_of_conjugate_matches(rng):
    n, h = 2, Subgroup.symmetric(2)
    s = Perm((2, 1))
    base = TreePairElement(2, h, LEAF, LEAF, (1,), (s,))
    for _ in range(10):
        c = random_element(n, h, rng)
        conj = compose(compose(c, base), invert(c))
        assert element_order(conj, 100) == 2


def test_group_axioms_randomized(rng, group):
    n, h = group
    for _ in range(20):
        a = random_element(n, h, rng)
        b = random_element(n, h, rng)
        c = random_element(n, h, rng)
        assert equal_elements(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_reduced_elements_enumeration_counts():
    h = Subgroup.trivial(2)
    elems = list(reduced_elements(2, h, 2))
    # identity plus the caret swap.
    assert len(elems) == 2
    keys = {e.key() for e in elems}
    assert identity_element(2, h).key() in keys
    hz = Subgroup.symmetric(2)
    elems2 = list(reduced_elements(2, hz, 2))
    # k=1: two label choices; k=2: 8 combos minus 2 collapsible.
    assert len(elems2) == 8
    assert len({e.key() for e in elems2}) == 8


def test_arity_mismatch_raises():
    f = identity_element(2, Subgroup.trivial(2))
    g = identity_element(3, Subgroup.trivial(3))
    with pytest.raises(ArityMismatch):
        compose(f, g)


def _reference_compose(g, f):
    """g o f through the minimal common expansion tree and a `locate` of
    each of its leaves in both address lists, independently of the merge in
    `compose`.  A test oracle for `compose`."""
    mid, _, _ = common_expansion(f.range_tree, g.domain_tree, f.n)
    f_ran = f.range_addresses()
    f_dom = f.domain_addresses()
    g_dom = g.domain_addresses()
    g_ran = g.range_addresses()
    f_tau_inv = {j: i for i, j in enumerate(f.tau, start=1)}
    triples = {}
    for w in leaf_addresses(mid):
        j, x = locate(f_ran, w)
        lab_f = f.labels[j - 1]
        a = f_dom[f_tau_inv[j] - 1] + lab_f.inverse().act_word(x)
        m, y = locate(g_dom, w)
        q = g.tau[m - 1]
        lab_g = g.labels[q - 1]
        b = g_ran[q - 1] + lab_g.act_word(y)
        triples[a] = (b, lab_g * lab_f)
    return element_from_triples(f.n, f.subgroup, triples)


COMPOSE_GROUPS = {
    "V2(Id)": (2, Subgroup.trivial(2), 4),
    "V2(Z2)": (2, Subgroup.symmetric(2), 4),
    "V3(S3)": (3, Subgroup.symmetric(3), 3),
    "V4(S4)": (4, Subgroup.symmetric(4), 2),
}


def _draw_tree(data, n, carets, base=LEAF):
    tree = base
    for _ in range(carets):
        leaves = len(leaf_addresses(tree))
        tree = expand_leaf(tree, data.draw(st.integers(1, leaves)), n)
    return tree


def _draw_element(data, n, h, dom, ran=None):
    """Element on the given domain tree (and range tree, else a random one
    with as many leaves), then passed through 0-2 `expand_representative`
    steps, so that it is in general not reduced."""
    k = len(leaf_addresses(dom))
    if ran is None:
        ran = _draw_tree(data, n, (k - 1) // (n - 1))
    tau = tuple(data.draw(st.permutations(range(1, k + 1))))
    labels = tuple(data.draw(st.lists(st.sampled_from(sorted(h.elements)), min_size=k, max_size=k)))
    g = TreePairElement(n, h, dom, ran, tau, labels)
    for _ in range(data.draw(st.integers(0, 2))):
        g = expand_representative(g, data.draw(st.integers(1, g.k)))
    return g


@pytest.mark.parametrize("name", sorted(COMPOSE_GROUPS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compose_matches_common_expansion_reference(name, data):
    n, h, max_carets = COMPOSE_GROUPS[name]
    # g's domain tree is independent of f's range tree, or refines it
    # completely, or is completely refined by it.
    shape = data.draw(st.sampled_from(["independent", "refines", "refined"]))
    if shape == "refined":
        g_dom = _draw_tree(data, n, data.draw(st.integers(0, max_carets)))
        f_ran = _draw_tree(data, n, data.draw(st.integers(0, 2)), base=g_dom)
        f_dom = _draw_tree(data, n, (len(leaf_addresses(f_ran)) - 1) // (n - 1))
        f = _draw_element(data, n, h, f_dom, f_ran)
    else:
        f = _draw_element(data, n, h, _draw_tree(data, n, data.draw(st.integers(0, max_carets))))
        if shape == "refines":
            g_dom = _draw_tree(data, n, data.draw(st.integers(0, 2)), base=f.range_tree)
        else:
            g_dom = _draw_tree(data, n, data.draw(st.integers(0, max_carets)))
    g = _draw_element(data, n, h, g_dom)
    assert compose(g, f).key() == _reference_compose(g, f).key()
    assert compose(f, g).key() == _reference_compose(f, g).key()


def test_compose_single_leaf_operands(rng, group):
    n, h = group
    f = expand_representative(random_element(n, h, rng), 1)
    singles = [TreePairElement(n, h, LEAF, LEAF, (1,), (lab,)) for lab in sorted(h.elements)]
    for e in singles:
        assert compose(e, f).key() == _reference_compose(e, f).key()
        assert compose(f, e).key() == _reference_compose(f, e).key()
        assert compose(e, e).key() == _reference_compose(e, e).key()


def _reference_reduced_keys(n, h, max_leaves):
    """Keys of every reduced tree pair with at most max_leaves leaves, by
    brute force over trees, trees, permutations and label tuples."""
    elems = sorted(h.elements)
    keys = []
    for k in range(1, max_leaves + 1, n - 1):
        shapes = list(all_trees(n, k))
        for dom in shapes:
            for ran in shapes:
                for tau in all_perms(k):
                    for labels in itertools.product(elems, repeat=k):
                        g = TreePairElement(n, h, dom, ran, tau.images, labels)
                        if is_reduced(g):
                            keys.append(g.key())
    return keys


@pytest.mark.parametrize(
    "n,h,max_leaves",
    [(2, Subgroup.trivial(2), 5), (2, Subgroup.symmetric(2), 4), (3, Subgroup.symmetric(3), 3)],
    ids=["V2(Id)", "V2(Z2)", "V3(S3)"],
)
def test_reduced_elements_matches_brute_force_in_order(n, h, max_leaves):
    # Census representatives and oracle witnesses are "first found", so the
    # order matters as much as the set.
    got = [g.key() for g in reduced_elements(n, h, max_leaves)]
    assert got == _reference_reduced_keys(n, h, max_leaves)


def _reference_equal_elements(f, g):
    """Equality on whole elements: the keys of the reduced representatives.
    A test oracle for `equal_elements`."""
    return reduce_element(f).key() == reduce_element(g).key()


def _reference_element_order(g, cap=10_000):
    """Order on whole elements: each power is composed and reduced as an
    element and compared with the reduced identity by key.  A test oracle
    for `element_order`."""
    ident = reduce_element(identity_element(g.n, g.subgroup))
    base = reduce_element(g)
    acc = base
    for m in range(1, cap + 1):
        if acc.key() == ident.key():
            return m
        acc = reduce_element(compose(base, acc))
    return None


@pytest.mark.parametrize("name", sorted(COMPOSE_GROUPS))
def test_equal_elements_and_element_order_match_element_level_reference(name):
    n, h, _ = COMPOSE_GROUPS[name]
    rng = random.Random(f"reference/{name}")
    elems = sorted(h.elements)
    ident = identity_element(n, h)
    samples = [ident, expand_representative(ident, 1)]
    for _ in range(40):
        samples.append(random_element(n, h, rng, max_carets=2))
        # A conjugate of a same-tree element is torsion.
        leaves = 1 + rng.randrange(4) * (n - 1)
        tree = random_tree(n, leaves, rng)
        tau = tuple(rng.sample(range(1, leaves + 1), leaves))
        t = TreePairElement(n, h, tree, tree, tau, tuple(rng.choice(elems) for _ in tau))
        w = random_element(n, h, rng, max_carets=1)
        samples.append(compose(compose(invert(w), t), w))
    torsion = 0
    for g in samples:
        order = _reference_element_order(g, 12)
        assert element_order(g, 12) == order
        assert element_order(g, 1) == _reference_element_order(g, 1)
        if order is not None and order > 1:
            torsion += 1
            assert element_order(g, order - 1) is None
            assert _reference_element_order(g, order - 1) is None
        other = samples[rng.randrange(len(samples))]
        expanded = expand_representative(g, rng.randrange(g.k) + 1)
        for f in (other, expanded, ident, compose(g, g)):
            assert equal_elements(g, f) == _reference_equal_elements(g, f)
        assert equal_elements(g, expanded)
    assert torsion >= 20
