"""Torsion decided on the triples, against the reduced closure.

`is_torsion`, `torsion_order` and the torsion branch of
`conjugacy_invariant` read the loop records of
`elements._torsion_loop_records` and build no closed diagram.  The
reference here is the closure path they replace: an element is torsion iff
its reduced closure has no graph part, its order is the lcm of winding *
ord(label) over the closure's free loops, and its invariant is
`closure_invariant` of the closure.
"""

import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnh
import vnh.closed
import vnh.elements
from vnh.census import class_census_experiment
from vnh.closed import (
    are_conjugate,
    closure_invariant,
    conjugacy_invariant,
    is_torsion,
    reduced_closure,
    torsion_order,
)
from vnh.elements import (
    TreePairElement,
    _Nesting,
    _reduce_triples,
    _torsion_loop_records,
    compose,
    element_from_triples,
    element_order,
    eval_prefix,
    invert,
    random_element,
    reduce_element,
)
from vnh.perms import Perm, Subgroup
from vnh.trees import random_tree

BENCH = Path(__file__).resolve().parents[1] / "bench"

GROUPS = {
    "V2(Id)": (2, Subgroup.trivial(2)),
    "V2(Z2)": (2, Subgroup.symmetric(2)),
    "V3(S3)": (3, Subgroup.symmetric(3)),
    "V4(S4)": (4, Subgroup.symmetric(4)),
    "V4(Z3)": (4, Subgroup(4, [Perm((2, 3, 1, 4))])),
}


def _closure_reference(g):
    """(is torsion, order or None, conjugacy invariant) from g's reduced
    closure."""
    cd = reduced_closure(g)
    order = None
    if not cd.has_graph_part():
        order = 1
        for winding, label in cd._g.free_loops:
            order = math.lcm(order, winding * label.order())
    return order is not None, order, closure_invariant(cd, g.subgroup)


def _check_nesting(g, nesting):
    """The certificate holds by element arithmetic: the reduced g^k maps the
    cone of the word onto the cone of the image, by one prefix replacement,
    and the two cones are strictly nested."""
    c, k, x = nesting.word, nesting.power, nesting.image
    power = g
    for _ in range(k - 1):
        power = compose(g, power)
    assert eval_prefix(reduce_element(power), c)[0] == x
    short, long = sorted((c, x), key=len)
    assert len(short) < len(long) and long[: len(short)] == short


def _check_against_closure(g):
    """The three public answers equal the closure's, the records decide (no
    inconclusive), and a certificate of infinite order holds.  Returns the
    records' verdict."""
    out = _torsion_loop_records(g.n, _reduce_triples(g.n, g.triples()))
    assert out is not None, g
    torsion, order, invariant = _closure_reference(g)
    assert isinstance(out, list) == torsion, g
    if not torsion:
        _check_nesting(g, out)
    assert is_torsion(g) == torsion
    assert torsion_order(g) == order
    assert conjugacy_invariant(g) == invariant
    return out


def _torsion_conjugate(n, h, rng):
    """w t w^-1 for a same-tree t with random tau and labels: torsion."""
    elems = sorted(h.elements)
    leaves = 1 + rng.randrange(5) * (n - 1)
    tree = random_tree(n, leaves, rng)
    tau = rng.sample(range(1, leaves + 1), leaves)
    t = TreePairElement(n, h, tree, tree, tuple(tau), tuple(rng.choice(elems) for _ in tau))
    w = random_element(n, h, rng, max_carets=3)
    return compose(compose(w, t), invert(w))


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_torsion_on_triples_matches_the_closure(name, rng):
    n, h = GROUPS[name]
    _check_against_closure(random_element(n, h, rng, max_carets=4))
    t = _torsion_conjugate(n, h, rng)
    records = _check_against_closure(t)
    assert isinstance(records, list)
    # The order of the records is the order of the element.
    assert element_order(t, torsion_order(t)) == torsion_order(t)


def test_torsion_on_triples_matches_the_closure_on_the_conjugacy_corpus():
    # Every element of the seed-1 bench `conjugacy` corpus, built by the
    # bench's own generator, and every verdict against the pair's
    # construction: planted pairs are conjugate, order-separated ones not.
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    items = workloads.conjugacy_items(vnh, random.Random("conjugacy/1"))
    groups = {}
    torsion = 0
    for item in items:
        if item.group not in groups:
            groups[item.group] = workloads.subgroup(vnh, item.group)
        n, h = groups[item.group]
        f, g = (workloads.decode(vnh, n, h, e) for e in item.elements)
        for e in (f, g):
            torsion += isinstance(_check_against_closure(e), list)
        assert are_conjugate(f, g) is item.params[0], item.label
    assert 2 * len(items) == 3680
    assert torsion == 3182


def _v2(pairs):
    """The V2(Id) element mapping the cone of each domain word onto the cone
    of its range word, words given as strings over 1, 2."""
    one = Perm.identity(2)

    def word(s):
        return tuple(map(int, s))

    return element_from_triples(
        2, Subgroup.trivial(2), {word(a): (word(b), one) for a, b in pairs.items()}
    )


# x0, the basic infinite-order element of V2: 11 -> 1, 12 -> 21, 2 -> 22.
X0 = {"11": "1", "12": "21", "2": "22"}
# Cone 2 -> cone 12 -> cone 22, nested in cone 2 after two steps; no domain
# leaf's image is nested with it, so only the orbit walk sees it.
TWO_STEP = {"1111": "21", "1112": "112", "112": "111", "12": "22", "2": "12"}
# Cone 2211 -> 111 -> 211 -> 121 -> 221, around cone 2211 after four steps.
FOUR_STEP_OUT = {"1": "2", "21": "12", "2211": "111", "2212": "1121", "222": "1122"}


def _inverse(pairs):
    return {b: a for a, b in pairs.items()}


@pytest.mark.parametrize(
    "pairs,word,power,image,walk_only",
    [
        (X0, "11", 1, "1", False),
        (_inverse(X0), "1", 1, "11", False),
        (TWO_STEP, "122", 2, "1222", True),
        (_inverse(TWO_STEP), "1112", 2, "11122", True),
        (FOUR_STEP_OUT, "2211", 4, "221", True),
    ],
    ids=["repeller", "attractor", "two-step", "two-step inverse", "four-step repeller"],
)
def test_infinite_order_certificates(monkeypatch, pairs, word, power, image, walk_only):
    # One nesting shape each: a domain leaf against its own image, or seen
    # only along a cone orbit of several steps.
    g = _v2(pairs)
    triples = _reduce_triples(2, g.triples())
    assert triples == g.triples()
    nesting = _torsion_loop_records(2, triples)
    word, image = tuple(map(int, word)), tuple(map(int, image))
    assert nesting == _Nesting(word, power, image)
    _check_nesting(g, nesting)
    assert not is_torsion(g) and torsion_order(g) is None
    assert element_order(g, 50) is None
    # Without the orbit walk, refinement runs into its cap: inconclusive,
    # and the closure still decides.
    monkeypatch.setattr(vnh.elements, "_orbit_nesting", lambda code: None)
    assert (_torsion_loop_records(2, triples) is None) == walk_only
    assert not is_torsion(g) and torsion_order(g) is None
    assert conjugacy_invariant(g) == _closure_reference(g)[2]


def test_torsion_records_are_read_off_an_invariant_code():
    # The domain leaves 1, 21, 22 are not invariant, since cone 1 maps onto
    # cone 2.  Splitting 1 gives the code 11, 12, 21, 22, which g permutes
    # as one 4-cycle 11 -> 21 -> 12 -> 22 -> 11.
    g = _v2({"1": "2", "21": "12", "22": "11"})
    assert _torsion_loop_records(2, g.triples()) == [(4, Perm.identity(2))]
    assert torsion_order(g) == 4 == element_order(g, 4)


def _leave_undecided(monkeypatch):
    """With one code word per domain leaf, the refinement stops undecided as
    soon as it splits a word, and `closed._torsion_records` falls back on
    the reduced closure.  Returns the list that collects, in call order,
    the triples the records leave undecided."""
    seen = []

    def recording(n, triple_by_dom):
        out = _torsion_loop_records(n, triple_by_dom)
        if out is None:
            seen.append(dict(triple_by_dom))
        return out

    monkeypatch.setattr(vnh.elements, "_CODE_WORDS_PER_LEAF", 1)
    monkeypatch.setattr(vnh.closed, "_torsion_loop_records", recording)
    return seen


@pytest.mark.parametrize(
    "n,h,p,max_leaves,undecided",
    [
        (2, Subgroup.trivial(2), 3, 5, 108),
        (2, Subgroup.symmetric(2), 3, 4, 0),
        (4, Subgroup.trivial(4), 2, 7, 0),
        (3, Subgroup.trivial(3), 5, 5, 0),
    ],
    ids=["V2(Id)-p3", "V2(Z2)-p3", "V4(Id)-p2", "V3(Id)-p5"],
)
def test_census_is_unchanged_when_the_records_leave_torsion_undecided(
    monkeypatch, n, h, p, max_leaves, undecided
):
    # 108 of the 392 reduced order-3 elements of V2(Id) to 5 leaves need a
    # split; the report lines stay the same.
    expected = []
    class_census_experiment(n, h, p, max_leaves, expected)
    seen = _leave_undecided(monkeypatch)
    got = []
    class_census_experiment(n, h, p, max_leaves, got)
    assert got == expected
    assert len(seen) == undecided


def test_undecided_records_fall_back_on_the_closure(monkeypatch):
    # Random elements and torsion conjugates: `is_torsion`, `torsion_order`
    # and `conjugacy_invariant` give the closure's answers, and both torsion
    # and infinite-order elements are among those left undecided.
    seen = _leave_undecided(monkeypatch)
    rng = random.Random("undecided")
    kinds = {}
    for name in ("V2(Id)", "V2(Z2)", "V3(S3)", "V4(S4)"):
        n, h = GROUPS[name]
        for _ in range(60):
            for g in (random_element(n, h, rng, max_carets=4), _torsion_conjugate(n, h, rng)):
                before = len(seen)
                torsion, order, invariant = _closure_reference(g)
                assert is_torsion(g) == torsion
                assert torsion_order(g) == order
                assert conjugacy_invariant(g) == invariant
                if len(seen) > before:
                    kinds[torsion] = kinds.get(torsion, 0) + 1
    assert kinds[True] and kinds[False], kinds
