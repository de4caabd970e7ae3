"""The benchmark's four workloads: corpora built from a seed, and one
operation per corpus item.

Each corpus generator takes the `vnh` package and a `random.Random` and returns
a list of `Item`; `bind` turns the items into `Op`s on one import of `vnh`.
An operation calls the public API through attribute lookups on the package
at call time, so the traced run's wrappers see every call.  One whole round
over a corpus is the unit of work a run repeats; see README.md for the
make-up of each corpus and the reasons behind it.

Seeded corpora are shuffled, so that every stratum is timed across the whole
round rather than in one stretch, during which the machine may happen to run
slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

# name -> (arity, Subgroup constructor)
GROUPS = {
    "V2(Id)": (2, "trivial"),
    "V2(Z2)": (2, "symmetric"),
    "V3(S3)": (3, "symmetric"),
    "V4(S4)": (4, "symmetric"),
    "V4(Id)": (4, "trivial"),
}

# conjugacy: (group, carets of f, pairs) strata; each stratum has that many
# planted and as many order-separated pairs.  V4(S4) carries most of the
# pairs because its closures make the tail (see README.md).
CONJ = [
    *(("V2(Id)", m, 40) for m in (1, 2, 3, 4)),
    *(("V2(Z2)", m, 40) for m in (1, 2, 3)),
    ("V3(S3)", 1, 40),
    ("V3(S3)", 2, 100),
    ("V4(S4)", 1, 500),
]

# Conjugators (w in w^-1 f w) have at most this many carets.
CONJUGATOR_CARETS = 1

# Orders of the torsion side of an order-separated pair stay at most this,
# which bounds the powers `element_order` composes while building the corpus.
ORDER_CAP = 6

# oracle: (group, bound in leaves, planted?, pairs, largest witness caret
# count).  Order-separated pairs make the oracle scan every candidate; their
# bounds are one below the planted ones where a full scan would outlast a run.
# The counts put the median inside the cluster of V2(Z2) scans and the tail
# inside the cluster of V3(S3) scans, whose costs vary least between seeds
# (see README.md).
ORACLE = [
    ("V2(Id)", 5, True, 4, 3),
    ("V2(Id)", 4, False, 2, None),
    ("V2(Z2)", 4, True, 4, 2),
    ("V2(Z2)", 3, False, 18, None),
    ("V3(S3)", 4, True, 4, 1),
    ("V3(S3)", 4, False, 12, None),
]
ORACLE_CARETS = 2  # carets of f, and of g in order-separated pairs

# census: (group, p, max_leaves); the V2(Id)/V4(Id) pair at p = 2 is the
# non-isomorphism witness.
CENSUS = [
    ("V2(Id)", 2, 5),
    ("V2(Id)", 3, 5),
    ("V2(Z2)", 3, 4),
    ("V4(Id)", 2, 7),
]

# word: WORDS words per (group, factor count); each factor has 1 to
# WORD_CARETS carets.
WORD_GROUPS = ["V2(Z2)", "V3(S3)", "V4(S4)"]
WORD_FACTORS = (3, 4)
WORD_CARETS = 3
WORDS = 150


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def subgroup(vnh, name):
    """(n, H) for a group name in GROUPS."""
    n, kind = GROUPS[name]
    return n, getattr(vnh.Subgroup, kind)(n)


# -- random elements from the public API ------------------------------------


def random_tree(vnh, n, carets, rng):
    tree = ()
    for i in range(carets):
        tree = vnh.expand_leaf(tree, rng.randrange(1 + i * (n - 1)) + 1, n)
    return tree


def random_element(vnh, n, H, carets, rng, same_trees=False):
    """Random tree pair with `carets` carets on each side; with same_trees
    the two trees coincide, which makes the element torsion."""
    dom = random_tree(vnh, n, carets, rng)
    ran = dom if same_trees else random_tree(vnh, n, carets, rng)
    k = 1 + carets * (n - 1)
    tau = list(range(1, k + 1))
    rng.shuffle(tau)
    elems = sorted(H.elements)
    labels = tuple(rng.choice(elems) for _ in range(k))
    return vnh.TreePairElement(n, H, dom, ran, tuple(tau), labels)


def conjugate_by(vnh, f, w):
    """Reduced w^-1 f w."""
    return vnh.reduce_element(vnh.compose(vnh.invert(w), vnh.compose(f, w)))


def planted_pair(vnh, n, H, carets, witness_carets, rng):
    """(f, g, h) with g = h^-1 f h."""
    f = random_element(vnh, n, H, carets, rng)
    h = random_element(vnh, n, H, witness_carets, rng)
    return f, conjugate_by(vnh, f, h), h


def order_separated_pair(vnh, n, H, carets, rng):
    """(f, g) with f of exact order a (found with `element_order`) and g not
    of order a, so f and g are not conjugate: conjugates have equal orders.
    f is a conjugate of a same-trees element, hence torsion."""
    while True:
        base = random_element(vnh, n, H, carets, rng, same_trees=True)
        w = random_element(vnh, n, H, rng.randint(0, CONJUGATOR_CARETS), rng)
        f = conjugate_by(vnh, base, w)
        a = vnh.element_order(f, ORDER_CAP)
        if a is not None and a > 1:
            break
    while True:
        g = random_element(vnh, n, H, carets, rng)
        if vnh.element_order(g, a) != a:
            return f, g


# -- corpora and operations -------------------------------------------------
#
# A corpus is a list of Items holding plain data (trees, tau, label images),
# so that each round can bind it to a freshly imported vnh: rounds then start
# with the library's module-level caches empty, like the first one.


@dataclass(frozen=True)
class Item:
    label: str
    group: str
    elements: tuple  # encoded elements
    params: tuple  # workload-specific


def encode(e):
    return (e.domain_tree, e.range_tree, e.tau, tuple(lab.images for lab in e.labels))


def decode(vnh, n, H, data):
    dom, ran, tau, labels = data
    return vnh.TreePairElement(n, H, dom, ran, tau, tuple(vnh.Perm(x) for x in labels))


def bind(vnh, workload, items):
    """Operations for a corpus, on this import of vnh."""
    groups = {}
    state = {}
    ops = []
    for item in items:
        if item.group not in groups:
            groups[item.group] = subgroup(vnh, item.group)
        n, H = groups[item.group]
        elements = [decode(vnh, n, H, e) for e in item.elements]
        ops.append(WORKLOADS[workload][1](vnh, item, n, H, elements, state))
    return ops


def conjugacy_items(vnh, rng):
    items = []
    for name, carets, pairs in CONJ:
        n, H = subgroup(vnh, name)
        for _ in range(pairs):
            f, g, _h = planted_pair(vnh, n, H, carets, rng.randint(0, CONJUGATOR_CARETS), rng)
            items.append(Item(f"{name} planted m={carets}", name, (encode(f), encode(g)), (True,)))
            f, g = order_separated_pair(vnh, n, H, carets, rng)
            items.append(Item(f"{name} separated m={carets}", name, (encode(f), encode(g)), (False,)))
    rng.shuffle(items)
    return items


def conjugacy_op(vnh, item, n, H, elements, state):
    f, g = elements
    (expected,) = item.params
    return Op(
        item.label,
        lambda: vnh.are_conjugate(f, g),
        lambda verdict: checks.check_verdict(expected, verdict),
    )


def oracle_items(vnh, rng):
    items = []
    for name, bound, planted, pairs, witness_carets in ORACLE:
        n, H = subgroup(vnh, name)
        kind = "planted" if planted else "separated"
        for _ in range(pairs):
            if planted:
                f, g, _h = planted_pair(
                    vnh, n, H, ORACLE_CARETS, rng.randint(0, witness_carets), rng
                )
            else:
                f, g = order_separated_pair(vnh, n, H, ORACLE_CARETS, rng)
            items.append(
                Item(f"{name} {kind} L={bound}", name, (encode(f), encode(g)), (bound, planted))
            )
    rng.shuffle(items)
    return items


def oracle_op(vnh, item, n, H, elements, state):
    f, g = elements
    bound, planted = item.params
    return Op(
        item.label,
        lambda: vnh.oracle_conjugate(f, g, bound),
        lambda h: checks.check_witness(vnh, f, g, planted, h),
    )


def census_items(vnh, rng):
    """The censuses are exhaustive enumerations: nothing is drawn from the
    seed."""
    return [Item(f"{name} p={p} L={leaves}", name, (), (p, leaves)) for name, p, leaves in CENSUS]


def census_op(vnh, item, n, H, elements, state):
    """`state` carries the V2(Id) p=2 count to the V4(Id) p=2 check, which
    runs after it in the same round."""
    p, max_leaves = item.params

    def run():
        lines = []
        count = vnh.class_census_experiment(n, H, p, max_leaves, report_lines=lines)
        return count, lines

    def check(out):
        count, lines = out
        ok = checks.check_census(vnh, n, H, p, count, lines)
        if (n, p) == (2, 2):
            state["v2"] = count
        if (n, p) == (4, 2):
            v2 = state.pop("v2", None)
            ok = ok and v2 is not None and checks.check_nonisomorphism(vnh, v2, count)
        return ok

    return Op(item.label, run, check)


def word_items(vnh, rng):
    items = []
    for name in WORD_GROUPS:
        n, H = subgroup(vnh, name)
        for length in WORD_FACTORS:
            for _ in range(WORDS):
                factors = [
                    random_element(vnh, n, H, rng.randint(1, WORD_CARETS), rng)
                    for _ in range(length)
                ]
                items.append(Item(f"{name} x{length}", name, tuple(map(encode, factors)), ()))
    rng.shuffle(items)
    return items


def word_op(vnh, item, n, H, factors, state):
    return Op(
        item.label,
        lambda: checks.diagram_product(vnh, factors),
        lambda product: checks.check_product(vnh, factors, product),
    )


# name -> (corpus generator, operation binder)
WORKLOADS = {
    "conjugacy": (conjugacy_items, conjugacy_op),
    "oracle": (oracle_items, oracle_op),
    "census": (census_items, census_op),
    "word": (word_items, word_op),
}
