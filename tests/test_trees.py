import itertools
import random

import pytest

from vnh.trees import (
    LEAF,
    all_trees,
    common_expansion,
    expand_leaf,
    format_tree,
    leaf_addresses,
    parse_tree,
    random_tree,
    tree_from_addresses,
)


def brute_force_minimal_refinement(addrs1, addrs2, max_depth):
    """Oracle: minimal words having a prefix in both address sets."""
    out = []

    def has_prefix(word, addrs):
        return any(word[: len(a)] == a for a in addrs)

    def visit(word, n):
        if has_prefix(word, addrs1) and has_prefix(word, addrs2):
            out.append(word)
            return
        assert len(word) < max_depth, "oracle ran past expected depth"
        for c in range(1, n + 1):
            visit(word + (c,), n)

    n = max(max(a) if a else 1 for a in addrs1 + addrs2) if addrs1 + addrs2 else 2
    n = max(
        n,
        max((max(a) for a in addrs1 if a), default=2),
        max((max(a) for a in addrs2 if a), default=2),
    )
    visit((), n)
    return sorted(out)


def test_leaf_addresses_single_leaf():
    assert leaf_addresses(LEAF) == [()]


def test_leaf_addresses_root_caret_n3():
    t = (LEAF, LEAF, LEAF)
    assert leaf_addresses(t) == [(1,), (2,), (3,)]


def test_leaf_addresses_five_leaf_ternary():
    # Five-leaf ternary tree: pairwise independent addresses.
    t = parse_tree("(* * (* * *))", 3)
    addrs = leaf_addresses(t)
    assert len(addrs) == 5
    for a, b in itertools.combinations(addrs, 2):
        assert a[: len(b)] != b and b[: len(a)] != a
    assert addrs == sorted(addrs)


def test_leaf_addresses_complete():
    t = parse_tree("((* *) (* (* *)))", 2)
    addrs = leaf_addresses(t)
    d = max(len(a) for a in addrs)
    for word in itertools.product((1, 2), repeat=d):
        hits = [a for a in addrs if word[: len(a)] == a]
        assert len(hits) == 1


def test_expand_leaf():
    assert expand_leaf(LEAF, 1, 2) == (LEAF, LEAF)
    comb = expand_leaf((LEAF, LEAF), 1, 2)
    assert comb == ((LEAF, LEAF), LEAF)
    assert len(leaf_addresses(comb)) == 3
    with pytest.raises(IndexError):
        expand_leaf(LEAF, 2, 2)


def test_expand_leaf_addresses_relation(rng):
    for _ in range(25):
        n = rng.choice([2, 3])
        t = random_tree(n, 1 + rng.randrange(4) * (n - 1), rng)
        addrs = leaf_addresses(t)
        i = rng.randrange(len(addrs)) + 1
        expanded = expand_leaf(t, i, n)
        u = addrs[i - 1]
        expected = sorted(addrs[: i - 1] + [u + (c,) for c in range(1, n + 1)] + addrs[i:])
        assert leaf_addresses(expanded) == expected


def test_tree_from_addresses_round_trip(rng):
    for _ in range(25):
        n = rng.choice([2, 3])
        t = random_tree(n, 1 + rng.randrange(5) * (n - 1), rng)
        assert tree_from_addresses(leaf_addresses(t), n) == t
    with pytest.raises(ValueError):
        tree_from_addresses([(1,)], 2)  # incomplete
    with pytest.raises(ValueError):
        tree_from_addresses([(), (1,), (2,)], 2)  # prefix clash


def test_common_expansion_trivial_cases():
    t = parse_tree("(* (* *))", 2)
    e, m1, m2 = common_expansion(t, t, 2)
    assert e == t
    assert m1 == m2 == [1, 2, 3]
    caret = (LEAF, LEAF)
    e, m1, m2 = common_expansion(LEAF, caret, 2)
    assert e == caret
    assert m1 == [1, 1] and m2 == [1, 2]


def test_common_expansion_is_minimal_refinement(rng):
    for _ in range(30):
        n = rng.choice([2, 3])
        t1 = random_tree(n, 1 + rng.randrange(4) * (n - 1), rng)
        t2 = random_tree(n, 1 + rng.randrange(4) * (n - 1), rng)
        e, m1, m2 = common_expansion(t1, t2, n)
        a1, a2 = leaf_addresses(t1), leaf_addresses(t2)
        expected = brute_force_minimal_refinement(a1, a2, max(map(len, a1 + a2)) + 1)
        got = leaf_addresses(e)
        assert got == expected
        # Maps send each result leaf to the input leaf whose address is a prefix.
        for j, addr in enumerate(got, start=1):
            u1 = a1[m1[j - 1] - 1]
            u2 = a2[m2[j - 1] - 1]
            assert addr[: len(u1)] == u1
            assert addr[: len(u2)] == u2


def test_common_expansion_idempotent(rng):
    for _ in range(10):
        n = 2
        t1 = random_tree(n, 1 + rng.randrange(4), rng)
        t2 = random_tree(n, 1 + rng.randrange(4), rng)
        e, _, _ = common_expansion(t1, t2, n)
        e2, _, _ = common_expansion(t1, e, n)
        assert e2 == e


def test_all_trees_counts():
    # Binary trees with k leaves: Catalan(k-1).
    for k, count in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14)]:
        assert len(list(all_trees(2, k))) == count
    assert len(list(all_trees(3, 3))) == 1
    assert len(list(all_trees(3, 5))) == 3
    assert list(all_trees(3, 2)) == []


def test_parse_format_round_trip(rng):
    for _ in range(20):
        n = rng.choice([2, 3])
        t = random_tree(n, 1 + rng.randrange(4) * (n - 1), rng)
        assert parse_tree(format_tree(t), n) == t
    assert parse_tree("  ( *   * ) ", 2) == (LEAF, LEAF)
    with pytest.raises(ValueError):
        parse_tree("(* *)", 3)
    with pytest.raises(ValueError):
        parse_tree("(* * *", 3)
