"""Finite n-ary trees, branch address sets, expansions and common expansions.

A tree is a nested tuple: the empty tuple ``LEAF`` is a leaf, and an internal
node is a tuple of exactly n subtrees.  A tree stands for a finite complete
set of pairwise independent branches of the n-adic Cantor set: its leaf
addresses (words over {1..n}, read off root-to-leaf with 1-based child
indices) are pairwise prefix-incomparable and cover every infinite word.

Leaf indices are 1-based throughout, ordered left to right (lexicographic on
addresses).

Text form: ``*`` is a leaf, ``( ... )`` wraps the n children of an internal
node, whitespace-insensitive.  ``(* * (* * *))`` is a 5-leaf ternary tree.

Trees are rebuilt from their address sets: the minimal common expansion of
two trees is the tree on the union of their leaf addresses less the proper
prefixes (`tree_from_addresses`).  Checking, reading, printing, expanding
and rebuilding a tree walk it with a loop or an explicit stack, so trees of
any depth work at the default recursion limit; only the generators
`all_trees` and `random_tree`, which build small trees, recurse.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from operator import itemgetter

LEAF = ()


def validate_tree(tree, n: int) -> int:
    """Check that tree is an n-ary tree, and return its leaf count."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node == LEAF:
            count += 1
        elif isinstance(node, tuple) and len(node) == n:
            stack.extend(reversed(node))
        else:
            raise ValueError(f"internal node must have exactly {n} children: {node!r}")
    return count


def leaf_addresses(tree):
    """Leaf address words in increasing lexicographic order."""
    if tree == LEAF:
        return [()]
    out = []
    stack = [((), tree)]
    while stack:
        prefix, node = stack.pop()
        if node == LEAF:
            out.append(prefix)
        else:
            for c in range(len(node), 0, -1):
                stack.append((prefix + (c,), node[c - 1]))
    return out


def expand_leaf(tree, leaf_index: int, n: int):
    """Replace the leaf_index-th leaf (1-based) with a caret of n leaves."""
    addrs = leaf_addresses(tree)
    if not 1 <= leaf_index <= len(addrs):
        raise IndexError(f"leaf index {leaf_index} out of range 1..{len(addrs)}")
    path = []  # (node, child index) on the way down to the leaf
    for c in addrs[leaf_index - 1]:
        path.append((tree, c))
        tree = tree[c - 1]
    tree = (LEAF,) * n
    for node, c in reversed(path):
        tree = node[: c - 1] + (tree,) + node[c:]
    return tree


def tree_from_addresses(addresses, n: int):
    """Rebuild the tree whose leaf address set is ``addresses``.

    The set must be complete and pairwise independent; raises otherwise.
    """
    addresses = sorted(addresses)
    if not addresses:
        raise ValueError("empty address set")
    # A frame (lo, hi, depth) is the subtree whose leaves are
    # addresses[lo:hi], which share their first `depth` letters; the leaves
    # below each child are a run of them.  None marks a node whose n
    # children are the last n subtrees done.
    done = []
    stack = [(0, len(addresses), 0)]
    while stack:
        frame = stack.pop()
        if frame is None:
            done[-n:] = [tuple(done[-n:])]
            continue
        lo, hi, depth = frame
        if len(addresses[lo]) == depth:
            if hi - lo > 1:
                raise ValueError("address set not independent (prefix clash)")
            done.append(LEAF)
            continue
        runs = []
        letter = itemgetter(depth)
        for c in range(1, n + 1):
            if lo == hi or addresses[lo][depth] != c:
                raise ValueError("address set not complete")
            start, lo = lo, bisect_right(addresses, c, lo, hi, key=letter)
            runs.append((start, lo, depth + 1))
        if lo < hi:
            raise ValueError("address set not complete")
        stack.append(None)
        stack.extend(reversed(runs))
    return done[0]


def common_expansion(t1, t2, n: int):
    """Minimal common expansion of two same-arity trees.

    Returns ``(tree, map1, map2)`` where ``map1[j-1]`` is the (1-based) leaf
    of t1 whose address is a prefix of result leaf j, and likewise ``map2``.
    The result's leaves are the leaf addresses of either tree that are no
    proper prefix of another; in sorted order, such a word would be a prefix
    of the next.
    """
    addrs1, addrs2 = leaf_addresses(t1), leaf_addresses(t2)
    words = sorted(set(addrs1).union(addrs2))
    leaves = [w for w, nxt in zip(words, words[1:] + [None]) if nxt is None or nxt[: len(w)] != w]

    def prefix_map(addrs):
        # Each result leaf lies below the input leaf that is its shortest
        # prefix among the input addresses.
        index = {a: i for i, a in enumerate(addrs, start=1)}
        return [next(index[w[:c]] for c in range(len(w) + 1) if w[:c] in index) for w in leaves]

    return tree_from_addresses(leaves, n), prefix_map(addrs1), prefix_map(addrs2)


def all_trees(n: int, leaves: int):
    """All n-ary trees with exactly ``leaves`` leaves."""
    if leaves == 1:
        yield LEAF
        return
    # Compositions of `leaves` into n positive parts, children independent.
    for parts in _compositions(leaves, n):
        for children in itertools.product(
            *(list(all_trees(n, k)) for k in parts)
        ):
            yield tuple(children)


def _compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def random_tree(n: int, leaves: int, rng: random.Random):
    """Random tree with exactly ``leaves`` leaves (must be 1 mod n-1)."""
    if leaves == 1:
        return LEAF
    if leaves < n or (leaves - 1) % (n - 1) != 0:
        raise ValueError(f"no {n}-ary tree has {leaves} leaves")
    # leaves = 1 + m(n-1); distribute the remaining m-1 carets over children.
    m = (leaves - 1) // (n - 1)
    parts = [1] * n
    for _ in range(m - 1):
        parts[rng.randrange(n)] += n - 1
    return tuple(random_tree(n, k, rng) for k in parts)


def parse_tree(text: str, n: int):
    """Parse the nested-parentheses text form."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack = []  # the children read so far of each open node, innermost last
    for pos, tok in enumerate(tokens):
        if tok == "(":
            stack.append([])
            continue
        if tok == "*":
            node = LEAF
        elif tok == ")" and stack:
            children = stack.pop()
            if len(children) != n:
                raise ValueError(f"internal node has {len(children)} children, expected {n}")
            node = tuple(children)
        else:
            raise ValueError(f"unexpected token {tok!r} in tree text")
        if not stack:
            if pos + 1 != len(tokens):
                raise ValueError(f"trailing tokens in tree text: {tokens[pos + 1:]}")
            return node
        stack[-1].append(node)
    raise ValueError("unbalanced '(' in tree text" if stack else "unexpected end of tree text")


def format_tree(tree) -> str:
    """The text form of tree."""
    tokens = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node == LEAF:
            tokens.append("*")
        elif node == ")":
            tokens.append(")")
        else:
            tokens.append("(")
            stack.append(")")
            stack.extend(reversed(node))
    return " ".join(tokens).replace("( ", "(").replace(" )", ")")
