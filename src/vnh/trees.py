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


def leaf_count(tree) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node == LEAF:
            count += 1
        else:
            stack.extend(node)
    return count


def depth(tree) -> int:
    if tree == LEAF:
        return 0
    return 1 + max(depth(c) for c in tree)


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


def replace_at(tree, address, subtree):
    if not address:
        return subtree
    c = address[0]
    return tuple(
        replace_at(child, address[1:], subtree) if i == c else child
        for i, child in enumerate(tree, start=1)
    )


def expand_leaf(tree, leaf_index: int, n: int):
    """Replace the leaf_index-th leaf (1-based) with a caret of n leaves."""
    addrs = leaf_addresses(tree)
    if not 1 <= leaf_index <= len(addrs):
        raise IndexError(f"leaf index {leaf_index} out of range 1..{len(addrs)}")
    caret = tuple(LEAF for _ in range(n))
    return replace_at(tree, addrs[leaf_index - 1], caret)


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
    """

    def merge(a, b):
        if a == LEAF:
            return b
        if b == LEAF:
            return a
        return tuple(merge(ca, cb) for ca, cb in zip(a, b))

    tree = merge(t1, t2)

    def prefix_map(base):
        base_addrs = leaf_addresses(base)
        index = {a: i for i, a in enumerate(base_addrs, start=1)}
        out = []
        for addr in leaf_addresses(tree):
            for cut in range(len(addr) + 1):
                i = index.get(addr[:cut])
                if i is not None:
                    out.append(i)
                    break
            else:
                raise AssertionError("result does not refine input tree")
        return out

    return tree, prefix_map(t1), prefix_map(t2)


def locate(addresses, word):
    """Return ``(leaf_index, suffix)`` for the unique leaf address that is a
    prefix of ``word``; addresses must be sorted leaf addresses.

    Raises ValueError when the word is too shallow (a strict prefix of every
    candidate address on its path).
    """
    index = {a: i for i, a in enumerate(addresses, start=1)}
    for cut in range(len(word) + 1):
        i = index.get(word[:cut])
        if i is not None:
            return i, word[cut:]
    raise ValueError(f"word {word} too shallow: no leaf address is a prefix")


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
