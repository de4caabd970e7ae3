"""Elements of the Thompson-like group V_n(H) as tree-pair quadruples.

An element is (domain tree, range tree, tau, labels): the homeomorphism of
the n-adic Cantor set sending u_i w  |->  u'_{tau(i)} s_{tau(i)}(w), where
u_i is the i-th domain leaf address, u'_j the j-th range leaf address, and
labels[j] = s_j in H is the tail permutation attached to range leaf j,
acting letter-wise on the infinite suffix.

The unreduced representatives of one homeomorphism differ by caret
expansions; `reduce_element` collapses to the unique fully reduced
representative, which doubles as the canonical form for equality, hashing
and enumeration.

Below the element API all arithmetic runs on one *triple view*: the dict
{domain leaf address: (range leaf address, label)} with one entry per leaf,
which `TreePairElement.triples()` returns in domain-leaf order.
Composition walks the range addresses of the first factor and the domain
addresses of the second in step: both are complete prefix codes in
lexicographic order, so one merge yields the leaves of their minimal common
expansion, each with the two triples above it.  Addresses are transported
through labels letter-wise; that letter-wise relabeling is what makes the
pulled-back address sets valid trees again.  Reduction collapses carets in
the dict, equality and order compare reduced dicts, and inversion swaps
each entry.  Elements, with their trees and validation, are built only
for what a caller receives: the enumeration builds one per reduced element
it yields, on the shape trees it already holds; the oracle builds none for
its intermediate products, and the census (`element_from_triples`) only
its class representatives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import itemgetter

from .perms import Perm, Subgroup
from .trees import (
    LEAF,
    all_trees,
    leaf_addresses,
    leaf_count,
    locate,
    random_tree,
    tree_from_addresses,
    validate_tree,
)


class ArityMismatch(ValueError):
    pass


class SubgroupMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TreePairElement:
    n: int
    subgroup: Subgroup
    domain_tree: tuple
    range_tree: tuple
    tau: tuple  # tau[i-1] = image of domain leaf i, 1-based
    labels: tuple  # labels[j-1] = Perm attached to range leaf j

    def __post_init__(self):
        validate_tree(self.domain_tree, self.n)
        validate_tree(self.range_tree, self.n)
        k = leaf_count(self.domain_tree)
        if leaf_count(self.range_tree) != k:
            raise ValueError("domain and range leaf counts differ")
        if sorted(self.tau) != list(range(1, k + 1)):
            raise ValueError(f"tau is not a bijection on 1..{k}: {self.tau}")
        if len(self.labels) != k:
            raise ValueError("one label per range leaf required")
        for lab in self.labels:
            if lab not in self.subgroup:
                raise ValueError(f"label {lab!r} not in H")

    @property
    def k(self) -> int:
        return len(self.tau)

    def domain_addresses(self):
        return leaf_addresses(self.domain_tree)

    def range_addresses(self):
        return leaf_addresses(self.range_tree)

    def triples(self):
        """{domain address: (range address, label)}, in domain-leaf order."""
        ran = self.range_addresses()
        labels = self.labels
        return {a: (ran[j - 1], labels[j - 1]) for a, j in zip(self.domain_addresses(), self.tau)}

    def key(self):
        """Hashable identity of the representative (not of the homeomorphism)."""
        return (
            self.n,
            self.domain_tree,
            self.range_tree,
            self.tau,
            tuple(l.images for l in self.labels),
        )

    def __repr__(self):
        from .trees import format_tree

        labs = [list(l.images) for l in self.labels]
        return (
            f"TreePairElement(n={self.n}, {format_tree(self.domain_tree)} -> "
            f"{format_tree(self.range_tree)}, tau={list(self.tau)}, labels={labs})"
        )


def element_from_triples(n, subgroup, triple_by_dom) -> TreePairElement:
    """The validated element whose triples are {domain address: (range
    address, label)}."""
    dom_addrs = sorted(triple_by_dom)
    ran_addrs = sorted(b for b, _ in triple_by_dom.values())
    ran_index = {b: j for j, b in enumerate(ran_addrs, start=1)}
    tau = tuple(ran_index[triple_by_dom[a][0]] for a in dom_addrs)
    labels = [None] * len(dom_addrs)
    for b, lab in triple_by_dom.values():
        labels[ran_index[b] - 1] = lab
    domain_tree = tree_from_addresses(dom_addrs, n)
    range_tree = tree_from_addresses(ran_addrs, n)
    return TreePairElement(n, subgroup, domain_tree, range_tree, tau, tuple(labels))


def identity_element(n: int, subgroup: Subgroup) -> TreePairElement:
    one = Perm.identity(n)
    return TreePairElement(n, subgroup, LEAF, LEAF, (1,), (one,))


def _check_compatible(f: TreePairElement, g: TreePairElement):
    if f.n != g.n:
        raise ArityMismatch(f"arity {f.n} != {g.n}")
    if f.subgroup != g.subgroup:
        raise SubgroupMismatch("elements live over different subgroups H")


def eval_prefix(g: TreePairElement, word):
    """Image of the branch B_word under g.

    Returns (image word, residual tail permutation); word must reach at
    least one domain leaf.
    """
    i, suffix = locate(g.domain_addresses(), tuple(word))
    j = g.tau[i - 1]
    lab = g.labels[j - 1]
    return g.range_addresses()[j - 1] + lab.act_word(suffix), lab


def _compose_triples(g_triples, f_triples):
    """Triples of g o f (f applied first) from the triples of g and f.

    Sorted by range address, f's range leaves b and g's domain leaves c are
    two complete prefix codes in lexicographic order, so walking them in step
    pairs every leaf w of their minimal common expansion (the longer of b
    and c) with the two triples above it.  The result is a fresh, unsorted dict.
    """
    fs = sorted(f_triples.items(), key=lambda t: t[1][0])
    gs = sorted(g_triples.items(), key=itemgetter(0))
    out = {}
    i = j = 0
    while i < len(fs):
        a, (b, s) = fs[i]
        c, (d, t) = gs[j]
        if len(b) >= len(c):
            w = b
            i += 1
            if len(b) == len(c) or i == len(fs) or fs[i][1][0][: len(c)] != c:
                j += 1
        else:
            w = c
            j += 1
            if j == len(gs) or gs[j][0][: len(b)] != b:
                i += 1
        x = w[len(b):]
        y = w[len(c):]
        out[a + s.inverse().act_word(x) if x else a] = (d + t.act_word(y) if y else d, t * s)
    return out


def compose(g: TreePairElement, f: TreePairElement) -> TreePairElement:
    """Representative of g o f (f applied first), on the leaves of the
    minimal common expansion of f's range tree and g's domain tree, found
    by one merge of the two sorted address lists (see `_compose_triples`)."""
    _check_compatible(f, g)
    return element_from_triples(f.n, f.subgroup, _compose_triples(g.triples(), f.triples()))


def _invert_triples(triple_by_dom):
    """Triples of g^-1: g(a w) = b s(w) gives g^-1(b v) = a s^-1(v)."""
    return {b: (a, lab.inverse()) for a, (b, lab) in triple_by_dom.items()}


def invert(g: TreePairElement) -> TreePairElement:
    """Inverse homeomorphism; the trees swap."""
    return element_from_triples(g.n, g.subgroup, _invert_triples(g.triples()))


def _collapse_once(n, triple_by_dom):
    """Find one collapsible caret pair; collapse it in place. True if found.

    A domain caret at u collapses when all children u.1 .. u.n are leaves
    mapped to r.s(1) .. r.s(n) for one permutation s equal to all n labels
    (then necessarily s in H, since labels live in H).
    """
    parents = {}
    for a in triple_by_dom:
        if a:
            parents.setdefault(a[:-1], set()).add(a[-1])
    full = range(1, n + 1)
    for u, children in parents.items():
        if len(children) != n:
            continue
        first = triple_by_dom.get(u + (1,))
        if first is None:
            continue
        b1, s = first
        if not b1 or b1[-1] != s(1):
            continue
        r = b1[:-1]
        ok = True
        for c in full:
            entry = triple_by_dom.get(u + (c,))
            if entry is None:
                ok = False
                break
            b, lab = entry
            if lab != s or b != r + (s(c),):
                ok = False
                break
        if ok:
            for c in full:
                del triple_by_dom[u + (c,)]
            triple_by_dom[u] = (r, s)
            return True
    return False


def _reduce_triples(n, triple_by_dom):
    """Collapse triple_by_dom in place until no caret collapses, and return
    it: the triple view of the reduced representative, which is unique, so
    two representatives define the same homeomorphism exactly when their
    reduced dicts are equal."""
    while _collapse_once(n, triple_by_dom):
        pass
    return triple_by_dom


def _is_identity(triple_by_dom) -> bool:
    """True iff the triples, of any representative, define the identity."""
    return all(a == b and lab.is_identity() for a, (b, lab) in triple_by_dom.items())


def reduce_element(g: TreePairElement) -> TreePairElement:
    """Unique fully collapsed representative of the same homeomorphism."""
    return element_from_triples(g.n, g.subgroup, _reduce_triples(g.n, g.triples()))


def is_reduced(g: TreePairElement) -> bool:
    return not _collapse_once(g.n, g.triples())


def equal_elements(f: TreePairElement, g: TreePairElement) -> bool:
    """True iff f and g define the same bijection of the Cantor set: their
    reduced triples are equal."""
    _check_compatible(f, g)
    return _reduce_triples(f.n, f.triples()) == _reduce_triples(g.n, g.triples())


def element_order(g: TreePairElement, cap: int = 10_000):
    """Smallest m <= cap with g^m = id, else None ("exceeds cap").  Powers
    are composed and reduced as triples."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    base = _reduce_triples(g.n, g.triples())
    acc = base
    for m in range(1, cap + 1):
        if _is_identity(acc):
            return m
        acc = _reduce_triples(g.n, _compose_triples(base, acc))
    return None


def expand_representative(g: TreePairElement, leaf_index: int) -> TreePairElement:
    """Re-encode g on a finer branch set: expand domain leaf i and the matching
    range leaf, acting on the new carets per the leaf's label."""
    if not 1 <= leaf_index <= g.k:
        raise IndexError(f"leaf index {leaf_index} out of range")
    triple_by_dom = g.triples()
    a = list(triple_by_dom)[leaf_index - 1]
    b, lab = triple_by_dom.pop(a)
    for c in range(1, g.n + 1):
        triple_by_dom[a + (c,)] = (b + (lab(c),), lab)
    return element_from_triples(g.n, g.subgroup, triple_by_dom)


def random_element(
    n: int, subgroup: Subgroup, rng: random.Random, max_carets: int = 3
) -> TreePairElement:
    """Random (not necessarily reduced) element with small trees."""
    m = rng.randrange(max_carets + 1)
    leaves = 1 + m * (n - 1)
    dom = random_tree(n, leaves, rng)
    ran = random_tree(n, leaves, rng)
    tau = list(range(1, leaves + 1))
    rng.shuffle(tau)
    elems = sorted(subgroup.elements)
    labels = tuple(rng.choice(elems) for _ in range(leaves))
    return TreePairElement(n, subgroup, dom, ran, tuple(tau), labels)


def _shape_blocks(n: int, max_leaves: int):
    """Every (domain shape, range shape) block with at most max_leaves
    leaves, as (dom, dom addresses, ran, ran addresses): leaf counts
    ascending, shapes in `all_trees` order.  Leaf addresses are computed
    once per tree shape."""
    k = 1
    while k <= max_leaves:
        shapes = [(t, leaf_addresses(t)) for t in all_trees(n, k)]
        for dom, dom_addrs in shapes:
            for ran, ran_addrs in shapes:
                yield dom, dom_addrs, ran, ran_addrs
        k += n - 1


def _candidates(n: int, subgroup: Subgroup, max_leaves: int):
    """Every tree-pair candidate with at most max_leaves leaves, reduced or
    not, as (dom, ran, tau, labels, {domain address: (range address, label)}).

    Candidates come in the enumeration order of `reduced_elements`: shape
    blocks as in `_shape_blocks`, then tau, then labels, both
    lexicographically.  Each candidate gets a fresh dict.
    """
    elems = sorted(subgroup.elements)
    for dom, dom_addrs, ran, ran_addrs in _shape_blocks(n, max_leaves):
        k = len(dom_addrs)
        for tau in itertools.permutations(range(1, k + 1)):
            # Domain leaf i maps to range leaf tau[i-1]; the label sits on
            # the range leaf.
            pairs = [(dom_addrs[i], ran_addrs[j - 1], j - 1) for i, j in enumerate(tau)]
            for labels in itertools.product(elems, repeat=k):
                yield dom, ran, tau, labels, {a: (b, labels[j]) for a, b, j in pairs}


def reduced_elements(n: int, subgroup: Subgroup, max_leaves: int):
    """All reduced elements with at most max_leaves leaves, deterministically.

    Each homeomorphism with a representative in range appears exactly once,
    as its reduced tree pair.  Reduction is tested on the triple view of each
    candidate (see `_candidates`), and only the reduced candidates are built
    (and validated) as elements.
    """
    for dom, ran, tau, labels, triple_by_dom in _candidates(n, subgroup, max_leaves):
        if not _collapse_once(n, triple_by_dom):
            yield TreePairElement(n, subgroup, dom, ran, tau, labels)
