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
each entry.  Torsion is decided on the dict as well
(`_torsion_loop_records`): it ends with the loop records of an invariant
prefix code, or with a cone that a power of the element maps strictly
into itself or onto a larger cone, or undecided at a code-size cap.  Its
one reader is `closed._torsion_records`, which falls back on the reduced
closure when it is undecided.  Elements are built only for what a
caller receives: the enumeration builds one per reduced element it
yields, unchecked, on the shape trees, permutations and H-instances it
already holds (`TreePairElement._trusted`); the oracle builds none for
its intermediate products, and the census (`element_from_triples`, which
validates) only its class representatives.  The enumeration is the one
place that tests reduction without a dict: per shape block it tables the
domain carets whose children are all leaves and the all-leaf range carets
(`_caret_tables`), per tau the carets that can collapse and the label each
needs (`_collapsing_carets`), and each candidate then costs identity tests
on its labels.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter

from .perms import Perm, Subgroup
from .trees import (
    LEAF,
    all_trees,
    format_tree,
    leaf_addresses,
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
    """One tree-pair representative of an element of V_n(H).

    `==` and `hash` compare representatives field by field (n, H, both
    trees, tau and the labels), as `key()` does apart from H: two
    representatives of one homeomorphism that differ by caret expansions
    are unequal.  `==` compares H and `key()`, which holds the trees in
    text form, so it works at any tree depth.  `equal_elements` compares
    the homeomorphisms, which is equality of the reduced representatives
    (`reduce_element`)."""

    n: int
    subgroup: Subgroup
    domain_tree: tuple
    range_tree: tuple
    tau: tuple  # tau[i-1] = image of domain leaf i, 1-based
    labels: tuple  # labels[j-1] = Perm attached to range leaf j

    def __post_init__(self):
        _check_acts_on(self.n, self.subgroup)
        k = validate_tree(self.domain_tree, self.n)
        if validate_tree(self.range_tree, self.n) != k:
            raise ValueError("domain and range leaf counts differ")
        # 1.0 and True equal 1, so the bijection test alone lets them through.
        tau = tuple(self.tau)
        if not all(type(i) is int for i in tau):
            raise ValueError(f"tau must hold integers, got {self.tau!r}")
        if sorted(tau) != list(range(1, k + 1)):
            raise ValueError(f"tau is not a bijection on 1..{k}: {self.tau}")
        if len(self.labels) != k:
            raise ValueError("one label per range leaf required")
        # Each label is swapped for H's own instance of it, so elements share
        # their labels instead of each holding copies.
        members = self.subgroup._members
        try:
            labels = tuple([members[lab] for lab in self.labels])
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} not in H") from None
        # A frozen dataclass refuses setattr; its fields live in __dict__.
        self.__dict__.update(tau=tau, labels=labels)

    @classmethod
    def _trusted(cls, n, subgroup, domain_tree, range_tree, tau, labels) -> "TreePairElement":
        """Element from fields already known to be valid, without the checks
        in ``__post_init__``.  The caller vouches for what those check: H
        acts on n letters, both trees are n-ary trees with the same leaf
        count k (as `all_trees(n, k)` builds them), tau is a permutation of
        1..k, and labels is a tuple of k of H's own instances (values of
        `subgroup._members`).  The element then equals the validated one,
        label instance for instance."""
        e = object.__new__(cls)
        # A frozen dataclass refuses setattr; its fields live in __dict__.
        e.__dict__.update(
            n=n,
            subgroup=subgroup,
            domain_tree=domain_tree,
            range_tree=range_tree,
            tau=tau,
            labels=labels,
        )
        return e

    @property
    def k(self) -> int:
        return len(self.tau)

    def domain_addresses(self):
        return leaf_addresses(self.domain_tree)

    def range_addresses(self):
        return leaf_addresses(self.range_tree)

    def triples(self):
        """{domain address: (range address, label)}, in domain-leaf order:
        domain leaf i goes to range leaf tau[i-1], which carries
        labels[tau[i-1]-1]."""
        dom_addrs, ran_addrs, labels = self.domain_addresses(), self.range_addresses(), self.labels
        return {a: (ran_addrs[j - 1], labels[j - 1]) for a, j in zip(dom_addrs, self.tau)}

    def key(self):
        """Hashable identity of the representative (not of the homeomorphism),
        with the trees in text form: nested tuples compare by recursion, one
        level at a time, and text compares at any depth."""
        return (
            self.n,
            format_tree(self.domain_tree),
            format_tree(self.range_tree),
            self.tau,
            tuple(l.images for l in self.labels),
        )

    def __eq__(self, other):
        """Field by field: the same H and the same `key()`."""
        if type(other) is not type(self):
            return NotImplemented
        return self.subgroup == other.subgroup and self.key() == other.key()

    def __repr__(self):
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


def _check_acts_on(n: int, subgroup: Subgroup):
    if subgroup.n != n:
        raise ValueError(f"subgroup H acts on {subgroup.n} letters, not n = {n}")


def _check_compatible(f: TreePairElement, g: TreePairElement):
    if f.n != g.n:
        raise ArityMismatch(f"arity {f.n} != {g.n}")
    if f.subgroup != g.subgroup:
        raise SubgroupMismatch("elements live over different subgroups H")


def eval_prefix(g: TreePairElement, word):
    """Image of the branch B_word under g.

    Returns (image word, residual tail permutation); word must reach at
    least one domain leaf.  The domain leaf above the branch is the
    shortest prefix of word among the keys of the triples.  A letter
    outside 1..n raises ValueError naming it, above the domain leaf as
    well as below it.
    """
    word = tuple(word)
    for c in word:
        if not 1 <= c <= g.n:
            raise ValueError(f"letter {c} is not in 1..{g.n}")
    triple_by_dom = g.triples()
    for cut in range(len(word) + 1):
        hit = triple_by_dom.get(word[:cut])
        if hit is not None:
            b, lab = hit
            return b + lab.act_word(word[cut:]), lab
    raise ValueError(f"word {word} too shallow: no leaf address is a prefix")


def _compose_triples(g_triples, f_triples):
    """Triples of g o f (f applied first) from the triples of g and f.

    Sorted by range address, f's range leaves b and g's domain leaves c are
    two complete prefix codes in lexicographic order, so walking them in step
    pairs every leaf w of their minimal common expansion (the longer of b
    and c) with the two triples above it.  The result is a fresh, unsorted dict.
    A factor has few distinct labels, so each inverse image tuple and each
    product label is computed once per call, keyed on image tuples.
    """
    fs = sorted(f_triples.items(), key=lambda t: t[1][0])
    gs = sorted(g_triples.items(), key=itemgetter(0))
    out = {}
    inverse = {}  # s.images -> the images of s^-1
    product = {}  # (t.images, s.images) -> t * s
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
        if x:
            inv = inverse.get(s.images)
            if inv is None:
                inv = inverse[s.images] = s.inverse().images
            a += tuple([inv[z - 1] for z in x])
        y = w[len(c):]
        if y:
            img = t.images
            d += tuple([img[z - 1] for z in y])
        key = t.images, s.images
        ts = product.get(key)
        if ts is None:
            ts = product[key] = t * s
        out[a] = (d, ts)
    return out


def _leaf_above(leaves, prefix, c):
    """The address in `leaves`, a complete prefix code, that is a prefix of
    the eventually constant point prefix c c c ...: its shortest prefix
    there."""
    k = 0
    while True:
        key = prefix[:k] if k <= len(prefix) else prefix + (c,) * (k - len(prefix))
        if key in leaves:
            return key
        k += 1


def _image_form(b, lab, rest, c):
    """The point b s(rest) s(c) s(c) ..., s = lab acting letter-wise, in its
    unique form (prefix', c'): prefix' does not end in c', so two points are
    equal exactly when their forms are.  It is the image of the point
    a rest c c c ... under a triple a -> (b, lab)."""
    img = lab.images
    word = b + tuple([img[x - 1] for x in rest]) if rest else b
    c = img[c - 1]
    end = len(word)
    while end and word[end - 1] == c:
        end -= 1
    return word[:end], c


def _at_point(triple_by_dom, prefix, c):
    """Image of the eventually constant point prefix c c c ... under the
    triples {domain address: (range address, label)} of any representative,
    in its unique form (`_image_form`), read through the domain leaf above
    the point (`_leaf_above`)."""
    a = _leaf_above(triple_by_dom, prefix, c)
    b, lab = triple_by_dom[a]
    return _image_form(b, lab, prefix[len(a):], c)


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

    A domain caret at u collapses when its first child a = u.1 is a leaf
    mapped to r.s(1) under label s and every child u.c is a leaf mapped to
    r.s(c) under the same s (then s is in H, since labels live in H).  One
    pass over the leaves a = u.1 finds such a caret.
    """
    for a, (b, s) in triple_by_dom.items():
        if not a or a[-1] != 1 or not b or b[-1] != s(1):
            continue
        u, r = a[:-1], b[:-1]
        if all(triple_by_dom.get(u + (c,)) == (r + (s(c),), s) for c in range(2, n + 1)):
            for c in range(1, n + 1):
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


# `_torsion_loop_records` gives up, as inconclusive, once its code holds more
# than this many words per domain leaf (see its docstring).
_CODE_WORDS_PER_LEAF = 64


class _Nesting(namedtuple("_Nesting", "word power image")):
    """Certificate of infinite order: g^power maps the cone of `word` onto
    the cone of `image`, which lies strictly inside or strictly around it."""

    __slots__ = ()


def _orbit_nesting(code):
    """The first code word c, in code order, whose cone orbit through the
    code map reaches a proper extension or a proper prefix of c within
    len(code) steps, as a `_Nesting`; else None.

    `code` maps each word of a complete prefix code below the domain
    leaves to (image, local label).  The orbit of cone(x) continues while
    x lies at or below a code word e, where g(e w) = image(e) label(w); it
    stops when x lies strictly above code words (g then maps cone(x) onto a
    union of cones) or comes back to c."""
    size = len(code)
    for c in code:
        x = c
        for power in range(1, size + 1):
            e = next((x[:j] for j in range(len(x) + 1) if x[:j] in code), None)
            if e is None:
                break
            d, lab = code[e]
            img = lab.images
            x = d + tuple([img[t - 1] for t in x[len(e):]])
            if x == c:
                break
            if _nested(c, x):
                return _Nesting(c, power, x)
    return None


def _nested(u, v):
    """True iff one of the words u, v is a proper prefix of the other: their
    cones are strictly nested."""
    if len(u) > len(v):
        u, v = v, u
    return len(u) < len(v) and v[: len(u)] == u


def _torsion_loop_records(n, triple_by_dom):
    """Decide torsion on the triples {domain address: (range address,
    label)} of any representative, with no closed diagram (callers pass the
    reduced one, for which termination is shown below).  Returns one of:

      * the loop records [(L, s), ...] of a finite order element: one per
        cycle of the permutation g induces on a finite complete prefix code
        whose words g maps onto words of the code.  The cycle
        c_0 -> ... -> c_{L-1} -> c_0, with local labels
        g(c_i w) = c_{i+1} l_i(w), gives L and s = l_{L-1} * ... * l_0, the
        return map g^L(c_0 w) = c_0 s(w).  These are the free loops of the
        reduced closure, up to the refinement `closed._loop_class`
        quotients, and g has order lcm(L * ord(s));
      * a `_Nesting` (c, k, x) when g has infinite order: g^k maps cone(c)
        onto cone(x), strictly inside or strictly around it;
      * None, inconclusive: the code outgrew `_CODE_WORDS_PER_LEAF` words
        per domain leaf.  Its one caller, `closed._torsion_records`, then
        decides on the reduced closure.

    The code starts as the domain leaves and is refined until it is
    invariant: for a word c whose image d is not a code word, the code word
    strictly above d is split if there is one, and c is split otherwise (d
    then lies strictly above several code words).  A split of u replaces
    it by u 1, ..., u n, mapped to d s(1), ..., d s(n) under the same label.

    Soundness.  Every code word lies below a domain leaf, so g maps each
    cone(c) onto cone(d) by prefix replacement, and the orbit walk of
    `_orbit_nesting` follows g^k(cone c) exactly.  If g^k(cone c) lies
    strictly inside cone(c), then g^(jk)(cone c) lies strictly inside
    cone(c) for every j >= 1, so no power of g is the identity; strictly
    around it, the same holds for g^-1.  The records are read only off a
    code g permutes, and then g^L acts on cone(c_0) as c_0 w -> c_0 s(w).

    Termination on torsion.  A reduced pair has no caret inside a cone on
    which it acts by one prefix replacement (the lowest such caret would
    collapse).  Let g have order m, and Q be the coarsest complete prefix
    code refining the reduced domain leaves of g, g^2, ..., g^m.  For q in
    Q, each g^j = g^(j+1) g^-1 acts on g(cone q) by one prefix replacement,
    so g(Q) refines Q, has as many words, and is Q: Q is invariant.  Each
    split is forced, in that no invariant code P refining the current one
    keeps the word split.  If d lies strictly above code words, c in P would
    put d in P above words of P.  If d lies strictly below the code word e,
    e in P would keep d, hence c, out of P, and the words of P below c would
    map to words of P strictly below e.  So Q refines every code made, the
    code never outgrows Q, and refinement ends, at the coarsest invariant
    code refining the domain leaves.  Composing adds at most the carets of
    the factors, so for N domain leaves the pair of g^j has at most
    j(N-1)/(n-1) carets, and Q at most 1 + (N-1)m(m-1)/2 words: below the
    cap for every order m <= 11.

    Infinite order.  No finite invariant code exists (it would give g
    finite order), so refinement never ends, and the revealing-pair
    picture supplies a cone that some power of g maps strictly into itself
    (Brin, "Higher dimensional Thompson groups", 2004; Salazar-Diaz,
    "Thompson's group V from a dynamical viewpoint", 2010; Belk-Matucci,
    "Conjugacy and dynamics in Thompson's groups", 2014).  It is looked for
    twice.  First each domain leaf a is checked against its image b, before
    any split: that covers every code word refinement can make, since a
    word a v maps to b s(v), which is nested with a v only if b is nested
    with a.  Then, once the code has grown past twice the leaf count, every
    code word's cone orbit is walked (`_orbit_nesting`), again each time
    the code doubles after that.  The walk catches nestings of period above
    one, such as 2 -> 1 2 -> 2 2 in V2(Id).  That it meets one before
    the cap is not proved, which is why the cap exists.  It is never
    reached in practice: on the bench `conjugacy` corpora of seeds 1-3
    (11,040 elements), and on random elements and torsion conjugates of up
    to 55 leaves and orders far above 11 over V2(Id), V2(Z2), V3(S3), V4(S4)
    and V4(Z3), invariant codes had at most 11 words per leaf, and infinite
    order was certified with at most 4.
    """
    for c, (d, _) in triple_by_dom.items():
        if _nested(c, d):
            return _Nesting(c, 1, d)
    code = dict(triple_by_dom)  # code word -> (image, local label)
    cap = _CODE_WORDS_PER_LEAF * len(code)
    walk_at = 2 * len(code)

    def split(u):
        d, lab = code.pop(u)
        img = lab.images
        for c in range(1, n + 1):
            code[u + (c,)] = (d + (img[c - 1],), lab)

    while True:
        stable = True
        for c in list(code):
            if c not in code:
                continue
            d = code[c][0]
            if d in code:
                continue
            stable = False
            above = next((d[:k] for k in range(len(d)) if d[:k] in code), None)
            split(c if above is None else above)
        if stable:
            break
        if len(code) > cap:
            return None
        if len(code) > walk_at:
            walk_at = 2 * len(code)
            nesting = _orbit_nesting(code)
            if nesting is not None:
                return nesting
    records, seen = [], set()
    ident = tuple(range(1, n + 1))
    for c in code:
        if c in seen:
            continue
        # s = lab * s on image tuples; one Perm per record.
        length, s = 0, ident
        while c not in seen:
            seen.add(c)
            c, lab = code[c]
            img = lab.images
            s = tuple([img[j - 1] for j in s])
            length += 1
        records.append((length, Perm._trusted(s)))
    return records


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


def _caret_tables(n: int, dom_addrs, ran_addrs):
    """The two tables of one shape block that reduction is tested on, from
    the leaf addresses of its trees: the domain carets whose n children are
    all leaves, each as its children's leaf indices (0-based) in letter
    order, and per range leaf, (caret number, letter) when its parent caret
    has only leaf children, else None."""

    def carets(addrs):
        index = {a: i for i, a in enumerate(addrs)}
        kids = [
            tuple(index.get(a[:-1] + (c,)) for c in range(1, n + 1))
            for a in addrs
            if a and a[-1] == 1
        ]
        return [t for t in kids if None not in t]

    ran_caret = [None] * len(ran_addrs)
    for number, kids in enumerate(carets(ran_addrs)):
        for c, j in enumerate(kids, start=1):
            ran_caret[j] = (number, c)
    return carets(dom_addrs), ran_caret


def _collapsing_carets(tau, tables, by_images):
    """The domain carets of a block (`_caret_tables`) that collapse under
    tau for some labels, each as (js, s): its children go to the range
    leaves js (0-based, in letter order), and it collapses exactly when
    labels[j] is s for every j in js.  This is the test of `_collapse_once`:
    child c must go to child s(c) of one range caret whose children are all
    leaves, under the label s of every child, so s is read off the letters
    of the range children, and it must be in H.  `by_images` maps each
    image tuple of H to H's own instance."""
    dom_carets, ran_caret = tables
    pinned = []
    for kids in dom_carets:
        js = tuple([tau[i] - 1 for i in kids])
        at = [ran_caret[j] for j in js]
        if None not in at and len({number for number, _ in at}) == 1:
            s = by_images.get(tuple([c for _, c in at]))
            if s is not None:
                pinned.append((js, s))
    return pinned


def _collapses(labels, pinned):
    """True iff labels, a tuple of H's own instances, collapse one of the
    carets `_collapsing_carets` pinned for the candidate's tau."""
    for js, s in pinned:
        for j in js:
            if labels[j] is not s:
                break
        else:
            return True
    return False


def reduced_elements(n: int, subgroup: Subgroup, max_leaves: int):
    """All reduced elements with at most max_leaves leaves, deterministically.

    Each homeomorphism with a representative in range appears exactly once,
    as its reduced tree pair.  Candidates come in shape blocks as in
    `_shape_blocks`, then tau, then labels, both lexicographically.
    Reduction is tested on tau and the labels, with no triple dict: the
    carets of a block are tabled once (`_caret_tables`), the carets that can
    collapse under tau, with the label each needs, once per tau
    (`_collapsing_carets`), and each candidate then costs identity tests of
    its labels (`_collapses`), none at all under a tau that pins no caret.
    Only the reduced candidates are built as elements, unchecked
    (`TreePairElement._trusted`): their trees come from `all_trees`, tau
    from `permutations` and the labels are H's own instances, so each
    equals the validated element.  The candidates of one shape block share
    their tree objects.
    """
    _check_acts_on(n, subgroup)
    elems = sorted(subgroup.elements)
    by_images = {lab.images: lab for lab in elems}
    for dom, dom_addrs, ran, ran_addrs in _shape_blocks(n, max_leaves):
        k = len(dom_addrs)
        tables = _caret_tables(n, dom_addrs, ran_addrs)
        for tau in itertools.permutations(range(1, k + 1)):
            pinned = _collapsing_carets(tau, tables, by_images)
            for labels in itertools.product(elems, repeat=k):
                if not (pinned and _collapses(labels, pinned)):
                    yield TreePairElement._trusted(n, subgroup, dom, ran, tau, labels)
