"""Counting machinery: the mod-(n-1) congruence for conjugacy classes of
finite-cyclic subgroups, the order-p class count, the non-isomorphism
witness prime, a brute-force conjugacy oracle, and a class census over
enumerated elements.

The starred congruence  n_1|S_1| + ... + n_t|S_t| =* 1 (mod n-1)  counts
solutions as classes: each n_i matters only through its residue mod n-1
and whether it is zero, and the total must be congruent to 1 without being
zero.  For a cyclic group of prime order p the transitive space sizes are
1 and p, and the solution count minus the trivial homomorphism is exactly
n whenever p divides neither n-1 nor ord(P) — the engine computes it from
the congruence, never from the closed form; its signatures are counted
directly, never by enumerating tuples.

The oracle and the census decide on the triple view of tree-pair
candidates, {domain address: (range address, label)}: the oracle composes
and reduces no element, and the census builds one only for each class
representative.  The oracle first tests each candidate h of
`reduced_elements`, which tests reduction on tau and the labels, at a few
points x, where a witness must have f(h(x)) = h(g(x)).  The domain leaf of
h above each point and the letters below it are tabled once per domain
tree, h's range leaf addresses once per range tree, so the test costs
lookups in h.tau and h.labels; f's images of the points are kept for the
call.  Only a candidate that passes gets its triples, and h^-1 f h is
composed and reduced, the exact compare that decides.

The census searches every (domain, range) shape block.  Within a block a
depth-first search assigns each domain leaf a (range leaf, label) and
abandons a partial assignment as soon as one of the order test's probes,
all of whose leaves are assigned, fails; a candidate is tested for
reduction only once every probe has passed.  A probe that reaches an
unassigned leaf stops there and keeps its state; when that leaf is
assigned, the probe resumes from the state, not from its start.  The
probes of one domain shape share a table of the domain leaf above each
probe word, filled as they go and kept for every block of the shape.  A
reduced order-p candidate is bucketed by the loop records of the
permutation it induces on an invariant prefix code, read off its triples
with no diagram built by `closed._torsion_records`, the one reader of
torsion, which `closed.conjugacy_invariant` calls for every element too.
The key is `closed._invariant` of the records, the builder of every
conjugacy invariant, and the first candidate of each class is the
representative it reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .closed import _invariant, _torsion_records
from .elements import (
    TreePairElement,
    _at_point,
    _check_acts_on,
    _check_compatible,
    _collapse_once,
    _compose_triples,
    _image_form,
    _invert_triples,
    _is_identity,
    _leaf_above,
    _reduce_triples,
    _shape_blocks,
    element_from_triples,
    reduced_elements,
)
from .perms import Subgroup
from .trees import leaf_addresses


@dataclass(frozen=True)
class CongruenceInstance:
    """One instance of the starred congruence: arity n (congruence is taken
    mod n-1) and the transitive space sizes |S_1|, ..., |S_t|."""

    n: int
    sizes: tuple

    def __post_init__(self):
        _check_arity(self.n)
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("space sizes must be positive")


def count_congruence_solutions(inst: CongruenceInstance) -> int:
    """Number of solution classes of the starred congruence.

    Tuples (n_1, ..., n_t) of non-negative integers are classified by their
    (residue mod n-1, is-zero) signature; classes whose members satisfy the
    congruence are counted once.

    The signatures are counted directly rather than enumerated through
    tuples: per variable, zero or a nonzero residue r mod n-1.  Whether a
    signature solves the congruence depends on its residues only, and the
    total is zero exactly for the all-zero signature.
    """
    m = inst.n - 1
    # ways[x]: signatures of the variables so far whose total is x mod m.
    ways = [1] + [0] * (m - 1)
    for s in inst.sizes:
        step = [0] * m
        for x, w in enumerate(ways):
            step[x] += w  # n_i = 0
            for r in range(m):  # n_i nonzero, n_i = r mod m
                step[(x + r * s) % m] += w
        ways = step
    count = ways[1 % m]
    if 1 % m == 0:
        count -= 1  # the all-zero signature solves it, but its total is 0
    return count


def count_order_p_classes(n: int, p: int, ord_p: int) -> int:
    """Conjugacy classes of elements of order p in V_n(P), |P| = ord_p.

    Requires p prime with p dividing neither n-1 nor ord_p; the count comes
    from the cyclic-group congruence instance (transitive Z_p-spaces have
    sizes 1 and p) minus the trivial homomorphism.
    """
    _check_order_p(n, p, ord_p, "P")
    inst = CongruenceInstance(n, (1, p))
    return count_congruence_solutions(inst) - 1


def _check_order_p(n: int, p: int, order: int, group: str):
    """The preconditions of the order-p class count over a group of the given
    order, named `group` in messages: arity n >= 2, p prime, order >= 1, and
    p dividing neither n - 1 nor the order."""
    _check_arity(n)
    _check_prime(p)
    _check_positive(order, "group order")
    if (n - 1) % p == 0:
        raise ValueError(f"p = {p} divides n - 1 = {n - 1}")
    if order % p == 0:
        raise ValueError(f"p = {p} divides ord({group}) = {order}")


def _check_arity(n: int):
    if n < 2:
        raise ValueError("arity must be >= 2")


def _check_positive(value: int, what: str):
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1))


def _check_prime(p: int):
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _primes():
    return filter(_is_prime, itertools.count(2))


def nonisomorphism_witness(n: int, m: int, ord_p: int, ord_q: int) -> int:
    """Smallest prime dividing none of ord(P), ord(Q), n-1, m-1; the order-p
    class counts are then n and m, so V_n(P) and V_m(Q) are not isomorphic."""
    if n == m:
        raise ValueError("need two different arities")
    if n < 2 or m < 2:
        raise ValueError("arities must be >= 2")
    _check_positive(ord_p, "group order")
    _check_positive(ord_q, "group order")
    for p in _primes():
        if all(x % p for x in (ord_p, ord_q, n - 1, m - 1)):
            return p


def _commutes_at_probes(n, f_triples, g_triples):
    """A necessary test for h^-1 f h = g, given the triples {domain address:
    (range address, label)} of any representatives of f and g:
    `passes(h)` is True iff f(h(x)) = h(g(x)) at every probe point
    x = a c c c ..., one per domain leaf a of g and letter c.  A witness has
    f o h = h o g, so it passes.

    Points are compared in their unique form (`elements._image_form`).  The
    images g(x) are computed once, here.  Which domain leaf of h lies above
    x and above g(x), and the letters of each point below that leaf, depend
    only on h's domain tree, so they are tabled per domain tree, and h's
    range leaf addresses per range tree; a table is rebuilt only when h's
    tree is a different object from the last h's, which the candidates of
    one shape block of `reduced_elements` share.  Each h(x) then costs two
    lookups, in h.tau and h.labels, and the relabeling of a few letters.
    Each image f(y) is computed once per point y the candidates send a
    probe to: `f_at` is keyed by y's unique form, so a hit is exact, and it
    lives as long as `passes`."""
    probes = [((a, c), _at_point(g_triples, a, c)) for a in g_triples for c in range(1, n + 1)]
    f_at = {}
    dom = ran = table = ran_addrs = None

    def below(index, point):
        prefix, c = point
        a = _leaf_above(index, prefix, c)
        return index[a], prefix[len(a):], c

    def passes(h):
        nonlocal dom, ran, table, ran_addrs
        if h.domain_tree is not dom:
            dom = h.domain_tree
            index = {a: i for i, a in enumerate(leaf_addresses(dom))}
            table = [below(index, x) + below(index, gx) for x, gx in probes]
        if h.range_tree is not ran:
            ran = h.range_tree
            ran_addrs = leaf_addresses(ran)
        tau, labels = h.tau, h.labels
        for i, rest, c, gi, grest, gc in table:
            j = tau[i] - 1
            hx = _image_form(ran_addrs[j], labels[j], rest, c)
            fhx = f_at.get(hx)
            if fhx is None:
                fhx = f_at[hx] = _at_point(f_triples, *hx)
            j = tau[gi] - 1
            if fhx != _image_form(ran_addrs[j], labels[j], grest, gc):
                return False
        return True

    return passes


def oracle_conjugate(f: TreePairElement, g: TreePairElement, max_leaves: int):
    """Brute-force conjugacy witness search: the first reduced h with at
    most max_leaves leaves satisfying h^-1 f h = g, else None
    (inconclusive -- the oracle is one-sided, silence is not a verdict).

    The search runs in the triple view, and a candidate h of
    `reduced_elements` costs no dict until it passes the filter.  It is
    first tested at the probe points of the reduced g by point evaluation
    alone (`_commutes_at_probes`), through tables read once per tree of
    h and lookups in h.tau and h.labels; the filter rejects nearly
    every non-witness and never a witness.  The exact compare still
    decides: for a candidate that passes, h's triples are read, the
    triples of h^-1 f h composed by merge and collapsed without building a
    tree or an element, and reduced triples are equal exactly when the
    homeomorphisms are."""
    _check_compatible(f, g)
    _check_positive(max_leaves, "leaf bound")
    n = f.n
    target = _reduce_triples(n, g.triples())
    f_triples = f.triples()
    passes = _commutes_at_probes(n, f_triples, target)
    for h in reduced_elements(n, f.subgroup, max_leaves):
        if not passes(h):
            continue
        h_triples = h.triples()
        conj = _compose_triples(_compose_triples(_invert_triples(h_triples), f_triples), h_triples)
        if _reduce_triples(n, conj) == target:
            return h
    return None


def _prober(n, dom_addrs, p):
    """The padded probes of the order-p test for one domain shape, given by
    its leaf addresses `dom_addrs`; built once per shape and shared by every
    block of it.  Returns (starts, probe).

    A probe iterates the prefix action p times on the word a 1^pad below
    domain leaf a.  Labels act letter-wise, so the word is always
    prefix + c^m for one letter c; it is carried as (prefix, c, m), and the
    tail action as an image tuple.  Its state is (a, prefix, c, m, tail,
    steps left), and `starts` maps each domain leaf a, in `dom_addrs` order,
    to the state of its probe before the first step.

    `probe(triple_by_dom, state)` runs the probe on from `state`.  It returns
    True when the word comes back to a 1^pad with identity tail action, and
    False when it does not.  When it reaches a leaf that `triple_by_dom` has
    no triple for, it returns (leaf, state): resuming that state once the
    leaf has its triple goes on where the probe stopped.  A verdict depends
    only on the triples of the leaves the probe reads.  The domain leaf
    above prefix c^pad depends only on (prefix, c); it is found once per
    prober, by `elements._leaf_above` as the oracle's probes find theirs,
    and kept in a table that lives as long as the prober.  An
    identity label leaves the suffix, the letter and the tail as they are.
    """
    dom = frozenset(dom_addrs)
    pad = (p + 2) * max(map(len, dom)) + 1
    ident = tuple(range(1, n + 1))
    # (prefix, c) -> (the domain leaf above prefix c^pad, the letters of
    # prefix below it, the letters c the leaf takes off c^pad)
    leaf_at = {}

    def probe(triple_by_dom, state):
        a, prefix, c, m, tail, left = state
        while left:
            found = leaf_at.get((prefix, c))
            if found is None:
                leaf = _leaf_above(dom, prefix, c)
                found = leaf, prefix[len(leaf):], max(len(leaf) - len(prefix), 0)
                leaf_at[prefix, c] = found
            leaf, rest, drop = found
            hit = triple_by_dom.get(leaf)
            if hit is None:
                return leaf, (a, prefix, c, m, tail, left)
            b, lab = hit
            img = lab.images
            if img == ident:
                prefix = b + rest
            else:
                prefix = b + tuple([img[x - 1] for x in rest])
                c = img[c - 1]
                tail = tuple([img[t - 1] for t in tail])
            m -= drop
            left -= 1
        if c != 1 or tail != ident or len(prefix) + m != len(a) + pad:
            return False
        k = max(len(prefix), len(a))
        return prefix + (1,) * (k - len(prefix)) == a + (1,) * (k - len(a))

    return {a: (a, a, 1, pad, ident, p) for a in dom_addrs}, probe


def _block_passing_probes(prober, dom_addrs, ran_addrs, elems):
    """Every triple dict of one shape block whose probes all return True, in
    domain-leaf order, sorted by (tau, label indices): the candidate order
    of `reduced_elements` within the block.  `prober` is the (starts,
    probe) pair of `_prober` for the block's domain shape.

    A depth-first search assigns each domain leaf a (range leaf, label).
    A probe's verdict depends only on the leaves it reads, so a probe that
    fails once they are assigned rules out every completion, and the search
    backtracks at once.  Each undecided probe waits, with its state, for
    the leaf it stopped at; when that leaf is assigned, the probe resumes
    from its state rather than from its start.  The waiting set is copied
    for the next level only once every resumed probe has passed, and the
    next leaf assigned is the one the first resumed probe now waits for, so
    an orbit closes within p assignments.
    """
    starts, probe = prober
    k = len(dom_addrs)
    index = {a: i for i, a in enumerate(dom_addrs)}
    triple_by_dom = {}
    ran_of = [0] * k  # domain leaf index -> tau value
    label_of = [0] * k  # range leaf index -> label index
    used = [False] * k  # range leaves taken
    found = []

    def extend(waiting, x):
        # waiting: {probe start: (the unassigned leaf it stopped at, its state)}
        resumed = [(a, state) for a, (y, state) in waiting.items() if y == x]
        i = index[x]
        for j in range(k):
            if used[j]:
                continue
            used[j] = True
            ran_of[i] = j + 1
            b = ran_addrs[j]
            for li, lab in enumerate(elems):
                triple_by_dom[x] = (b, lab)
                stopped = []
                done = []
                for a, state in resumed:
                    got = probe(triple_by_dom, state)
                    if got is False:
                        break
                    if got is True:
                        done.append(a)
                    else:
                        stopped.append((a, got))
                else:
                    label_of[j] = li
                    if len(done) < len(waiting):
                        nxt = dict(waiting)
                        for a in done:
                            del nxt[a]
                        nxt.update(stopped)
                        # Next, the leaf the first resumed probe now waits for, else
                        # the leaf of the first probe still waiting.
                        _, (y, _) = next(iter(stopped or nxt.items()))
                        extend(nxt, y)
                    else:
                        found.append(
                            (tuple(ran_of), tuple(label_of), {a: triple_by_dom[a] for a in dom_addrs})
                        )
            del triple_by_dom[x]
            used[j] = False

    extend({a: (a, state) for a, state in starts.items()}, dom_addrs[0])
    found.sort(key=lambda t: t[:2])
    return [triple_by_dom for _, _, triple_by_dom in found]


def _order_p_candidates(n, subgroup, p, max_leaves):
    """The triple dicts, in domain-leaf order, of the tree-pair candidates
    with at most max_leaves leaves, reduced or not, other than the identity,
    whose order-p probes all return True, in the candidate order of
    `reduced_elements`: exactly the candidates of order p.  They are found
    by an orbit-pruned search per shape block (`_block_passing_probes`)
    instead of testing every candidate.  `_shape_blocks` yields the blocks
    of one domain shape together, and one prober serves them all."""
    elems = sorted(subgroup.elements)
    dom = prober = None
    for block_dom, dom_addrs, _ran, ran_addrs in _shape_blocks(n, max_leaves):
        if block_dom is not dom:
            dom = block_dom
            prober = _prober(n, dom_addrs, p)
        for triple_by_dom in _block_passing_probes(prober, dom_addrs, ran_addrs, elems):
            if not _is_identity(triple_by_dom):
                yield triple_by_dom


def class_census_experiment(
    n: int, subgroup: Subgroup, p: int, max_leaves: int, report_lines=None
) -> int:
    """Enumerate the reduced elements of order exactly p with at most
    max_leaves leaves, bucket them by conjugacy invariant, and return the
    class count (at most n, and equal to n once max_leaves realizes every
    class).

    Every (domain, range) shape block is searched, and the order-p
    candidates come out in the order of `reduced_elements`, so each class
    keeps the same first representative.  The search prunes a partial
    assignment as soon as one of its probes fails (`_order_p_candidates`),
    and reduction is tested only on the order-p candidates.  A reduced one
    is torsion, so its reduced closure is free loops alone, one per cycle of
    the permutation it induces on an invariant prefix code: the census reads
    those records off the triples (`closed._torsion_records`) and keys the
    element by `closed._invariant` of the triples and records, the builder
    behind `closed.conjugacy_invariant`.  Since p does not divide ord(H), every
    record must be (1, id) or (p, id), and the census asserts so.  An
    element is built only for the first of each class, its
    representative."""
    _check_order_p(n, p, subgroup.order, "H")
    _check_acts_on(n, subgroup)
    _check_positive(max_leaves, "leaf bound")
    classes = {}  # conjugacy invariant -> first element of the class
    for triple_by_dom in _order_p_candidates(n, subgroup, p, max_leaves):
        # _collapse_once mutates the dict only when it finds a collapse, and
        # an unreduced candidate is dropped.
        if _collapse_once(n, triple_by_dom):
            continue
        records = _torsion_records(n, triple_by_dom)
        if records is None or any(w not in (1, p) or not s.is_identity() for w, s in records):
            raise AssertionError(
                "order-p element with p coprime to ord(H) has no loop records, "
                "or a loop record other than (1, id) or (p, id)"
            )
        key = _invariant(n, subgroup, triple_by_dom, records)
        if key not in classes:
            classes[key] = element_from_triples(n, subgroup, triple_by_dom)
    reps = list(classes.values())
    if report_lines is not None:
        from .io import element_to_json

        for k, rep in enumerate(reps, start=1):
            report_lines.append(f"class {k}: representative = {element_to_json(rep)}")
        report_lines.append(f"classes={len(reps)} expected={n}")
    return len(reps)
