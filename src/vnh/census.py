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

The oracle and the census run on the triple view of tree-pair candidates,
{domain address: (range address, label)}: the oracle composes and reduces
no element, and the census builds one only for each class representative.
The census searches every (domain, range) shape block.  Within a block a
depth-first search assigns each domain leaf a (range leaf, label) and
abandons a partial assignment as soon as one of the order test's probes,
all of whose leaves are assigned, fails; a candidate is tested for
reduction only once every probe has passed.  A reduced order-p candidate
is bucketed by the loop records of the permutation it induces on an
invariant prefix code, read off its triples with no diagram built (a
torsion element's reduced closure is free loops alone, refinement
equivalent to these records), and the first candidate of each class is
the representative it reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .closed import _loop_class
from .elements import (
    TreePairElement,
    _check_compatible,
    _collapse_once,
    _compose_triples,
    _invert_triples,
    _is_identity,
    _reduce_triples,
    _shape_blocks,
    element_from_triples,
    reduced_elements,
)
from .perms import Perm, Subgroup


@dataclass(frozen=True)
class CongruenceInstance:
    """One instance of the starred congruence: arity n (congruence is taken
    mod n-1) and the transitive space sizes |S_1|, ..., |S_t|."""

    n: int
    sizes: tuple
    starred: bool = True

    def __post_init__(self):
        _check_arity(self.n)
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("space sizes must be positive")


def count_congruence_solutions(inst: CongruenceInstance) -> int:
    """Number of solution classes of the (starred) congruence.

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
    if inst.starred and 1 % m == 0:
        count -= 1  # the all-zero signature solves it, but its total is 0
    return count


def count_order_p_classes(n: int, p: int, ord_p: int) -> int:
    """Conjugacy classes of elements of order p in V_n(P), |P| = ord_p.

    Requires p prime with p dividing neither n-1 nor ord_p; the count comes
    from the cyclic-group congruence instance (transitive Z_p-spaces have
    sizes 1 and p) minus the trivial homomorphism.
    """
    _check_arity(n)
    _check_prime(p)
    _check_positive(ord_p, "group order")
    if (n - 1) % p == 0:
        raise ValueError(f"p = {p} divides n - 1 = {n - 1}")
    if ord_p % p == 0:
        raise ValueError(f"p = {p} divides ord(P) = {ord_p}")
    inst = CongruenceInstance(n, (1, p))
    return count_congruence_solutions(inst) - 1


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


def oracle_conjugate(f: TreePairElement, g: TreePairElement, max_leaves: int):
    """Brute-force conjugacy witness search: the first reduced h with at
    most max_leaves leaves satisfying h^-1 f h = g, else None
    (inconclusive -- the oracle is one-sided, silence is not a verdict).

    The search runs in the triple view: g is reduced once, and for each
    candidate h of `reduced_elements` the triples of h^-1 f h are composed
    by merge and collapsed without building a tree or an element; reduced
    triples are equal exactly when the homeomorphisms are."""
    _check_compatible(f, g)
    _check_positive(max_leaves, "leaf bound")
    n = f.n
    target = _reduce_triples(n, g.triples())
    f_triples = f.triples()
    for h in reduced_elements(n, f.subgroup, max_leaves):
        h_triples = h.triples()
        conj = _compose_triples(_compose_triples(_invert_triples(h_triples), f_triples), h_triples)
        if _reduce_triples(n, conj) == target:
            return h
    return None


def _prober(n, dom, p):
    """The padded probe of the order-p test for one domain shape `dom` (a
    collection of the domain leaf addresses).

    `probe(triple_by_dom, a)` iterates the prefix action p times on the
    probe a 1^pad below domain leaf a.  Labels act letter-wise, so the probe
    word is always prefix + c^m for one letter c; it is carried as
    (prefix, c, m), and the tail action as an image tuple.  The probe
    returns True when the word comes back to a 1^pad with identity tail
    action and False when it does not.  `triple_by_dom` may hold the
    triples of only some leaves of `dom`: the probe then returns the first
    leaf it reaches that has none, and the leaves it reads before that one
    are the only ones its verdict depends on.
    """
    lengths = sorted(set(map(len, dom)))
    pad = (p + 2) * lengths[-1] + 1
    ident = tuple(range(1, n + 1))

    def probe(triple_by_dom, a):
        prefix, c, m = a, 1, pad
        tail = ident
        for _ in range(p):
            for cut in lengths:
                key = prefix[:cut] if cut <= len(prefix) else prefix + (c,) * (cut - len(prefix))
                if key in dom:
                    break
            else:
                raise AssertionError("probe reaches no domain leaf")
            hit = triple_by_dom.get(key)
            if hit is None:
                return key
            b, lab = hit
            img = lab.images
            if cut < len(prefix):
                prefix = b + tuple([img[x - 1] for x in prefix[cut:]])
            else:
                m -= cut - len(prefix)
                prefix = b
            c = img[c - 1]
            tail = tuple([img[t - 1] for t in tail])
        if c != 1 or tail != ident or len(prefix) + m != len(a) + pad:
            return False
        k = max(len(prefix), len(a))
        return prefix + (1,) * (k - len(prefix)) == a + (1,) * (k - len(a))

    return probe


def _order_exactly(n, triple_by_dom, p) -> bool:
    """Exact test for order p, p prime, on the triple view {domain address:
    (range address, label)} of any representative, reduced or not: g != id
    and g^p = id.

    g^p is the identity iff the prefix action, iterated p times on a padded
    probe below every domain leaf, returns each probe to itself with
    identity residual tail action (see `_prober`).  Order is a property of
    the homeomorphism, so the verdict does not depend on the representative.
    """
    if _is_identity(triple_by_dom):
        return False
    probe = _prober(n, triple_by_dom, p)
    return all(probe(triple_by_dom, a) is True for a in triple_by_dom)


def _block_passing_probes(probe, dom_addrs, ran_addrs, elems):
    """Every triple dict of one shape block whose probes all return True, in
    domain-leaf order, sorted by (tau, label indices): the order of
    `elements._candidates`.

    A depth-first search assigns each domain leaf a (range leaf, label).
    A probe's verdict depends only on the leaves it reads, so a probe that
    fails once they are assigned rules out every completion, and the search
    backtracks at once.  Each undecided probe waits for the leaf it stopped
    at; the next leaf assigned is the one the probe just rerun waits for, so
    an orbit closes within p assignments.
    """
    k = len(dom_addrs)
    index = {a: i for i, a in enumerate(dom_addrs)}
    triple_by_dom = {}
    ran_of = [0] * k  # domain leaf index -> tau value
    label_of = [0] * k  # range leaf index -> label index
    used = [False] * k  # range leaves taken
    found = []

    def extend(waiting, x):
        # waiting: {probe start: the unassigned leaf it stopped at}
        rerun = [a for a, y in waiting.items() if y == x]
        for j in range(k):
            if used[j]:
                continue
            used[j] = True
            ran_of[index[x]] = j + 1
            for li, lab in enumerate(elems):
                triple_by_dom[x] = (ran_addrs[j], lab)
                nxt = dict(waiting)
                for a in rerun:
                    got = probe(triple_by_dom, a)
                    if got is False:
                        break
                    if got is True:
                        del nxt[a]
                    else:
                        nxt[a] = got
                else:
                    label_of[j] = li
                    if nxt:
                        # Next, the leaf a rerun probe waits for, if any.
                        waited = (nxt[a] for a in rerun if a in nxt)
                        extend(nxt, next(itertools.chain(waited, nxt.values())))
                    else:
                        found.append(
                            (tuple(ran_of), tuple(label_of), {a: triple_by_dom[a] for a in dom_addrs})
                        )
            del triple_by_dom[x]
            used[j] = False

    extend({a: a for a in dom_addrs}, dom_addrs[0])
    found.sort(key=lambda t: t[:2])
    return [triple_by_dom for _, _, triple_by_dom in found]


def _order_p_candidates(n, subgroup, p, max_leaves):
    """The candidates of `_candidates(n, subgroup, max_leaves)` that pass
    `_order_exactly(n, ., p)`, in the same order and form, found by an
    orbit-pruned search per shape block (`_block_passing_probes`) instead
    of testing every candidate."""
    elems = sorted(subgroup.elements)
    for _dom, dom_addrs, _ran, ran_addrs in _shape_blocks(n, max_leaves):
        probe = _prober(n, frozenset(dom_addrs), p)
        for triple_by_dom in _block_passing_probes(probe, dom_addrs, ran_addrs, elems):
            if not _is_identity(triple_by_dom):
                yield triple_by_dom


def _torsion_loop_records(n, triple_by_dom):
    """Loop records [(L, s), ...] of a torsion element given as {domain
    address: (range address, label)}: one per cycle of the permutation g
    induces on a finite complete prefix code whose words g maps onto words
    of the code.  The cycle c_0 -> ... -> c_{L-1} -> c_0, with local labels
    g(c_i w) = c_{i+1} l_i(w), gives L and s = l_{L-1} * ... * l_0, the
    return map g^L(c_0 w) = c_0 s(w); these are the free loops of the
    reduced closure, up to the refinement `closed._loop_class` quotients.

    The code starts as the domain leaves and is refined until it is
    invariant: a word c whose image lies above several code words is
    split, and so is a code word that lies strictly above g(c).

    Precondition: g has finite order (the census calls this only on
    order-p candidates).  On an element of infinite order no finite
    invariant code exists and the refinement does not end.
    """
    code = dict(triple_by_dom)  # code word -> (image, local label)

    def split(u):
        d, lab = code.pop(u)
        img = lab.images
        for c in range(1, n + 1):
            code[u + (c,)] = (d + (img[c - 1],), lab)

    stable = False
    while not stable:
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
    records, seen = [], set()
    for c in code:
        if c in seen:
            continue
        length, s = 0, Perm.identity(n)
        while c not in seen:
            seen.add(c)
            c, lab = code[c]
            s = lab * s
            length += 1
        records.append((length, s))
    return records


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
    those records off the triples (`_torsion_loop_records`) and keys the
    element by ("", `_loop_class` of them), which is what
    `closed.closure_invariant` gives on that closure.  Since p does not
    divide ord(H), every record must be (1, id) or (p, id), and the census
    asserts so.  An element is built only for the first of each class, its
    representative."""
    _check_arity(n)
    _check_prime(p)
    _check_positive(max_leaves, "leaf bound")
    if (n - 1) % p == 0:
        raise ValueError(f"p = {p} divides n - 1 = {n - 1}")
    if subgroup.order % p == 0:
        raise ValueError(f"p = {p} divides ord(H) = {subgroup.order}")
    classes = {}  # conjugacy invariant -> first element of the class
    for triple_by_dom in _order_p_candidates(n, subgroup, p, max_leaves):
        # _collapse_once mutates the dict only when it finds a collapse, and
        # an unreduced candidate is dropped.
        if _collapse_once(n, triple_by_dom):
            continue
        records = _torsion_loop_records(n, triple_by_dom)
        if any(w not in (1, p) or not s.is_identity() for w, s in records):
            raise AssertionError(
                "order-p element with p coprime to ord(H) has a loop record "
                "other than (1, id) or (p, id)"
            )
        # gauge_canonical of a closure with no graph part is "".
        key = ("", _loop_class(records, subgroup))
        if key not in classes:
            classes[key] = element_from_triples(n, subgroup, triple_by_dom)
    reps = list(classes.values())
    if report_lines is not None:
        from .io import element_to_json

        for k, rep in enumerate(reps, start=1):
            report_lines.append(f"class {k}: representative = {element_to_json(rep)}")
        report_lines.append(f"classes={len(reps)} expected={n}")
    return len(reps)
