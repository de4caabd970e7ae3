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

The census runs on the triple view of tree-pair candidates, not on
elements.  It keeps only the (domain, range) shape blocks with equal depth
sums and skips every other block before its tau x labels candidates are
formed (see `_zero_depth_shift` for what this leaves out).  Each remaining
candidate gets the exact order test on its triples, and only order-p hits
are tested for reduction; a `TreePairElement` is built, validated and
closed only for a reduced order-p hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed import closure_invariant, reduced_closure
from .elements import (
    TreePairElement,
    _candidates,
    _check_compatible,
    _collapse_once,
    _compose_triples,
    _reduce_triples,
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
        if self.n < 2:
            raise ValueError("arity must be >= 2")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("space sizes must be positive")


def count_congruence_solutions(inst: CongruenceInstance, bound: int | None = None) -> int:
    """Number of solution classes of the (starred) congruence.

    Tuples (n_1, ..., n_t) with 0 <= n_i <= bound are classified by their
    (residue mod n-1, is-zero) signature; classes whose members satisfy the
    congruence are counted once.  Any bound >= 2(n-1) realizes every class,
    and a smaller bound is raised to 2(n-1), so the count never depends on it.

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
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"p = {p} is not prime")
    if (n - 1) % p == 0:
        raise ValueError(f"p = {p} divides n - 1 = {n - 1}")
    if ord_p % p == 0:
        raise ValueError(f"p = {p} divides ord(P) = {ord_p}")
    inst = CongruenceInstance(n, (1, p))
    return count_congruence_solutions(inst) - 1


def _primes():
    k = 2
    while True:
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            yield k
        k += 1


def nonisomorphism_witness(n: int, m: int, ord_p: int, ord_q: int) -> int:
    """Smallest prime dividing none of ord(P), ord(Q), n-1, m-1; the order-p
    class counts are then n and m, so V_n(P) and V_m(Q) are not isomorphic."""
    if n == m:
        raise ValueError("need two different arities")
    if n < 2 or m < 2:
        raise ValueError("arities must be >= 2")
    for p in _primes():
        if all(x % p for x in (ord_p, ord_q, n - 1, m - 1)):
            return p


def oracle_conjugate(f: TreePairElement, g: TreePairElement, max_leaves: int):
    """Brute-force conjugacy witness search: the first reduced h with at
    most max_leaves leaves satisfying h^-1 f h = g, else None
    (inconclusive -- the oracle is one-sided, silence is not a verdict).

    The search runs in the triple view: g is reduced once, and for each
    candidate h the triples of h^-1 f h are composed by merge and collapsed
    without building a tree or an element; reduced triple sets are equal
    exactly when the reduced elements' keys are."""
    _check_compatible(f, g)
    n = f.n
    target = _reduce_triples(n, g.triples())
    f_triples = f.triples()
    for h in reduced_elements(n, f.subgroup, max_leaves):
        h_triples = h.triples()
        h_inv = [(b, a, lab.inverse()) for a, b, lab in h_triples]
        conj = _compose_triples(_compose_triples(h_inv, f_triples), h_triples)
        if _reduce_triples(n, conj) == target:
            return h
    return None


def _order_exactly(n, triple_by_dom, p) -> bool:
    """Exact test for order p, p prime, on the triple view {domain address:
    (range address, label)} of any representative, reduced or not: g != id
    and g^p = id.

    g^p is the identity iff the prefix action, iterated p times on a padded
    probe below every domain leaf, returns each probe to itself with
    identity residual tail action.  Order is a property of the
    homeomorphism, so the verdict does not depend on the representative.
    """
    if all(a == b and lab.is_identity() for a, (b, lab) in triple_by_dom.items()):
        return False  # identity
    lengths = sorted(set(map(len, triple_by_dom)))
    pad = (1,) * ((p + 2) * lengths[-1] + 1)
    ident = Perm.identity(n)
    for a in triple_by_dom:
        probe = w = a + pad
        tail = ident
        for _ in range(p):
            for cut in lengths:
                hit = triple_by_dom.get(w[:cut])
                if hit is not None:
                    break
            else:
                raise AssertionError("probe not deep enough")
            b, lab = hit
            w = b + lab.act_word(w[cut:])
            tail = lab * tail
        if w != probe or not tail.is_identity():
            return False
    return True


def _zero_depth_shift(dom_addrs, ran_addrs):
    """True when the total depth shift sum(|range| - |domain|) over the
    strands vanishes, which depends on the two tree shapes only.

    The census keeps only these blocks, as the element-level order test it
    replaced did.  This is a restriction, not a consequence of torsion:
    (* (* (* (* *)))) -> (* ((* *) (* *))), tau = [2, 5, 3, 1, 4] is a
    reduced element of order 3 in V2(Id) with unequal depth sums.
    """
    return sum(map(len, dom_addrs)) == sum(map(len, ran_addrs))


def class_census_experiment(
    n: int, subgroup: Subgroup, p: int, max_leaves: int, report_lines=None
) -> int:
    """Enumerate the reduced elements of order exactly p with at most
    max_leaves leaves and equal domain and range depth sums (see
    `_zero_depth_shift`), bucket them by conjugacy invariant, and return the
    class count (at most n, and equal to n once max_leaves realizes every
    class).  Also asserts the reduced closure of every such element has no
    sigma-vertices, which holds whenever p does not divide ord(H).

    Candidates are enumerated as triples in the order of `reduced_elements`,
    so each class keeps the same first representative.  Shape blocks with
    unequal depth sums are skipped whole, the order test runs on the triples
    of every other candidate, and elements are built only for the reduced
    order-p hits."""
    if (n - 1) % p == 0:
        raise ValueError(f"p = {p} divides n - 1 = {n - 1}")
    if subgroup.order % p == 0:
        raise ValueError(f"p = {p} divides ord(H) = {subgroup.order}")
    classes = {}  # conjugacy invariant -> first element of the class
    candidates = _candidates(n, subgroup, max_leaves, keep_shapes=_zero_depth_shift)
    for dom, ran, tau, labels, triple_by_dom in candidates:
        # _collapse_once mutates the dict only when it finds a collapse, and
        # an unreduced candidate is dropped.
        if not _order_exactly(n, triple_by_dom, p) or _collapse_once(n, triple_by_dom):
            continue
        g = TreePairElement(n, subgroup, dom, ran, tau, labels)
        cd = reduced_closure(g)
        if cd.has_graph_part() and cd.sigma_vertex_count() > 0:
            raise AssertionError(
                "order-p element with p coprime to ord(H) has a sigma-vertex "
                "in its reduced closure"
            )
        classes.setdefault(closure_invariant(cd, subgroup), g)
    reps = list(classes.values())
    if report_lines is not None:
        from .io import element_to_json

        for k, rep in enumerate(reps, start=1):
            report_lines.append(f"class {k}: representative = {element_to_json(rep)}")
        report_lines.append(f"classes={len(reps)} expected={n}")
    return len(reps)
