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
the congruence, never from the closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .closed import closure_invariant, reduced_closure
from .elements import (
    TreePairElement,
    _check_compatible,
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
    congruence are counted once.  Any bound >= 2(n-1) realizes every class.
    """
    m = inst.n - 1
    if bound is None:
        bound = 2 * m * max(inst.sizes)
    bound = max(bound, 2 * m)
    classes = set()
    per_var = range(bound + 1)
    for tup in itertools.product(per_var, repeat=len(inst.sizes)):
        total = sum(k * s for k, s in zip(tup, inst.sizes))
        if total % m != 1 % m:
            continue
        if inst.starred and total == 0:
            continue
        classes.add(tuple((k % m, k == 0) for k in tup))
    return len(classes)


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


def _order_exactly(g: TreePairElement, p: int) -> bool:
    """Exact test for order p, p prime: g != id and g^p = id.

    A vanishing total depth shift across strands is necessary for torsion
    and rejects most elements immediately; the rest are decided by
    iterating the prefix action p times on a padded probe below every
    domain leaf: g^p is the identity iff each probe returns to itself with
    identity residual tail action.
    """
    triples = g.triples()
    if sum(len(b) - len(a) for a, b, _ in triples) != 0:
        return False
    if all(a == b and lab.is_identity() for a, b, lab in triples):
        return False  # identity
    by_dom = {a: (b, lab) for a, b, lab in triples}
    maxd = max(len(a) for a in by_dom)
    pad = (1,) * ((p + 2) * maxd + 1)

    def ev(word):
        for cut in range(len(word) + 1):
            hit = by_dom.get(word[:cut])
            if hit is not None:
                b, lab = hit
                return b + lab.act_word(word[cut:]), lab
        raise AssertionError("probe not deep enough")

    ident = Perm.identity(g.n)
    for a in by_dom:
        probe = a + pad
        w, tail = probe, ident
        for _ in range(p):
            w, lab = ev(w)
            tail = lab * tail
        if w != probe or not tail.is_identity():
            return False
    return True


def class_census_experiment(
    n: int, subgroup: Subgroup, p: int, max_leaves: int, report_lines=None
) -> int:
    """Enumerate elements of order exactly p with at most max_leaves leaves,
    bucket them by conjugacy invariant, and return the class count (at most
    n, and equal to n once max_leaves realizes every class).  Also asserts
    the reduced closure of every such element has no sigma-vertices, which
    holds whenever p does not divide ord(H)."""
    if (n - 1) % p == 0:
        raise ValueError(f"p = {p} divides n - 1 = {n - 1}")
    if subgroup.order % p == 0:
        raise ValueError(f"p = {p} divides ord(H) = {subgroup.order}")
    classes = {}  # conjugacy invariant -> first element of the class
    for g in reduced_elements(n, subgroup, max_leaves):
        if not _order_exactly(g, p):
            continue
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
