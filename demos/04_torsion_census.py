#!/usr/bin/env python3
"""Counting conjugacy classes of prime-order elements, and why the arity
is an isomorphism invariant.

The classes of homomorphisms from a cyclic group into V_n correspond to
solution classes of a congruence mod n-1 over the transitive-space sizes.
For prime p dividing neither n-1 nor ord(H), the order-p elements of
V_n(H) fall into exactly n conjugacy classes -- so V_n and V_m with n != m
cannot be isomorphic.  The census below reproduces the count two ways:
from the congruence, and by brute-force enumeration, bucketing each
order-p element by the free-loop invariant of the conjugacy decision.
"""

from vnh import (
    Subgroup,
    count_congruence_solutions,
    count_order_p_classes,
    nonisomorphism_witness,
)
from vnh.census import CongruenceInstance, class_census_experiment

print("== congruence solution classes ==")
for n, p in [(2, 3), (3, 5), (4, 5), (5, 3), (6, 5)]:
    inst = CongruenceInstance(n, (1, p))
    total = count_congruence_solutions(inst)
    print(f"  n={n}, p={p}: {total} solution classes "
          f"({total - 1} nontrivial = expected {n})")

print("\n== order-p class counts across groups ==")
for n in range(2, 7):
    counts = []
    for p in (3, 5, 7, 11, 13):
        if (n - 1) % p == 0:
            counts.append(f"p={p}: n/a")
        else:
            counts.append(f"p={p}: {count_order_p_classes(n, p, 1)}")
    print(f"  n={n}: " + ", ".join(counts))

print("\n== the non-isomorphism witness ==")
for n, m, op, oq in [(2, 3, 1, 1), (3, 4, 1, 1), (2, 4, 2, 6)]:
    p = nonisomorphism_witness(n, m, op, oq)
    cn, cm = count_order_p_classes(n, p, op), count_order_p_classes(m, p, oq)
    print(f"  V_{n}(P) vs V_{m}(Q) with ord(P)={op}, ord(Q)={oq}: "
          f"prime {p} gives {cn} vs {cm} classes")

print("\n== brute-force census cross-check (V_2, order 3) ==")
lines = []
found = class_census_experiment(2, Subgroup.trivial(2), 3, 5, lines)
for line in lines:
    print(f"  {line}")
print(f"  (the congruence predicts {count_order_p_classes(2, 3, 1)})")
