"""Correctness checks for the benchmark's operations.

Every check decides from facts that do not depend on the code under test
giving today's answer: planted conjugates are conjugate by construction,
elements of different orders are never conjugate, a returned conjugator is
verified through a second arithmetic path, and census counts are compared
with the congruence count.  None of them compares against a stored copy of
earlier output.  Reduced closed diagrams are never compared by their
canonical strings: those depend on the rewrite schedule.

Each check returns True when the output is correct; it never raises on a
wrong output.
"""

from __future__ import annotations

REP_PREFIX = "representative = "


def check_verdict(expected: bool, verdict) -> bool:
    """`are_conjugate` verdict against the pair's construction: planted
    conjugates (f, w f w^-1) are True, order-separated pairs are False."""
    return verdict is expected


def diagram_product(vnh, factors):
    """Product of the factors through open strand diagrams, first factor
    acting first: build, concatenate, reduce, cut back to a tree pair."""
    d = vnh.build_diagram(factors[0])
    for e in factors[1:]:
        d = vnh.concatenate(d, vnh.build_diagram(e))
    return vnh.cut_to_element(vnh.reduce(d), factors[0].subgroup)


def check_witness(vnh, f, g, planted: bool, h) -> bool:
    """Oracle answer: a planted pair must get a witness h with h^-1 f h = g,
    checked on strand diagrams (h, then f, then h^-1), not through
    `compose`; an order-separated pair must get None."""
    if h is None:
        return not planted
    if not planted:
        return False
    product = diagram_product(vnh, [h, f, vnh.invert(h)])
    return product.key() == vnh.reduce_element(g).key()


def census_representatives(vnh, lines):
    """Representatives listed in a census report, parsed from element JSON."""
    reps = []
    for line in lines:
        if line.startswith("class ") and REP_PREFIX in line:
            reps.append(vnh.element_from_json(line.split(REP_PREFIX, 1)[1]))
    return reps


def check_census(vnh, n, subgroup, p, count, lines) -> bool:
    """Class count equals n and the congruence count; one representative per
    class, each of exact order p."""
    expected = vnh.count_order_p_classes(n, p, subgroup.order)
    if count != n or count != expected:
        return False
    reps = census_representatives(vnh, lines)
    if len(reps) != count:
        return False
    return all(vnh.element_order(rep, p) == p for rep in reps)


def check_nonisomorphism(vnh, count_v2, count_v4) -> bool:
    """The paper's witness: order-2 class counts of V_2 and V_4 differ, and 2
    is the witness prime for (n, m) = (2, 4) over trivial H."""
    return count_v2 != count_v4 and vnh.nonisomorphism_witness(2, 4, 1, 1) == 2


def check_product(vnh, factors, product) -> bool:
    """Diagram-path product against `reduce_element` of the compose-path
    product (compose(g, f) applies f first)."""
    acc = factors[0]
    for e in factors[1:]:
        acc = vnh.compose(e, acc)
    return product.key() == vnh.reduce_element(acc).key()
