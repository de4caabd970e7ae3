import inspect
import random
import sys

import pytest

from vnh.diagrams import (
    SIGMA,
    SINK,
    SOURCE,
    SPLIT,
    MERGE,
    DiagramError,
    NotReducedError,
    StrandDiagram,
    _Graph,
    _internal_nodes,
    build_diagram,
    concatenate,
    cut_diagram,
    cut_to_element,
    diagram_equal,
    identity_diagram,
)
from vnh.elements import (
    TreePairElement,
    compose,
    equal_elements,
    expand_representative,
    identity_element,
    invert,
    random_element,
    reduce_element,
)
from vnh.perms import Perm, Subgroup
from vnh.rewriting import reduce
from vnh.trees import (
    LEAF,
    common_expansion,
    expand_leaf,
    leaf_addresses,
    parse_tree,
    random_tree,
)


def five_leaf_ternary_element():
    # Ternary 5-leaf tree pair with two non-identity labels.
    h = Subgroup.symmetric(3)
    dom = parse_tree("(* * (* * *))", 3)
    ran = parse_tree("((* * *) * *)", 3)
    s1 = Perm((2, 3, 1))
    s2 = Perm((1, 3, 2))
    one = Perm.identity(3)
    return TreePairElement(3, h, dom, ran, (2, 1, 3, 5, 4), (s1, one, one, s2, one))


def test_identity_builds_single_strand():
    d = build_diagram(identity_element(2, Subgroup.trivial(2)))
    c = d.counts()
    assert (c[SPLIT], c[MERGE], c[SIGMA]) == (0, 0, 0)
    assert d.p == d.q == 1


def test_five_leaf_two_label_counts():
    d = build_diagram(five_leaf_ternary_element())
    c = d.counts()
    assert (c[SPLIT], c[MERGE], c[SIGMA]) == (2, 2, 2)


def test_build_cut_round_trip(rng, group):
    n, h = group
    for _ in range(30):
        g = reduce_element(random_element(n, h, rng))
        d = reduce(build_diagram(g))
        back = cut_to_element(d, h)
        assert equal_elements(back, g)
        assert back.key() == g.key()


def test_cut_requires_reduced():
    h = Subgroup.trivial(2)
    one = Perm.identity(2)
    t = (LEAF, LEAF)
    g = TreePairElement(2, h, t, t, (1, 2), (one, one))  # unreduced identity
    with pytest.raises(NotReducedError):
        cut_diagram(build_diagram(g))


def test_cut_requires_1_1():
    with pytest.raises(DiagramError):
        cut_diagram(identity_diagram(2, 2))


def test_deep_combs_expand_and_cut_without_recursion():
    # The 401-leaf right and left V2 combs are 400 levels deep; with the
    # recursion limit 100 frames above this test, building them, their
    # common expansion and the cut of the reduced diagram of the element
    # between them must not recurse per level.  Nested trees are compared
    # through their leaf addresses and triples: `==` on nested tuples
    # recurses as well.
    h = Subgroup.trivial(2)
    one = Perm.identity(2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        right = left = LEAF
        for k in range(1, 401):
            right = expand_leaf(right, k, 2)
            left = expand_leaf(left, 1, 2)
        e, m_right, m_left = common_expansion(right, left, 2)
        g = TreePairElement(2, h, right, left, tuple(range(1, 402)), (one,) * 401)
        back = cut_to_element(reduce(build_diagram(g)), h)
    finally:
        sys.setrecursionlimit(limit)
    r, l = leaf_addresses(right), leaf_addresses(left)
    assert r[0] == (1,) and r[-1] == (2,) * 400 and l[0] == (1,) * 400 and l[-1] == (2,)
    # Left's leaves below (1,), then right's below (2,).
    assert leaf_addresses(e) == l[:-1] + r[1:]
    assert m_right == [1] * 400 + list(range(2, 402))
    assert m_left == list(range(1, 401)) + [401] * 400
    assert back.triples() == g.triples()


def test_internal_nodes_match_the_set_of_proper_prefixes(rng):
    # `_internal_nodes` stops each address's walk at the first prefix seen;
    # its output is the sorted set of every proper prefix, whatever the
    # order of the addresses (the range side passes them in domain order).
    def reference(addrs):
        return sorted({a[:i] for a in addrs for i in range(len(a))})

    for n in (2, 3, 4):
        for _ in range(100):
            addrs = leaf_addresses(random_tree(n, 1 + rng.randrange(12) * (n - 1), rng))
            rng.shuffle(addrs)
            assert _internal_nodes(addrs) == reference(addrs)
    assert _internal_nodes([()]) == []
    # Right combs: against the reference at 201 leaves, and against the
    # closed form (2,)*i, 0 <= i < 1200, at 1,201 leaves, where the
    # reference alone takes seconds.
    def right_comb(leaves):
        return [(2,) * i + (1,) for i in range(leaves - 1)] + [(2,) * (leaves - 1)]

    assert _internal_nodes(right_comb(201)[::-1]) == reference(right_comb(201))
    assert _internal_nodes(right_comb(1201)[::-1]) == [(2,) * i for i in range(1200)]


def test_diagram_equal_on_rebuilds(rng, group):
    n, h = group
    for _ in range(10):
        g = reduce_element(random_element(n, h, rng))
        assert diagram_equal(build_diagram(g), build_diagram(g))


def test_diagram_equal_distinguishes_labels():
    h = Subgroup.symmetric(3)
    one = Perm.identity(3)
    a = TreePairElement(3, h, LEAF, LEAF, (1,), (Perm((2, 3, 1)),))
    b = TreePairElement(3, h, LEAF, LEAF, (1,), (Perm((3, 1, 2)),))
    assert not diagram_equal(build_diagram(a), build_diagram(b))
    assert diagram_equal(build_diagram(a), build_diagram(a))


def test_determinism_under_vertex_shuffle(rng, group):
    # build_diagram is a function of the element: equal reduced elements give
    # equal diagrams, independent of construction history.
    n, h = group
    for _ in range(10):
        g = reduce_element(random_element(n, h, rng))
        expanded = expand_representative(g, rng.randrange(g.k) + 1)
        d1 = build_diagram(g)
        d2 = build_diagram(reduce_element(expanded))
        assert diagram_equal(d1, d2)


def test_concatenate_identity_is_neutral(rng, group):
    n, h = group
    for _ in range(10):
        g = reduce_element(random_element(n, h, rng))
        d = build_diagram(g)
        assert diagram_equal(concatenate(d, identity_diagram(n, 1)), d)
        assert diagram_equal(concatenate(identity_diagram(n, 1), d), d)


def test_concatenate_matches_composition(rng, group):
    # Diagrams compose top to bottom: concatenate(d_g, d_f) applies g first.
    n, h = group
    for _ in range(15):
        f = random_element(n, h, rng)
        g = random_element(n, h, rng)
        d = concatenate(build_diagram(g), build_diagram(f))
        expected = build_diagram(reduce_element(compose(f, g)))
        assert diagram_equal(reduce(d), expected)


def test_concatenate_inverse_reduces_to_identity(rng, group):
    n, h = group
    for _ in range(10):
        g = random_element(n, h, rng)
        d = concatenate(build_diagram(g), build_diagram(invert(g)))
        assert diagram_equal(reduce(d), identity_diagram(n, 1))


def test_counting_invariant(rng, group):
    n, h = group
    for _ in range(10):
        g = random_element(n, h, rng)
        d = build_diagram(g)
        c = d.counts()
        assert d.q - d.p == (n - 1) * (c[SPLIT] - c[MERGE])
        assert c[SPLIT] == c[MERGE]


def test_concatenate_arity_checks():
    d2 = identity_diagram(2, 1)
    d3 = identity_diagram(3, 1)
    with pytest.raises(DiagramError):
        concatenate(d2, d3)
    with pytest.raises(DiagramError):
        concatenate(identity_diagram(2, 2), identity_diagram(2, 3))


def test_dot_export_stable(rng):
    g = reduce_element(random_element(2, Subgroup.symmetric(2), rng))
    d = build_diagram(g)
    dot1 = d.to_dot()
    dot2 = build_diagram(g).to_dot()
    assert dot1 == dot2
    assert dot1.startswith("digraph strand {")
    assert "taillabel" in dot1 and "headlabel" in dot1


# The recursive builder `build_diagram` used before it was built on
# `_tree_pair_graph`: a reference for its vertex order and output.


def _reference_split_tree(g, tree, parent):
    if tree == LEAF:
        return [parent]
    v = g.new_vertex(SPLIT)
    g.add_edge(parent[0], parent[1], v, 0)
    out = []
    for c, child in enumerate(tree, start=1):
        out.extend(_reference_split_tree(g, child, (v, c)))
    return out


def _reference_merge_tree(g, tree, parent):
    if tree == LEAF:
        return [parent]
    v = g.new_vertex(MERGE)
    g.add_edge(v, 0, parent[0], parent[1])
    out = []
    for c, child in enumerate(tree, start=1):
        out.extend(_reference_merge_tree(g, child, (v, c)))
    return out


def _reference_build_diagram(elem):
    g = _Graph(elem.n)
    src = g.new_vertex(SOURCE)
    snk = g.new_vertex(SINK)
    dom_ports = _reference_split_tree(g, elem.domain_tree, (src, 0))
    ran_ports = _reference_merge_tree(g, elem.range_tree, (snk, 0))
    for i in range(1, elem.k + 1):
        j = elem.tau[i - 1]
        lab = elem.labels[j - 1]
        tail = dom_ports[i - 1]
        head = ran_ports[j - 1]
        if lab.is_identity():
            g.add_edge(tail[0], tail[1], head[0], head[1])
        else:
            v = g.new_vertex(SIGMA, lab)
            g.add_edge(tail[0], tail[1], v, 0)
            g.add_edge(v, 1, head[0], head[1])
    return StrandDiagram(g)


@pytest.mark.parametrize(
    "n,h",
    [
        (2, Subgroup.trivial(2)),
        (2, Subgroup.symmetric(2)),
        (3, Subgroup.symmetric(3)),
        (4, Subgroup.symmetric(4)),
    ],
    ids=["V2(Id)", "V2(Z2)", "V3(S3)", "V4(S4)"],
)
def test_build_diagram_matches_recursive_reference(n, h):
    # Unreduced elements as drawn, and their reductions; max_carets=3 draws
    # one-leaf elements a quarter of the time.
    rng = random.Random(4000 + n * 10 + h.order)
    one_leaf = 0
    for _ in range(300):
        g = random_element(n, h, rng, max_carets=3)
        one_leaf += g.k == 1
        for elem in (g, reduce_element(g)):
            d = build_diagram(elem)
            ref = _reference_build_diagram(elem)
            assert d.canonical() == ref.canonical()
            assert d.to_dot() == ref.to_dot()
            # Same vertex ids and edges, so the rewrite driver's schedule on
            # them is the same too.
            assert (d._g.kind, d._g.label, d._g.edges) == (ref._g.kind, ref._g.label, ref._g.edges)
    assert one_leaf > 0


def test_trusted_diagrams_are_valid(rng, group):
    # build_diagram, concatenate and reduce skip the constructor's checks;
    # their results must pass them.
    n, h = group
    for _ in range(100):
        factors = [random_element(n, h, rng) for _ in range(rng.randrange(2, 5))]
        diagrams = [build_diagram(f) for f in factors]
        d = diagrams[0]
        for nxt in diagrams[1:]:
            d = concatenate(d, nxt)
            diagrams.append(d)
        diagrams.append(reduce(d))
        for d in diagrams:
            d._g.check_ports()
            assert d._g.is_acyclic()
            assert StrandDiagram(d._g) == d
