import itertools

import pytest

from vnh.perms import Perm, Subgroup


def test_one_line_validation():
    with pytest.raises(ValueError):
        Perm((1, 1))
    with pytest.raises(ValueError):
        Perm((0, 1))
    assert Perm((2, 3, 1))(1) == 2


def test_composition_convention_right_factor_first():
    # (p * q)(i) = p(q(i))
    p = Perm((2, 1, 3))
    q = Perm((2, 3, 1))
    pq = p * q
    for i in (1, 2, 3):
        assert pq(i) == p(q(i))


def test_inverse_and_order():
    p = Perm((2, 3, 1))
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p.order() == 3
    assert Perm.identity(4).order() == 1
    assert p ** 3 == Perm.identity(3)
    assert p ** -1 == p.inverse()


def test_act_word_is_letterwise():
    p = Perm((2, 3, 1))
    assert p.act_word((1, 2, 3, 1)) == (2, 3, 1, 2)
    assert p.act_word(()) == ()


def test_orbits():
    p = Perm((2, 1, 3))
    assert p.orbits() == [(1, 2), (3,)]
    assert Perm.identity(3).orbits() == [(1,), (2,), (3,)]


def test_subgroup_enumeration():
    assert Subgroup.trivial(3).order == 1
    assert Subgroup.cyclic(4).order == 4
    assert Subgroup.symmetric(4).order == 24
    h = Subgroup.symmetric(3)
    for a, b in itertools.product(h.elements, repeat=2):
        assert a * b in h


def test_subgroup_conjugacy_classes():
    h = Subgroup.symmetric(3)
    swap = Perm((2, 1, 3))
    other = Perm((1, 3, 2))
    cyc = Perm((2, 3, 1))
    assert h.are_conjugate(swap, other)
    assert not h.are_conjugate(swap, cyc)
    # In the cyclic subgroup the two 3-cycles are not conjugate.
    c = Subgroup.cyclic(3)
    assert not c.are_conjugate(cyc, cyc * cyc)
    assert c.class_rep(cyc) == cyc
