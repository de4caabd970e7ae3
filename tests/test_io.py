import json

import pytest

from vnh.elements import random_element, reduce_element
from vnh.io import element_from_json, element_to_json, subgroup_from_spec
from vnh.perms import Perm, Subgroup


def test_round_trip_random(rng, group):
    n, h = group
    for _ in range(20):
        g = reduce_element(random_element(n, h, rng))
        text = element_to_json(g)
        back = element_from_json(text)
        assert back.key() == g.key()
        assert back.subgroup == g.subgroup
        # canonical printing: print-then-parse-then-print is stable
        assert element_to_json(back) == text


def test_subgroup_presets():
    assert subgroup_from_spec(3, "id").order == 1
    assert subgroup_from_spec(3, "cyclic").order == 3
    assert subgroup_from_spec(3, "sym").order == 6
    assert subgroup_from_spec(2, [[2, 1]]) == Subgroup.symmetric(2)
    assert subgroup_from_spec(3, "[[2, 3, 1]]") == Subgroup.cyclic(3)


def test_symmetric_h_at_n2_prints_one_generator():
    # For n = 2 the swap and the cycle generator of Sym(2) are one permutation.
    text = '{"n": 2, "H": "sym", "domain": "*", "range": "*", "tau": [1], "labels": [[2, 1]]}'
    assert json.loads(element_to_json(element_from_json(text)))["H"] == [[2, 1]]
    assert Subgroup.symmetric(2).generators == (Perm((2, 1)),)


def test_errors_name_offending_field():
    with pytest.raises(ValueError, match="tau"):
        element_from_json('{"n": 2, "H": [], "domain": "*", "range": "*", "labels": [[1,2]]}')
    with pytest.raises(ValueError, match="n"):
        element_from_json('{"n": 1, "H": [], "domain": "*", "range": "*", "tau": [1], "labels": [[1]]}')
    with pytest.raises(ValueError):
        element_from_json("not json")
    # label outside H
    with pytest.raises(ValueError):
        element_from_json(
            '{"n": 2, "H": [], "domain": "*", "range": "*", "tau": [1], "labels": [[2, 1]]}'
        )
