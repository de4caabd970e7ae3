import itertools
import random

import pytest

from vnh.elements import _shape_blocks
from vnh.perms import Perm, Subgroup


@pytest.fixture
def rng():
    return random.Random(20260808)


def group_v2_id():
    return 2, Subgroup.trivial(2)


def group_v2_z2():
    return 2, Subgroup.symmetric(2)


def group_v3_s3():
    return 3, Subgroup.symmetric(3)


TEST_GROUPS = {
    "V2(Id)": group_v2_id,
    "V2(Z2)": group_v2_z2,
    "V3(S3)": group_v3_s3,
}


@pytest.fixture(params=sorted(TEST_GROUPS))
def group(request):
    return TEST_GROUPS[request.param]()


def swap2():
    return Perm((2, 1))


def candidates(n, subgroup, max_leaves):
    """Every tree-pair candidate with at most max_leaves leaves, reduced or
    not, as (dom, ran, tau, labels, {domain address: (range address, label)}):
    the reference enumeration that `reduced_elements` filters.

    Candidates come in the enumeration order of `reduced_elements`: shape
    blocks as in `_shape_blocks`, then tau, then labels, both
    lexicographically.  Each candidate gets a fresh dict.
    """
    elems = sorted(subgroup.elements)
    for dom, dom_addrs, ran, ran_addrs in _shape_blocks(n, max_leaves):
        k = len(dom_addrs)
        for tau in itertools.permutations(range(1, k + 1)):
            # Domain leaf i maps to range leaf tau[i-1]; the label sits on
            # the range leaf.
            pairs = [(dom_addrs[i], ran_addrs[j - 1], j - 1) for i, j in enumerate(tau)]
            for labels in itertools.product(elems, repeat=k):
                yield dom, ran, tau, labels, {a: (b, labels[j]) for a, b, j in pairs}
