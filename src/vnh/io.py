"""Element JSON format and subgroup presets.

An element is a JSON object with fields, in this order:

    n       arity
    H       list of generator image lists (e.g. [[2,3,1]]); [] is trivial
    domain  domain tree in text form, e.g. "(* * (* * *))"
    range   range tree in text form
    tau     1-indexed image list over leaves: tau[i-1] is the range leaf
            fed by domain leaf i
    labels  list of image lists, one per range leaf; identity is [1,2,...,n]

Printing is canonical (fixed key order, no whitespace variation), so
print-then-parse is the identity on reduced elements.
"""

from __future__ import annotations

import json

from .elements import TreePairElement
from .perms import Perm, Subgroup
from .trees import format_tree, parse_tree

_PRESETS = {"id": Subgroup.trivial, "sym": Subgroup.symmetric, "cyclic": Subgroup.cyclic}


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def _int_lists(value, field: str):
    """`value` if it is a list of integer lists, else ValueError."""
    if not (isinstance(value, (list, tuple)) and all(_is_int_list(x) for x in value)):
        raise ValueError(f"field {field!r} must be a list of integer lists, got {value!r}")
    return value


def subgroup_from_spec(n: int, spec) -> Subgroup:
    """Build H from a preset name ('id', 'sym', 'cyclic'), a JSON string of
    generator image lists, or a list of image lists."""
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in _PRESETS:
            return _PRESETS[name](n)
        spec = json.loads(spec)
    return Subgroup(n, [Perm(images) for images in _int_lists(spec, "H")])


def element_from_json(text: str) -> TreePairElement:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"element JSON is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"element JSON must be an object, got {obj!r}")
    for field in ("n", "H", "domain", "range", "tau", "labels"):
        if field not in obj:
            raise ValueError(f"element JSON missing field {field!r}")
    n = obj["n"]
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"field 'n' must be an integer >= 2, got {n!r}")
    for field in ("domain", "range"):
        if not isinstance(obj[field], str):
            raise ValueError(f"field {field!r} must be a tree string, got {obj[field]!r}")
    if not _is_int_list(obj["tau"]):
        raise ValueError(f"field 'tau' must be a list of integers, got {obj['tau']!r}")
    subgroup = subgroup_from_spec(n, obj["H"])
    domain = parse_tree(obj["domain"], n)
    range_ = parse_tree(obj["range"], n)
    tau = tuple(obj["tau"])
    labels = tuple(Perm(images) for images in _int_lists(obj["labels"], "labels"))
    return TreePairElement(n, subgroup, domain, range_, tau, labels)


def element_to_json(g: TreePairElement) -> str:
    obj = {
        "n": g.n,
        "H": [list(p.images) for p in g.subgroup.generators],
        "domain": format_tree(g.domain_tree),
        "range": format_tree(g.range_tree),
        "tau": list(g.tau),
        "labels": [list(p.images) for p in g.labels],
    }
    return json.dumps(obj, separators=(", ", ": "))
