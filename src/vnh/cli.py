"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 oracle inconclusive, 4 internal
invariant violation.  All output is ASCII with LF line endings and
deterministic (canonical orderings throughout), so golden-file tests are
stable.
"""

from __future__ import annotations

import argparse
import sys

from .census import (
    class_census_experiment,
    count_order_p_classes,
    oracle_conjugate,
)
from .closed import are_conjugate, is_torsion, reduced_closure
from .diagrams import build_diagram
from .elements import compose, element_order, invert, reduce_element
from .io import element_from_json, element_to_json, subgroup_from_spec
from .rewriting import CochainError, format_trace, reduce


class _InputError(ValueError):
    pass


def _read_element(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return element_from_json(text)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_parse(args):
    _emit(element_to_json(_read_element(args.element)))
    return 0


def cmd_compose(args):
    g = _read_element(args.first)
    f = _read_element(args.second)
    _emit(element_to_json(compose(g, f)))
    return 0


def cmd_invert(args):
    _emit(element_to_json(invert(_read_element(args.element))))
    return 0


def cmd_reduce(args):
    _emit(element_to_json(reduce_element(_read_element(args.element))))
    return 0


def cmd_diagram(args):
    g = _read_element(args.element)
    d = build_diagram(g)
    if args.reduce:
        d = reduce(d)
    if args.dot:
        _emit(d.to_dot())
    else:
        _emit(repr(d))
    return 0


def cmd_close(args):
    g = _read_element(args.element)
    trace = [] if args.trace else None
    cd = reduced_closure(g, trace=trace)
    if args.dot:
        _emit(cd.to_dot())
    else:
        _emit(repr(cd))
    if args.trace:
        _emit(format_trace(trace) or "(no reductions)")
    return 0


def cmd_conjugate(args):
    f = _read_element(args.first)
    g = _read_element(args.second)
    verdict = are_conjugate(f, g)
    _emit(f"conjugate: {'true' if verdict else 'false'}")
    return 0


def cmd_order(args):
    m = element_order(_read_element(args.element), cap=args.cap)
    _emit(f"order: {'exceeds cap' if m is None else m}")
    return 0


def cmd_torsion(args):
    _emit(f"torsion: {'true' if is_torsion(_read_element(args.element)) else 'false'}")
    return 0


def cmd_census(args):
    subgroup = subgroup_from_spec(args.n, args.H)
    if args.max_leaves is None:
        count = count_order_p_classes(args.n, args.p, subgroup.order)
        _emit(f"classes={count} expected={args.n}")
        return 0
    lines = []
    class_census_experiment(args.n, subgroup, args.p, args.max_leaves, lines)
    for line in lines:
        _emit(line)
    return 0


def cmd_oracle(args):
    f = _read_element(args.first)
    g = _read_element(args.second)
    h = oracle_conjugate(f, g, args.oracle_bound)
    if h is None:
        _emit("oracle: inconclusive")
        return 3
    _emit(f"oracle: yes {element_to_json(h)}")
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="vnh",
        description="Exact arithmetic, strand-diagram rewriting and conjugacy "
        "decision for the Thompson-like groups V_n(H).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def element_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("element", help="element JSON path, or - for stdin")
        p.set_defaults(fn=fn)
        return p

    element_cmd("parse", cmd_parse, "validate and reprint an element canonically")

    p = sub.add_parser("compose", help="compose two elements (second acts first)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compose)

    element_cmd("invert", cmd_invert, "invert an element")
    element_cmd("reduce", cmd_reduce, "print the canonical reduced element")

    p = element_cmd("diagram", cmd_diagram, "build the (1,1,n)-strand diagram")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--reduce", action="store_true", help="reduce the diagram first")

    p = element_cmd("close", cmd_close, "reduced closed diagram of an element")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--trace", action="store_true", help="print the reduction log")

    p = sub.add_parser("conjugate", help="decide conjugacy of two elements")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_conjugate)

    p = element_cmd("order", cmd_order, "order of an element (capped)")
    p.add_argument("--cap", type=int, default=10_000)

    element_cmd("torsion", cmd_torsion, "is the element torsion?")

    p = sub.add_parser("census", help="order-p conjugacy class census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", default="id", help="preset id|sym|cyclic or generator JSON")
    p.add_argument("--p", type=int, required=True)
    p.add_argument(
        "--max-leaves",
        type=int,
        default=None,
        help="enumerate elements up to this many leaves; omit for the "
        "congruence count alone",
    )
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("oracle", help="brute-force conjugator search")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--oracle-bound", type=int, default=6)
    p.set_defaults(fn=cmd_oracle)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CochainError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
