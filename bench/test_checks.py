"""Self-tests for the benchmark's checkers and tracer, on tiny corpora.

Each checker must accept a correct output and report a failure for one
corrupted output.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import vnh  # noqa: E402
import workloads  # noqa: E402

Z2 = vnh.Subgroup.symmetric(2)


def _planted_pair():
    """Planted V2(Z2) pair (f, g, h): g = h^-1 f h with f != g, and h small
    enough for the oracle at bound 3."""
    rng = random.Random(0)
    while True:
        f, g, h = workloads.planted_pair(vnh, 2, Z2, 2, 1, rng)
        if not vnh.equal_elements(f, g):
            return f, g, h


def test_verdict_flipped():
    f, g, _h = _planted_pair()
    verdict = vnh.are_conjugate(f, g)
    assert checks.check_verdict(True, verdict)
    assert not checks.check_verdict(True, not verdict)


def test_verdict_order_separated():
    rng = random.Random(0)
    f, g = workloads.order_separated_pair(vnh, 2, Z2, 1, rng)
    assert checks.check_verdict(False, vnh.are_conjugate(f, g))
    assert not checks.check_verdict(False, True)


def test_witness_wrong():
    f, g, h = _planted_pair()
    found = vnh.oracle_conjugate(f, g, 3)
    assert checks.check_witness(vnh, f, g, True, found)
    assert checks.check_witness(vnh, f, g, True, h)
    identity = vnh.identity_element(2, Z2)
    assert not checks.check_witness(vnh, f, g, True, identity)
    assert not checks.check_witness(vnh, f, g, True, None)
    assert not checks.check_witness(vnh, f, g, False, h)


def test_census_missing_representative():
    H = vnh.Subgroup.trivial(2)
    lines = []
    count = vnh.class_census_experiment(2, H, 2, 3, report_lines=lines)
    assert checks.check_census(vnh, 2, H, 2, count, lines)
    dropped = [line for line in lines if not line.startswith("class 1:")]
    assert not checks.check_census(vnh, 2, H, 2, count, dropped)
    assert not checks.check_census(vnh, 2, H, 2, count - 1, dropped)


def test_nonisomorphism():
    assert checks.check_nonisomorphism(vnh, 2, 4)
    assert not checks.check_nonisomorphism(vnh, 2, 2)


def test_product_wrong():
    rng = random.Random(1)
    S3 = vnh.Subgroup.symmetric(3)
    factors = [workloads.random_element(vnh, 3, S3, 2, rng) for _ in range(3)]
    product = checks.diagram_product(vnh, factors)
    assert checks.check_product(vnh, factors, product)
    assert not checks.check_product(vnh, factors, checks.diagram_product(vnh, factors[:-1]))


def test_tail_percentile():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(1000) == 99
    assert run.tail_value(list(range(40))) == (29, 75)
    assert run.tail_value([3, 1, 2]) == (3, 100)


def test_tracer_counts_and_absent_targets():
    tr = tracing.Tracer()
    tr.install(tracing.TARGETS + [("vnh", "no_such_function", "absent.thing")])
    try:
        assert "vnh.no_such_function" in tr.absent
        f, g, _h = _planted_pair()
        vnh.are_conjugate(f, g)  # outside an operation span: not recorded
        assert tr.calls("closed.are_conjugate") == 0
        with tr.span("op"):
            vnh.oracle_conjugate(f, g, 3)
    finally:
        tr.uninstall()
    assert vnh.oracle_conjugate.__name__ == "oracle_conjugate"
    assert tr.calls("census.oracle_conjugate", "op") == 1
    candidates = tr.items("elements.reduced_elements", "census.oracle_conjugate")
    assert candidates >= 1
    inclusive = tr.outer["census.oracle_conjugate"]
    assert 0 <= tr.self_s("census.oracle_conjugate") <= inclusive
