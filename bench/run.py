"""Benchmark for vnh: conjugacy decisions, the brute-force oracle, the
order-p census, and word reduction on strand diagrams.

    python3 bench/run.py --workload conjugacy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

A run builds its corpus from the seed (several times, to time set-up), then
repeats whole rounds over the corpus for about --seconds, checking every
output.  It prints one JSON object as its last line: whether every output
was correct, the operations attempted and failed, and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics of a traced
run with --trace 1.  Each run also writes its full record under bench/out/.
The exit code is 0 only when every output was correct.

The library is imported from src/ of the checkout this script sits in, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
PERCENTILES = range(99, 0, -1)

# Times are reported as if the machine ran, throughout, at the speed at which
# `kernel` takes REFERENCE_KERNEL_S; the kernel is timed between operations
# at least every CALIBRATE_EVERY_S.  See README.md, "Speed-adjusted times".
REFERENCE_KERNEL_S = 3.0e-3
CALIBRATE_EVERY_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def import_vnh():
    """Fresh import of vnh from src/ of this checkout: any copy already
    imported is dropped first, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "vnh" or m.startswith("vnh.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    vnh = importlib.import_module("vnh")
    if not Path(vnh.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"vnh imported from {vnh.__file__}, not from {src}")
    return vnh


def kernel():
    """Fixed interpreter work that does not touch vnh: tuples, dict updates,
    a sort."""
    counts = {}
    for i in range(3000):
        key = (i % 7, i % 11, (i * 7919) % 104729)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())[-1]


def kernel_seconds():
    """Median of three timed kernel runs: the machine's current speed."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def adjust(before, after):
    """Factor turning seconds measured between two kernel timings into
    seconds at the reference speed."""
    return REFERENCE_KERNEL_S / ((before + after) / 2)


def setup(workload, seed):
    """Import, subgroups, corpus and its operations, SETUP_REPEATS times.
    Returns (corpus items, operations of the last repeat, median
    speed-adjusted seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        t0 = time.perf_counter()
        vnh = import_vnh()
        items = workloads.WORKLOADS[workload][0](vnh, random.Random(f"{workload}/{seed}"))
        ops = workloads.bind(vnh, workload, items)
        dt = time.perf_counter() - t0
        times.append(dt * adjust(before, kernel_seconds()))
    return items, ops, statistics.median(times)


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it, or
    None when there is none (fewer than eleven samples)."""
    for q in PERCENTILES:
        if n - -(-q * n // 100) >= 10:
            return q
    return None


def tail_value(values):
    """(value, percentile) at tail_percentile; the maximum, with percentile
    100, when there are too few samples for a tail."""
    values = sorted(values)
    q = tail_percentile(len(values))
    if q is None:
        return values[-1], 100
    return values[-(-q * len(values) // 100) - 1], q


def measure(workload, items, ops, seconds, tracer=None):
    """Whole rounds over the corpus until the next round would end after
    `seconds`; at least one round.  Every round after the first binds the
    corpus to a fresh import of vnh, outside the timed region, so that no
    round finds the library's caches filled by an earlier one.  Returns
    per-op lists of speed-adjusted and of raw seconds, the number of rounds,
    and the failures."""
    times = [[] for _ in items]
    raw = [[] for _ in items]
    failures = []
    rounds = 0
    start = time.perf_counter()
    while True:
        if rounds:
            ops = workloads.bind(import_vnh(), workload, items)
        if tracer is not None:
            tracer.install()
        before = kernel_seconds()
        last = time.perf_counter()
        pending = []
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("op"):
                        out = op.run()
                raw[i].append(time.perf_counter() - t0)
                ok = op.check(out)
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                raw[i].append(time.perf_counter() - t0)
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    failures.append(f"{op.label}: wrong output")
            pending.append(i)
            if time.perf_counter() - last >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                after = kernel_seconds()
                factor = adjust(before, after)
                for j in pending:
                    times[j].append(raw[j][-1] * factor)
                pending = []
                before = after
                last = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return times, raw, rounds, failures


def end_to_end(ops, times, raw, setup_s):
    """Each operation's time is its speed-adjusted median over the rounds;
    throughput is operations per second of those medians."""
    per_op = [statistics.median(t) for t in times]
    tail, q = tail_value(per_op)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(ops) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    detail = {
        "tail_percentile": q,
        "ops": [
            {"label": op.label, "median_ms": m * 1e3, "rounds_ms": [t * 1e3 for t in ts],
             "raw_rounds_ms": [t * 1e3 for t in rs]}
            for op, m, ts, rs in zip(ops, per_op, times, raw)
        ],
    }
    return values, detail


def layer_metrics(tr, rounds, scale):
    """Per-layer metrics per round, from the tracer's aggregates; times are
    multiplied by `scale`, the run's ratio of speed-adjusted to raw time."""

    def ms(name):
        return tr.outer.get(name, 0.0) * 1e3 * scale / rounds

    def per_round(x):
        return x / rounds

    census = "census.class_census_experiment"
    oracle = "census.oracle_conjugate"
    reduce_closed = sorted(tr.durations["closed.reduce_closed"])
    if reduce_closed:
        rc_p50 = statistics.median(reduce_closed) * 1e3 * scale
        rc_tail = tail_value(reduce_closed)[0] * 1e3 * scale
    else:
        rc_p50 = rc_tail = 0.0
    values = {
        "elements.compose.calls": per_round(tr.calls("elements.compose")),
        "elements.compose.ms": ms("elements.compose"),
        "elements.invert.calls": per_round(tr.calls("elements.invert")),
        "elements.reduce_element.calls": per_round(tr.calls("elements.reduce_element")),
        "elements.reduce_element.ms": ms("elements.reduce_element"),
        "elements.reduced_elements.yielded": per_round(tr.items("elements.reduced_elements")),
        "elements.reduced_elements.ms": ms("elements.reduced_elements"),
        "trees.leaf_addresses.calls": per_round(tr.calls("trees.leaf_addresses")),
        "trees.leaf_addresses.ms": ms("trees.leaf_addresses"),
        "trees.common_expansion.ms": ms("trees.common_expansion"),
        "diagrams.build_diagram.ms": ms("diagrams.build_diagram"),
        "diagrams.concatenate.ms": ms("diagrams.concatenate"),
        "diagrams.cut_to_element.ms": ms("diagrams.cut_to_element"),
        "rewriting.reduce.ms": ms("rewriting.reduce"),
        "closed.close.ms": ms("closed.close"),
        "closed.reduce_closed.ms": ms("closed.reduce_closed"),
        "closed.reduce_closed.p50_ms": rc_p50,
        "closed.reduce_closed.tail_ms": rc_tail,
        "closed.gauge_canonical.ms": ms("closed.gauge_canonical"),
        "closed.conjugacy_invariant.self_ms": tr.self_s("closed.conjugacy_invariant") * 1e3 * scale / rounds,
        "census.enumerated": per_round(tr.items("elements.reduced_elements", census)),
        "census.closures": per_round(tr.calls("closed.reduced_closure", census)),
        "census.pairwise_are_conjugate.calls": per_round(tr.calls("closed.are_conjugate", census)),
        "census.class_census_experiment.self_ms": tr.self_s(census) * 1e3 * scale / rounds,
        "census.oracle.candidates": per_round(tr.items("elements.reduced_elements", oracle)),
        "census.oracle_conjugate.self_ms": tr.self_s(oracle) * 1e3 * scale / rounds,
    }
    for prefix in ("rewriting.steps", "closed.reduce_closed.steps"):
        for rule in ("I", "II", "III", "IV"):
            values[f"{prefix}.{rule}"] = per_round(tr.counts.get(f"{prefix}.{rule}", 0))
    return values


def run_one(workload, seed, seconds, traced):
    items, ops, setup_s = setup(workload, seed)
    tr = tracing.Tracer() if traced else None
    times, raw, rounds, failures = measure(workload, items, ops, seconds, tr)
    attempted = len(ops) * rounds
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    if traced:
        scale = sum(map(sum, times)) / sum(map(sum, raw))
        values = layer_metrics(tr, rounds, scale)
        metrics = {k: {"value": v, "unit": "ms" if k.endswith("ms") else "count"}
                   for k, v in values.items()}
        tr.write(OUT / f"{stem}-trace.json",
                 {"rounds": rounds, "speed_scale": scale, "metrics": metrics,
                  "op_adjusted_ms": sum(map(sum, times)) * 1e3 / rounds})
    else:
        values, detail = end_to_end(ops, times, raw, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        with open(OUT / f"{stem}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed, "rounds": rounds,
                       "metrics": metrics, "failures": failures, **detail}, fh, indent=1)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, one after the other, so that peak
    memory and caches belong to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"{workload}: no result (exit code {proc.returncode})")
        result = json.loads(lines[-1])
        print(workload, json.dumps(result), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{workload}.{k}"] = v
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        except ImportError as exc:
            print(f"cannot import vnh from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
