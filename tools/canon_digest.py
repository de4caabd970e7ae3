"""Digest of both closed canonical forms over the benchmark's conjugacy corpora.

For every element of infinite order in the `conjugacy` corpus of each seed
(built by `bench/workloads.py`, as `bench/run.py` builds it), the reduced
closure's `closed_canonical` string and vertex order and its
`gauge_canonical` string are fed, in corpus order, to one SHA-256 digest per
seed.  Torsion elements are skipped: their invariant builds no closure.  The
output is compared with `tests/data/canon_digest.txt`, so a change to the
canonical search that moves a single string or vertex shows up.

    python tools/canon_digest.py [--seeds 1 2 3]

The library is imported from src/ of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import vnh  # noqa: E402
import workloads  # noqa: E402
from vnh.closed import gauge_canonical  # noqa: E402


def digest_line(seed):
    """The output line for one seed's corpus: its count of elements of
    infinite order and their hex digest."""
    items = workloads.conjugacy_items(vnh, random.Random(f"conjugacy/{seed}"))
    digest = hashlib.sha256()
    count = 0
    for item in items:
        n, H = workloads.subgroup(vnh, item.group)
        for data in item.elements:
            g = workloads.decode(vnh, n, H, data)
            if vnh.is_torsion(g):
                continue
            cd = vnh.reduced_closure(g)
            order = ",".join(map(str, cd.canonical_order()))
            for part in (cd.canonical(), order, gauge_canonical(cd, H)):
                digest.update(part.encode() + b"\n")
            count += 1
    return f"conjugacy seed {seed}: {count} elements of infinite order, sha256 {digest.hexdigest()}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        print(digest_line(seed))


if __name__ == "__main__":
    main()
