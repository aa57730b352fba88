"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adhoc_2m --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A line starting with ``counts `` before it holds the run's exact
counts (operation-sequence digest, planes read, cache hits, residency
faults, ...), which the determinism tests compare.

The program under test is imported from ``src/`` of the same
checkout; every file the run writes lives under ``.perfbench_work/``
there and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blocks",
        type=int,
        default=None,
        help="time a fixed number of operation blocks instead of "
        "--seconds (the determinism tests use this)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.harness import execute
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    # Anything the program puts in a temp directory stays in the checkout.
    tempfile.tempdir = work_dir
    try:
        result, counts = execute(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work_dir,
            max_blocks=args.blocks,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("counts " + json.dumps(counts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
