"""Spread report: run each workload with N seeds and summarise.

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the min–max, next to the metric's bound in
``BENCHMARK.json``.  The bounds were set from this report: each
spread should stay below a third of its bound.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 --out runs.json
    python3 perfbench/spread.py --compare first.json second.json

Runs are sequential, one process at a time, each waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def _config() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = [line for line in lines if line.startswith("counts ")]
    if counts:
        # Plain wall-clock figures, kept beside the scaled metrics.
        result["wall"] = json.loads(counts[-1][len("counts "):]).get("wall")
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def report(runs: Dict[str, List[Dict[str, Any]]], bounds: Dict[str, float]) -> None:
    for workload, results in runs.items():
        bad = sum(1 for r in results if not r["correct"] or r["failed"])
        print(f"\n{workload}: {len(results)} runs, {bad} with failures or mismatches")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'min':>12s} {'max':>12s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q = quartiles(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and q["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:24s} {q['median']:12.5g} {q['q1']:12.5g} {q['q3']:12.5g} "
                  f"{q['spread']:7.3f} {bound if bound is not None else '-':>6} "
                  f"{q['min']:12.5g} {q['max']:12.5g}{flag}")


def compare(first: Dict[str, Any], second: Dict[str, Any], config: Dict[str, Any]) -> None:
    """Second set's median against the first's, as a share of it,
    signed so that positive means worse."""
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload, results in first.items():
        print(f"\n{workload}:")
        for name in results[0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in results)
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if better.get(name, "lower") == "lower" else (a - b) / a
            flag = "  <-- beyond bound" if worse > bounds.get(name, 1.0) else ""
            print(f"  {name:24s} {a:12.5g} {b:12.5g} {worse:+8.3f}{flag}")


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None, help="save raw results as JSON")
    parser.add_argument("--compare", nargs=2, default=None, metavar="RUNS_JSON")
    args = parser.parse_args(argv)
    config = _config()
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        compare(loaded[0], loaded[1], config)
        return 0
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in config["workloads"]]
    )
    seconds = args.seconds or config["run_seconds"]
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for workload in workloads:
        runs[workload] = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(result)
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report(runs, bounds if args.trace == 0 else {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
