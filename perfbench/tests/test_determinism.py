"""One seed gives one operation sequence and one set of exact counts.

Each case runs the benchmark as a subprocess (fresh process-wide
caches) for a fixed number of blocks, half of them traced, and
compares the ``counts`` line it prints before the result.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT

BLOCKS = 4

#: Counts that must repeat exactly for one seed.
EXACT = (
    "ops_digest",
    "block_mix",
    "planes_read",
    "reduce_misses",
    "reduce_hits",
    "compile_misses",
    "cache_hits",
    "cache_misses",
    "faults",
    "prefetches",
    "rchar",
    "compactions",
    "rows_appended",
    "disk_bytes_per_row",
)


def run(workload, seed):
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", "1", "--blocks", str(BLOCKS),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    counts_line = [line for line in lines if line.startswith("counts ")][-1]
    return json.loads(counts_line[len("counts "):]), result


@pytest.mark.parametrize("workload", ["adhoc_2m", "serve_zipf", "scan_ooc_4m"])
def test_one_seed_repeats_exactly(workload):
    first, first_result = run(workload, 7)
    second, second_result = run(workload, 7)
    for key in EXACT:
        assert first[key] == second[key], key
    assert set(first_result["metrics"]) == set(second_result["metrics"])
    other, _ = run(workload, 8)
    assert other["ops_digest"] != first["ops_digest"]
    # Stratified blocks: a new seed changes values, never the mix.
    assert len(first["block_mix"]) == 1
    assert other["block_mix"] == first["block_mix"]
