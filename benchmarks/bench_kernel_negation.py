"""Kernel ablation — the loop strategy's two ways to negate a literal.

The plane matrix stores only the k planes, so a negated literal is
computed, not read.  On wide vectors (more than ``GATHER_MAX_WORDS``
words) the compiled kernel's per-term loop does it one of two ways:

* De Morgan per term — ``AND(pos) & ~OR(neg)``, one invert for every
  term that has a negated literal;
* a row table — each negated plane complemented once per evaluation,
  then every term is a plain AND chain.

The kernel takes the table when more terms carry a negated literal
than there are negated planes.  This bench times both paths on the
same kernels, grouped by the side of that rule each kernel falls on,
so the rule can be checked against the clock: each path should win on
its own side.
"""

from __future__ import annotations

import random
import timeit
from collections import defaultdict

from benchmarks.conftest import print_table
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.kernels import compile_function
from repro.workload.generators import build_table, uniform_column

ROWS = 262_144  # 4,096 words per plane: the loop strategy
FUNCTIONS = 30  # random IN-lists per (domain, size)


def _time(kernel, planes, table):
    natural = kernel._loop_table
    kernel._loop_table = table
    try:
        best = min(
            timeit.repeat(lambda: kernel.evaluate(planes), number=3, repeat=5)
        )
    finally:
        kernel._loop_table = natural
    return best / 3


class TestLoopNegation:
    def test_each_path_on_each_side_of_the_rule(self, benchmark):
        def run():
            totals = defaultdict(lambda: [0.0, 0.0, 0])
            for m, sizes in ((1000, (2, 4, 16, 64)), (250, (2, 8, 32))):
                rng = random.Random(m)
                table = build_table(
                    "t", ROWS, {"v": uniform_column(ROWS, m, seed=m)}
                )
                index = EncodedBitmapIndex(table, "v")
                planes = index.planes()
                present = sorted(set(table.column("v")))
                for size in sizes:
                    for _ in range(FUNCTIONS):
                        kernel = compile_function(
                            index.reduced_function(rng.sample(present, size))
                        )
                        if kernel.is_constant or len(kernel._terms) < 2:
                            continue  # no residue terms: De Morgan only
                        side = "table" if kernel._loop_table else "De Morgan"
                        key = (index.width, size, side)
                        totals[key][0] += _time(kernel, planes, False)
                        totals[key][1] += _time(kernel, planes, True)
                        totals[key][2] += 1
            return totals

        totals = benchmark.pedantic(run, iterations=1, rounds=1)
        rows = [
            (
                f"k={width} IN{size}",
                side,
                count,
                f"{demorgan / count * 1e6:.1f}",
                f"{table / count * 1e6:.1f}",
                f"{table / demorgan:.2f}",
            )
            for (width, size, side), (demorgan, table, count) in sorted(
                totals.items()
            )
        ]
        print_table(
            f"Loop strategy, {ROWS} rows: mean µs per evaluation",
            ["functions", "rule picks", "n", "De Morgan", "table",
             "table / De Morgan"],
            rows,
        )
        assert rows
