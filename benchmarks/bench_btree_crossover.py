"""Section 2.1 — the bitmap-vs-B-tree space/time break-even.

The paper: with page size p = 4K and degree M = 512, a simple bitmap
index is smaller than a B-tree iff m < 11.52 p / M = 93 (approx).
This bench prints the analytic break-even, sweeps m with *real*
indexes and locates the measured crossover, and also reproduces the
build-time comparison ``O(n m)`` vs ``O(n log_{M/2} m + n log2(p/4))``.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.analysis.cost_models import (
    bitmap_build_cost,
    btree_build_cost,
    btree_bytes,
    btree_space_crossover,
    simple_bitmap_bytes,
)
from repro.index.btree import BPlusTreeIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.workload.generators import build_table, uniform_column

M_SWEEP = [8, 32, 64, 92, 128, 256, 512]


class TestSpaceCrossover:
    def test_analytic_crossover_is_93(self):
        crossover = btree_space_crossover(degree=512, page_size=4096)
        print(f"\nanalytic crossover: m < {crossover:.2f} "
              "favours simple bitmaps (paper: 93)")
        assert 92 <= crossover < 93

    def test_analytic_sweep(self, benchmark):
        n = 1_000_000

        def sweep():
            return [
                (m, simple_bitmap_bytes(n, m), btree_bytes(n))
                for m in M_SWEEP
            ]

        rows = benchmark(sweep)
        print_table(
            "Section 2.1 analytic space (n = 1e6, p = 4K, M = 512)",
            ["m", "simple bitmap bytes", "btree bytes"],
            [(m, f"{s:.0f}", f"{b:.0f}") for m, s, b in rows],
        )
        for m, simple, btree in rows:
            if m <= 92:
                assert simple < btree
            if m >= 93:
                assert simple > btree

    def test_measured_crossover_shape(self, benchmark):
        """Real indexes over n=4000 rows: the bitmap's size grows
        linearly with m while the B-tree's stays flat, so their ratio
        crosses 1 somewhere near the analytic point (the constant is
        implementation-dependent; the *shape* is the claim)."""
        n = 4000

        def sweep():
            rows = []
            for m in [8, 64, 256, 1024]:
                table = build_table(
                    "t", n, {"v": uniform_column(n, m, seed=m)}
                )
                simple = SimpleBitmapIndex(table, "v")
                btree = BPlusTreeIndex(table, "v")
                rows.append((m, simple.nbytes(), btree.nbytes()))
            return rows

        rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
        print_table(
            "Section 2.1 measured sizes (n = 4000)",
            ["m", "simple bytes", "btree bytes"],
            rows,
        )
        simple_growth = rows[-1][1] / rows[0][1]
        btree_growth = rows[-1][2] / rows[0][2]
        assert simple_growth > 20  # linear in m (m grew 128x)
        assert btree_growth < 8  # roughly flat in m


class TestBuildTime:
    def test_analytic_build_costs(self):
        n = 1_000_000
        rows = [
            (m, bitmap_build_cost(n, m), btree_build_cost(n, m))
            for m in [4, 16, 64, 256, 4096]
        ]
        print_table(
            "Section 2.1 analytic build cost (abstract ops, n = 1e6)",
            ["m", "simple bitmap O(nm)", "btree O(n log m + n log p/4)"],
            [(m, f"{b:.2e}", f"{t:.2e}") for m, b, t in rows],
        )
        # small m: bitmap cheaper; large m: btree cheaper
        assert rows[0][1] < rows[0][2]
        assert rows[-1][1] > rows[-1][2]

    def test_measured_build_time(self, benchmark):
        """Wall-clock build of both indexes at moderate cardinality."""
        n = 3000
        table = build_table(
            "t", n, {"v": uniform_column(n, 64, seed=9)}
        )

        def build_both():
            return (
                SimpleBitmapIndex(table, "v"),
                BPlusTreeIndex(table, "v", fanout=64, page_size=512),
            )

        simple, btree = benchmark(build_both)
        assert simple.vector_count == 64
        assert btree.node_count >= 1
