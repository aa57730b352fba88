"""Figure 10 — space requirements vs attribute cardinality.

The paper plots the number of bit vectors: ``m`` for simple bitmap
indexes (linear) vs ``ceil(log2 m)`` for encoded (logarithmic).  This
bench prints the analytic curves and confirms them with real indexes
built over synthetic columns, comparing actual byte sizes.
"""

from __future__ import annotations

import math

from benchmarks.conftest import print_table
from repro.analysis.figures import figure10_series
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.workload.generators import build_table, uniform_column

CARDINALITIES = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]


class TestFigure10:
    def test_analytic_series(self, benchmark):
        series = benchmark(figure10_series, CARDINALITIES)
        print_table(
            "Figure 10 analytic: bit vectors vs cardinality",
            ["m", "simple (m)", "encoded ceil(log2 m)"],
            [
                (r.m, r.simple_vectors, r.encoded_vectors)
                for r in series
            ],
        )
        for row in series:
            assert row.simple_vectors == row.m
            assert row.encoded_vectors == math.ceil(math.log2(row.m))

    def test_measured_vector_counts(self, benchmark):
        def build_and_measure():
            rows = []
            n = 800
            for m in [4, 16, 64, 256]:
                table = build_table(
                    "t", n, {"v": uniform_column(n, m, seed=m)}
                )
                simple = SimpleBitmapIndex(table, "v")
                encoded = EncodedBitmapIndex(table, "v")
                rows.append(
                    (m, simple.vector_count, encoded.width,
                     simple.nbytes(), encoded.nbytes())
                )
            return rows

        rows = benchmark.pedantic(
            build_and_measure, iterations=1, rounds=1
        )
        print_table(
            "Figure 10 measured: real index sizes (n = 800)",
            ["m", "simple vecs", "encoded vecs", "simple bytes",
             "encoded bytes"],
            rows,
        )
        for m, simple_vecs, encoded_vecs, simple_b, encoded_b in rows:
            # one vector per OBSERVED value (n = 800 may not draw the
            # full domain at m = 256)
            assert m * 0.9 <= simple_vecs <= m
            # +1 bit possible for the VOID sentinel
            assert encoded_vecs <= math.ceil(math.log2(m)) + 1
            assert encoded_b < simple_b

    def test_growth_shapes(self):
        """Linear vs logarithmic growth: doubling m doubles simple's
        vectors but adds exactly one encoded vector."""
        series = figure10_series([64, 128, 256, 512])
        for a, b in zip(series, series[1:]):
            assert b.simple_vectors == 2 * a.simple_vectors
            assert b.encoded_vectors == a.encoded_vectors + 1
