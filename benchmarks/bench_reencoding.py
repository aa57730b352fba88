"""Extension bench — dynamic re-encoding economics (Section 5).

When the predefined predicates drift, is rebuilding the encoding
worth it?  The model charges O(n*k) bit writes for the rebuild and
earns the per-execution vector savings; this bench sweeps the planning
horizon and table size to locate the break-even frontier, then
actually performs one rebuild and verifies the earned savings.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.encoding.heuristics import random_encoding
from repro.encoding.reencoding import (
    apply_reencoding,
    evaluate_reencoding,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import InList
from repro.workload.generators import build_table
from repro.workload.generators import uniform_column

DOMAIN = list(range(32))
NEW_PREDICATES = [list(range(0, 16)), list(range(8, 24)),
                  list(range(16, 32))]


class TestBreakEvenFrontier:
    def test_horizon_sweep(self, benchmark):
        current = random_encoding(DOMAIN, seed=77,
                                  reserve_void_zero=False)

        def sweep():
            rows = []
            for n in (10_000, 1_000_000):
                decision = evaluate_reencoding(
                    current, NEW_PREDICATES, table_size=n,
                    horizon_executions=0,
                )
                rows.append(
                    (
                        n,
                        f"{decision.current_cost:.0f}",
                        f"{decision.candidate_cost:.0f}",
                        f"{decision.rebuild_cost:.0f}",
                        f"{decision.break_even_executions:.0f}",
                    )
                )
            return rows

        rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
        print_table(
            "Re-encoding break-even (vectors/query units)",
            ["n", "cost now", "cost after", "rebuild cost",
             "break-even runs"],
            rows,
        )
        # bigger tables need longer horizons
        assert float(rows[1][4]) > float(rows[0][4])

    def test_decision_flips_with_horizon(self):
        current = random_encoding(DOMAIN, seed=77,
                                  reserve_void_zero=False)
        probe = evaluate_reencoding(
            current, NEW_PREDICATES, table_size=100_000,
            horizon_executions=0,
        )
        if probe.saving_per_execution <= 0:
            pytest.skip("random start happened to be optimal")
        beyond = probe.break_even_executions * 2
        before = evaluate_reencoding(
            current, NEW_PREDICATES, table_size=100_000,
            horizon_executions=probe.break_even_executions / 2,
        )
        after = evaluate_reencoding(
            current, NEW_PREDICATES, table_size=100_000,
            horizon_executions=beyond,
        )
        assert not before.worthwhile
        assert after.worthwhile


class TestActualRebuild:
    def test_rebuild_realises_predicted_saving(self, benchmark):
        n = 2000
        table = build_table(
            "t", n, {"v": uniform_column(n, 32, seed=5)}
        )
        bad = random_encoding(DOMAIN, seed=77)
        index = EncodedBitmapIndex(table, "v", encoding=bad)

        costs_before = []
        for predicate_values in NEW_PREDICATES:
            index.lookup(InList("v", predicate_values))
            costs_before.append(index.last_cost.vectors_accessed)

        decision = evaluate_reencoding(
            index.mapping, NEW_PREDICATES, table_size=n,
            horizon_executions=10**6,
        )
        benchmark.pedantic(
            apply_reencoding, args=(index, decision),
            iterations=1, rounds=1,
        )

        costs_after = []
        for predicate_values in NEW_PREDICATES:
            index.lookup(InList("v", predicate_values))
            costs_after.append(index.last_cost.vectors_accessed)

        print_table(
            "Vectors accessed per predicate, before/after re-encoding",
            ["predicate", "before", "after"],
            [
                (f"IN [{values[0]}..{values[-1]}]", before, after)
                for values, before, after in zip(
                    NEW_PREDICATES, costs_before, costs_after
                )
            ],
        )
        assert sum(costs_after) <= sum(costs_before)
