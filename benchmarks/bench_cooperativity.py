"""Section 2.1 — cooperativity of bitmap indexes.

The paper: to cover every combination of selection conditions over n
attributes, B-trees need 2^n - 1 compound indexes, while n
single-attribute bitmap indexes combine through cheap logical ANDs.
This bench prints the exponential-vs-linear index count and executes
real multi-attribute conjunctions through the executor.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.analysis.cost_models import compound_btrees_needed
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.executor import Executor
from repro.query.predicates import Equals, InList, Range
from repro.table.catalog import Catalog
from repro.workload.generators import (
    build_table,
    uniform_column,
    zipf_column,
)


class TestIndexCounts:
    def test_exponential_vs_linear(self):
        rows = [
            (n, n, compound_btrees_needed(n))
            for n in (1, 2, 3, 5, 8, 10)
        ]
        print_table(
            "Indexes needed to cover all condition combinations",
            ["attributes", "bitmap indexes", "compound B-trees (2^n-1)"],
            rows,
        )
        assert rows[-1][2] == 1023


@pytest.fixture(scope="module")
def multi_attribute_setup():
    n = 4000
    table = build_table(
        "fact",
        n,
        {
            "a": uniform_column(n, 30, seed=1),
            "b": uniform_column(n, 12, seed=2),
            "c": zipf_column(n, 50, seed=3),
            "d": uniform_column(n, 8, seed=4),
        },
    )
    catalog = Catalog()
    catalog.register_table(table)
    for column in "abcd":
        catalog.register_index(EncodedBitmapIndex(table, column))
    return table, catalog


class TestConjunctiveQueries:
    def test_any_combination_served(self, multi_attribute_setup):
        """Four single-attribute indexes serve every subset of
        conditions — 15 combinations, no compound index."""
        table, catalog = multi_attribute_setup
        executor = Executor(catalog)
        leaves = {
            "a": Equals("a", 5),
            "b": Range("b", 2, 8),
            "c": InList("c", [0, 1, 2]),
            "d": Equals("d", 3),
        }
        from itertools import combinations

        served = 0
        for size in range(1, 5):
            for combo in combinations("abcd", size):
                predicate = leaves[combo[0]]
                for col in combo[1:]:
                    predicate = predicate & leaves[col]
                result = executor.select(table, predicate)
                expected = [
                    row_id
                    for row_id in range(len(table))
                    if predicate.matches(table.row(row_id))
                ]
                assert result.row_ids().tolist() == expected
                served += 1
        print(f"\nall {served} condition combinations served by "
              "4 bitmap indexes (B-trees would need 15 compounds)")
        assert served == 15

    def test_conjunction_wallclock(self, multi_attribute_setup, benchmark):
        table, catalog = multi_attribute_setup
        executor = Executor(catalog)
        predicate = (
            Equals("a", 5) & Range("b", 2, 8) & InList("c", [0, 1, 2])
        )
        result = benchmark(executor.select, table, predicate)
        assert result.count() >= 0

    def test_cost_is_sum_of_parts(self, multi_attribute_setup):
        """AND-combining costs the sum of per-index accesses — no
        multiplicative blow-up."""
        table, catalog = multi_attribute_setup
        executor = Executor(catalog)
        single_costs = []
        for predicate in (Equals("a", 5), Equals("b", 3)):
            result = executor.select(table, predicate)
            single_costs.append(result.cost.vectors_accessed)
        combined = executor.select(
            table, Equals("a", 5) & Equals("b", 3)
        )
        assert combined.cost.vectors_accessed == sum(single_costs)
