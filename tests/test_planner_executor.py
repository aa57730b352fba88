"""Unit tests for repro.query.planner and repro.query.executor."""

import numpy as np
import pytest

from repro.index.btree import BPlusTreeIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.executor import Executor
from repro.query.planner import Planner
from repro.query.predicates import Equals, InList, IsNull, Range
from repro.table.catalog import Catalog
from tests.conftest import matching_rows


@pytest.fixture
def catalog(sales_table):
    catalog = Catalog()
    catalog.register_table(sales_table)
    catalog.register_index(SimpleBitmapIndex(sales_table, "region"))
    catalog.register_index(EncodedBitmapIndex(sales_table, "product"))
    catalog.register_index(SimpleBitmapIndex(sales_table, "product"))
    catalog.register_index(
        BPlusTreeIndex(sales_table, "qty", fanout=8, page_size=128)
    )
    return catalog


class TestPlanner:
    def test_single_leaf_plan(self, catalog, sales_table):
        planner = Planner(catalog)
        plan = planner.plan(sales_table, Equals("region", "N"))
        assert not plan.fallback_scan
        assert len(plan.steps) == 1
        assert plan.steps[0].index.kind == "simple-bitmap"

    def test_point_query_prefers_simple_bitmap(self, catalog, sales_table):
        """Paper: single-value selections favour simple bitmaps
        (cost 1 vs up to k)."""
        planner = Planner(catalog)
        plan = planner.plan(sales_table, Equals("product", 105))
        assert plan.steps[0].index.kind == "simple-bitmap"

    def test_wide_range_prefers_encoded(self, catalog, sales_table):
        """Paper: delta > log2 m + 1 favours the encoded bitmap."""
        planner = Planner(catalog)
        domain = sorted(sales_table.column("product").distinct_values())
        plan = planner.plan(
            sales_table, InList("product", domain[:20])
        )
        assert plan.steps[0].index.kind == "encoded-bitmap"

    def test_composite_plan_has_step_per_leaf(self, catalog, sales_table):
        planner = Planner(catalog)
        pred = Equals("region", "N") & Range("qty", 1, 10)
        plan = planner.plan(sales_table, pred)
        assert len(plan.steps) == 2
        kinds = {step.index.kind for step in plan.steps}
        assert kinds == {"simple-bitmap", "btree"}

    def test_unindexed_column_falls_back_to_scan(self, catalog, sales_table):
        planner = Planner(catalog)
        # qty has only a btree which supports Range/Equals; IsNull is
        # supported too, so use a table without any index instead
        from repro.table.table import Table

        bare = Table("bare", ["x"])
        bare.append({"x": 1})
        catalog.register_table(bare)
        plan = planner.plan(bare, Equals("x", 1))
        assert plan.fallback_scan

    def test_describe(self, catalog, sales_table):
        planner = Planner(catalog)
        plan = planner.plan(sales_table, Equals("region", "N"))
        text = plan.describe()
        assert "region" in text
        assert "simple-bitmap" in text

    def test_each_candidate_estimated_once_per_leaf(
        self, catalog, sales_table, monkeypatch
    ):
        calls = []
        estimate = Planner.estimate_cost

        def spy(self, index, predicate):
            calls.append((index, predicate))
            return estimate(self, index, predicate)

        monkeypatch.setattr(Planner, "estimate_cost", spy)
        planner = Planner(catalog)
        plan = planner.plan(
            sales_table,
            InList("product", [100, 101, 102])
            & Range("qty", 1, 10)
            & Equals("region", "N"),
        )
        # product has two supporting indexes, qty and region one each.
        assert len(calls) == 4
        assert len({(id(i), id(p)) for i, p in calls}) == 4
        for step in plan.steps:
            assert step.estimated_cost == estimate(
                planner, step.index, step.predicate
            )

    def test_equal_estimates_keep_the_first_registered_index(
        self, sales_table
    ):
        first = EncodedBitmapIndex(sales_table, "product")
        second = EncodedBitmapIndex(sales_table, "product")
        predicate = InList("product", [100, 101])
        for order in ((first, second), (second, first)):
            catalog = Catalog()
            catalog.register_table(sales_table)
            for index in order:
                catalog.register_index(index, attach=False)
            planner = Planner(catalog)
            assert planner.estimate_cost(
                first, predicate
            ) == planner.estimate_cost(second, predicate)
            (step,) = planner.plan(sales_table, predicate).steps
            assert step.index is order[0]


class TestExecutor:
    @pytest.mark.parametrize(
        "pred_factory",
        [
            lambda: Equals("region", "N"),
            lambda: InList("product", [100, 105, 110]),
            lambda: Range("qty", 10, 30),
            lambda: Equals("region", "N") & Range("qty", 1, 25),
            lambda: (Equals("region", "N") | Equals("region", "S"))
            & InList("product", [100, 101, 102, 103]),
            lambda: ~Equals("region", "N"),
        ],
    )
    def test_results_match_scan(self, catalog, sales_table, pred_factory):
        predicate = pred_factory()
        executor = Executor(catalog)
        result = executor.select(sales_table, predicate)
        assert (
            result.row_ids().tolist()
            == matching_rows(sales_table, predicate)
        )
        assert not result.used_scan

    def test_cost_accumulates(self, catalog, sales_table):
        executor = Executor(catalog)
        result = executor.select(
            sales_table,
            Equals("region", "N") & InList("product", [100, 101]),
        )
        assert result.cost.vectors_accessed >= 2

    def test_scan_fallback_matches(self, catalog, sales_table):
        from repro.table.table import Table

        bare = Table("bare2", ["x"])
        for i in range(10):
            bare.append({"x": i % 3})
        catalog.register_table(bare)
        executor = Executor(catalog)
        predicate = Equals("x", 1)
        result = executor.select(bare, predicate)
        assert result.used_scan
        assert result.row_ids().tolist() == matching_rows(bare, predicate)
        assert result.cost.rows_checked == 10

    def test_cooperativity_multi_attribute(self, catalog, sales_table):
        """Section 2.1: separate single-attribute bitmap indexes combine
        via AND — no compound index needed."""
        executor = Executor(catalog)
        predicate = (
            Equals("region", "W")
            & InList("product", [100, 101, 102])
            & Range("qty", 1, 40)
        )
        result = executor.select(sales_table, predicate)
        assert (
            result.row_ids().tolist()
            == matching_rows(sales_table, predicate)
        )

    def test_count_and_rows(self, catalog, sales_table):
        executor = Executor(catalog)
        result = executor.select(sales_table, Equals("region", "E"))
        assert result.count() == len(result.row_ids())


class TestRowIds:
    def test_fresh_ascending_int64_array(self, catalog, sales_table):
        result = Executor(catalog).select(
            sales_table, InList("product", [100, 105, 110])
        )
        ids = result.row_ids()
        assert isinstance(ids, np.ndarray)
        assert ids.dtype == np.int64
        assert ids.size > 1
        assert bool(np.all(np.diff(ids) > 0))
        assert np.array_equal(ids, np.flatnonzero(result.vector.to_mask()))
        assert ids is not result.row_ids()


class TestAggregatePushdown:
    def test_count_matches_scan(self, catalog, sales_table):
        executor = Executor(catalog)
        pred = Range("qty", 10, 30)
        expected = float(len(matching_rows(sales_table, pred)))
        assert executor.aggregate(
            sales_table, "count", "product", pred
        ) == expected

    def test_sum_matches_scan(self, catalog, sales_table):
        executor = Executor(catalog)
        expected = float(
            sum(row["product"] for row in sales_table.scan())
        )
        assert executor.aggregate(
            sales_table, "sum", "product"
        ) == expected

    def test_avg_with_predicate(self, catalog, sales_table):
        executor = Executor(catalog)
        pred = Equals("region", "N")
        values = [
            sales_table.row(r)["product"]
            for r in matching_rows(sales_table, pred)
        ]
        expected = sum(values) / len(values)
        got = executor.aggregate(sales_table, "avg", "product", pred)
        assert got == pytest.approx(expected)

    def test_median(self, catalog, sales_table):
        executor = Executor(catalog)
        values = sorted(
            row["product"] for row in sales_table.scan()
        )
        expected = float(values[(len(values) - 1) // 2])
        assert executor.aggregate(
            sales_table, "median", "product"
        ) == expected

    def test_scan_fallback_for_unindexed_column(self, catalog,
                                                sales_table):
        executor = Executor(catalog)
        # qty only has a B-tree -> scan fallback path
        expected = float(
            sum(row["qty"] for row in sales_table.scan())
        )
        assert executor.aggregate(
            sales_table, "sum", "qty"
        ) == expected

    def test_unknown_function_rejected(self, catalog, sales_table):
        from repro.errors import QueryError

        executor = Executor(catalog)
        with pytest.raises(QueryError):
            executor.aggregate(sales_table, "stddev", "product")
