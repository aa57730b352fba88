"""Integration tests: the full warehouse stack working together.

Builds the paper's SALES star schema (fact + SALESPOINT hierarchy),
indexes it with hierarchy-encoded bitmap indexes, and runs OLAP-style
selections through the planner/executor, comparing everything against
scans.
"""

import random

import pytest

from repro.encoding.hierarchy import Hierarchy, hierarchy_encoding
from repro.index.btree import BPlusTreeIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.groupset import GroupSetIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.executor import Executor
from repro.query.predicates import Equals, InList, Range
from repro.table.catalog import Catalog
from repro.table.schema import Dimension, FactTable, StarSchema
from repro.table.table import Table
from tests.conftest import matching_rows

COMPANIES = {
    "a": [1, 2, 3, 4], "b": [5, 6], "c": [7, 8],
    "d": [3, 4, 9, 10], "e": [9, 10, 11, 12],
}
ALLIANCES = {"X": ["a", "b", "c"], "Y": ["c", "d"], "Z": ["d", "e"]}


@pytest.fixture
def warehouse():
    rng = random.Random(42)
    hierarchy = Hierarchy(
        range(1, 13), {"company": COMPANIES, "alliance": ALLIANCES}
    )

    salespoint = Table("salespoint", ["branch", "region"])
    for branch in range(1, 13):
        salespoint.append(
            {"branch": branch, "region": "R" + str(branch % 4)}
        )
    dim = Dimension(salespoint, key="branch", hierarchy=hierarchy)

    sales = Table("sales", ["branch", "product", "amount"])
    for _ in range(800):
        sales.append(
            {
                "branch": rng.randint(1, 12),
                "product": rng.randint(100, 160),
                "amount": rng.randint(1, 1000),
            }
        )
    fact = FactTable(sales, {"branch": dim})
    schema = StarSchema(fact)

    catalog = Catalog()
    catalog.register_table(sales)
    catalog.register_table(salespoint)

    mapping = hierarchy_encoding(hierarchy, seed=0)
    catalog.register_index(
        EncodedBitmapIndex(sales, "branch", encoding=mapping,
                           void_mode="vector")
    )
    catalog.register_index(EncodedBitmapIndex(sales, "product"))
    catalog.register_index(
        BPlusTreeIndex(sales, "amount", fanout=16, page_size=256)
    )
    return schema, catalog


class TestStarSchemaQueries:
    def test_rollup_selection_matches_scan(self, warehouse):
        """'Select sales of all companies in alliance Z' — the paper's
        OLAP example — via hierarchy-encoded bitmap index."""
        schema, catalog = warehouse
        sales = catalog.table("sales")
        executor = Executor(catalog)
        in_list = schema.rollup_in_list("salespoint", "alliance", "Z")
        predicate = InList("branch", in_list)
        result = executor.select(sales, predicate)
        assert result.row_ids().tolist() == matching_rows(sales, predicate)
        assert not result.used_scan

    def test_rollup_cost_below_worst_case(self, warehouse):
        schema, catalog = warehouse
        sales = catalog.table("sales")
        executor = Executor(catalog)
        for level, elements in (
            ("company", COMPANIES), ("alliance", ALLIANCES)
        ):
            for element in elements:
                in_list = schema.rollup_in_list(
                    "salespoint", level, element
                )
                result = executor.select(
                    sales, InList("branch", in_list)
                )
                # worst case would be k=4 vectors + existence
                assert result.cost.vectors_accessed <= 5

    def test_multi_dimension_selection(self, warehouse):
        schema, catalog = warehouse
        sales = catalog.table("sales")
        executor = Executor(catalog)
        in_list = schema.rollup_in_list("salespoint", "company", "a")
        predicate = (
            InList("branch", in_list)
            & Range("product", 110, 140)
            & Range("amount", 100, 900)
        )
        result = executor.select(sales, predicate)
        assert result.row_ids().tolist() == matching_rows(sales, predicate)

    def test_group_by_alliance_members(self, warehouse):
        schema, catalog = warehouse
        sales = catalog.table("sales")
        groupset = GroupSetIndex(sales, ["branch"])
        counts = groupset.group_by()
        assert sum(counts.values()) == len(sales)

    def test_updates_flow_through_executor(self, warehouse):
        schema, catalog = warehouse
        sales = catalog.table("sales")
        executor = Executor(catalog)
        row_id = sales.append(
            {"branch": 5, "product": 100, "amount": 50}
        )
        predicate = Equals("branch", 5)
        assert row_id in executor.select(sales, predicate).row_ids()
        sales.delete(row_id)
        assert row_id not in executor.select(sales, predicate).row_ids()


class TestIndexAgreement:
    """All index families must return identical results."""

    def test_all_indexes_agree(self, sales_table):
        from repro.index.bitsliced import BitSlicedIndex
        from repro.index.dynamic_bitmap import DynamicBitmapIndex
        from repro.index.hybrid import HybridBitmapBTreeIndex
        from repro.index.projection import ProjectionIndex
        from repro.index.range_bitmap import RangeBitmapIndex
        from repro.index.value_list import ValueListIndex

        indexes = [
            SimpleBitmapIndex(sales_table, "qty"),
            EncodedBitmapIndex(sales_table, "qty"),
            BPlusTreeIndex(sales_table, "qty", fanout=8, page_size=128),
            ProjectionIndex(sales_table, "qty"),
            BitSlicedIndex(sales_table, "qty"),
            ValueListIndex(sales_table, "qty"),
            DynamicBitmapIndex(sales_table, "qty"),
            RangeBitmapIndex(sales_table, "qty", buckets=6),
            HybridBitmapBTreeIndex(sales_table, "qty"),
        ]
        predicates = [
            Equals("qty", 25),
            InList("qty", [1, 10, 20, 30]),
            Range("qty", 5, 35),
            Range("qty", None, 10),
            Range("qty", 45, None),
        ]
        for predicate in predicates:
            expected = matching_rows(sales_table, predicate)
            for index in indexes:
                got = sorted(index.lookup(predicate).indices().tolist())
                assert got == expected, (
                    f"{index.kind} disagrees on {predicate}"
                )
