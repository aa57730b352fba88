"""Unit tests for the planner's cost-estimation model."""

import math

import pytest

from repro.index.bitsliced import BitSlicedIndex
from repro.index.btree import BPlusTreeIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.hybrid import HybridBitmapBTreeIndex
from repro.index.projection import ProjectionIndex
from repro.index.range_bitmap import RangeBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.index.value_list import ValueListIndex
from repro.query.planner import Planner
from repro.query.predicates import Equals, InList, Range
from repro.table.catalog import Catalog
from repro.table.table import Table


@pytest.fixture
def setup():
    table = Table("t", ["v"])
    for i in range(256):
        table.append({"v": i % 64})
    catalog = Catalog()
    catalog.register_table(table)
    planner = Planner(catalog)
    return table, catalog, planner


class TestSelectedWidth:
    def test_equals_is_one(self, setup):
        table, _, planner = setup
        column = table.column("v")
        assert planner._selected_width(column, Equals("v", 3), 64) == 1

    def test_in_list_is_len(self, setup):
        table, _, planner = setup
        column = table.column("v")
        assert planner._selected_width(
            column, InList("v", [1, 2, 3]), 64
        ) == 3

    def test_range_counts_matching_values(self, setup):
        table, _, planner = setup
        column = table.column("v")
        assert planner._selected_width(
            column, Range("v", 10, 19), 64
        ) == 10


class TestEstimates:
    def test_simple_bitmap_is_delta(self, setup):
        table, _, planner = setup
        index = SimpleBitmapIndex(table, "v")
        assert planner.estimate_cost(index, Equals("v", 1)) == 1.0
        assert planner.estimate_cost(
            index, InList("v", list(range(20)))
        ) == 20.0

    def test_encoded_point_costs_k(self, setup):
        table, _, planner = setup
        index = EncodedBitmapIndex(table, "v")
        k = math.ceil(math.log2(64))
        assert planner.estimate_cost(index, Equals("v", 1)) == float(k)

    def test_encoded_wide_range_costs_little(self, setup):
        table, _, planner = setup
        index = EncodedBitmapIndex(table, "v")
        wide = InList("v", list(range(32)))
        narrow = InList("v", [1, 2])
        assert planner.estimate_cost(index, wide) < planner.estimate_cost(
            index, narrow
        )

    def test_btree_point_costs_height(self, setup):
        table, _, planner = setup
        index = BPlusTreeIndex(table, "v", fanout=4, page_size=64)
        assert planner.estimate_cost(index, Equals("v", 1)) == float(
            index.height
        )

    def test_btree_range_grows_with_delta(self, setup):
        table, _, planner = setup
        index = BPlusTreeIndex(table, "v", fanout=4, page_size=64)
        narrow = planner.estimate_cost(index, Range("v", 0, 3))
        wide = planner.estimate_cost(index, Range("v", 0, 60))
        assert wide > narrow

    def test_projection_is_scan_shaped(self, setup):
        table, _, planner = setup
        index = ProjectionIndex(table, "v")
        cost = planner.estimate_cost(index, Equals("v", 1))
        assert cost == len(table) / 100.0

    def test_other_kinds_have_estimates(self, setup):
        table, _, planner = setup
        for index in (
            ValueListIndex(table, "v"),
            RangeBitmapIndex(table, "v", buckets=4),
            HybridBitmapBTreeIndex(table, "v"),
            BitSlicedIndex(table, "v"),
        ):
            cost = planner.estimate_cost(index, Range("v", 0, 10))
            assert cost > 0


class TestChoicesFollowThePaper:
    def test_ranking_matches_actual_costs(self, setup):
        """The planner's preference (simple for points, encoded for
        wide ranges) agrees with the measured vector counts."""
        table, catalog, planner = setup
        simple = SimpleBitmapIndex(table, "v")
        encoded = EncodedBitmapIndex(table, "v")
        catalog.register_index(simple, attach=False)
        catalog.register_index(encoded, attach=False)

        point = Equals("v", 7)
        plan = planner.plan(table, point)
        chosen = plan.steps[0].index
        simple.lookup(point)
        encoded.lookup(point)
        best_actual = min(
            (simple.last_cost.vectors_accessed, simple),
            (encoded.last_cost.vectors_accessed, encoded),
            key=lambda pair: pair[0],
        )[1]
        assert chosen.kind == best_actual.kind

        wide = InList("v", list(range(32)))
        plan = planner.plan(table, wide)
        assert plan.steps[0].index.kind == "encoded-bitmap"
