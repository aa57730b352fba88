"""Unit tests for projection, bit-sliced, value-list, dynamic-bitmap,
range-bitmap and hybrid indexes (the paper's Section 4 comparators)."""


import pytest

from repro.index.bitsliced import BitSlicedIndex
from repro.index.dynamic_bitmap import DynamicBitmapIndex
from repro.index.hybrid import HybridBitmapBTreeIndex
from repro.index.projection import ProjectionIndex
from repro.index.range_bitmap import RangeBitmapIndex
from repro.index.value_list import ValueListIndex
from repro.query.predicates import Equals, InList, IsNull, Range
from repro.table.table import Table
from tests.conftest import matching_rows


class TestProjectionIndex:
    def test_lookup_matches_scan(self, sales_table):
        index = ProjectionIndex(sales_table, "qty")
        for pred in [Equals("qty", 10), Range("qty", 5, 15),
                     InList("qty", [1, 2, 3])]:
            assert sorted(index.lookup(pred).indices().tolist()) == (
                matching_rows(sales_table, pred)
            )

    def test_cost_is_full_scan(self, sales_table):
        index = ProjectionIndex(sales_table, "qty")
        index.lookup(Equals("qty", 10))
        assert index.last_cost.rows_checked == len(sales_table)

    def test_positional_access(self, sales_table):
        index = ProjectionIndex(sales_table, "qty")
        assert index.value_at(0) == sales_table.row(0)["qty"]

    def test_maintenance(self, sales_table):
        index = ProjectionIndex(sales_table, "qty")
        sales_table.attach(index)
        row_id = sales_table.append(
            {"product": 100, "qty": 999, "region": "N"}
        )
        assert index.value_at(row_id) == 999
        sales_table.update(row_id, "qty", 998)
        assert index.value_at(row_id) == 998
        sales_table.delete(row_id)
        assert index.value_at(row_id) is None
        sales_table.detach(index)

    def test_nbytes_and_pages(self, sales_table):
        index = ProjectionIndex(sales_table, "qty")
        assert index.nbytes() == 4 * len(sales_table)
        assert index.pages() >= 1


class TestBitSlicedIndex:
    def test_is_order_preserving_encoded_bitmap(self, sales_table):
        from repro.encoding.total_order import is_order_preserving

        index = BitSlicedIndex(sales_table, "qty")
        assert is_order_preserving(index.mapping)

    def test_range_by_slice_algorithm(self, sales_table):
        index = BitSlicedIndex(sales_table, "qty")
        for pred in [
            Range("qty", 10, 30),
            Range("qty", None, 25),
            Range("qty", 40, None),
            Range("qty", 10, 30, low_inclusive=False,
                  high_inclusive=False),
            Range("qty", 60, 70),  # partially out of domain
        ]:
            assert sorted(index.lookup(pred).indices().tolist()) == (
                matching_rows(sales_table, pred)
            ), str(pred)

    def test_empty_range(self, sales_table):
        index = BitSlicedIndex(sales_table, "qty")
        assert index.lookup(Range("qty", 900, 999)).count() == 0

    def test_range_cost_at_most_k_per_bound(self, sales_table):
        index = BitSlicedIndex(sales_table, "qty")
        index.lookup(Range("qty", 10, 30))
        assert index.last_cost.vectors_accessed <= index.width

    def test_slice_algorithm_vs_in_list_rewrite(self, sales_table):
        direct = BitSlicedIndex(sales_table, "qty",
                                use_slice_algorithm=True)
        rewrite = BitSlicedIndex(sales_table, "qty",
                                 use_slice_algorithm=False)
        pred = Range("qty", 12, 37)
        assert direct.lookup(pred) == rewrite.lookup(pred)

    def test_equals_still_works(self, sales_table):
        index = BitSlicedIndex(sales_table, "qty")
        pred = Equals("qty", 20)
        assert sorted(index.lookup(pred).indices().tolist()) == (
            matching_rows(sales_table, pred)
        )

    def test_respects_deleted_rows(self, sales_table):
        index = BitSlicedIndex(sales_table, "qty")
        sales_table.attach(index)
        victim = matching_rows(sales_table, Range("qty", 10, 30))[0]
        sales_table.delete(victim)
        pred = Range("qty", 10, 30)
        assert sorted(index.lookup(pred).indices().tolist()) == (
            matching_rows(sales_table, pred)
        )
        sales_table.detach(index)


class TestValueListIndex:
    def test_lookup_matches_scan(self, sales_table):
        index = ValueListIndex(sales_table, "product")
        for pred in [Equals("product", 105),
                     InList("product", [100, 120]),
                     Range("product", 110, 118)]:
            assert sorted(index.lookup(pred).indices().tolist()) == (
                matching_rows(sales_table, pred)
            )

    def test_cost_one_list_per_value(self, sales_table):
        index = ValueListIndex(sales_table, "product")
        index.lookup(InList("product", [100, 101, 102]))
        assert index.last_cost.vectors_accessed == 3

    def test_nulls(self):
        table = Table("t", ["a"])
        for value in [1, None, 2, None]:
            table.append({"a": value})
        index = ValueListIndex(table, "a")
        assert index.lookup(IsNull("a")).indices().tolist() == [1, 3]

    def test_maintenance(self, sales_table):
        index = ValueListIndex(sales_table, "product")
        sales_table.attach(index)
        row_id = sales_table.append(
            {"product": 100, "qty": 1, "region": "N"}
        )
        assert row_id in index.rows_for(100)
        sales_table.update(row_id, "product", 101)
        assert row_id in index.rows_for(101)
        assert row_id not in index.rows_for(100)
        sales_table.delete(row_id)
        assert row_id not in index.rows_for(101)
        sales_table.detach(index)

    def test_nbytes_proportional_to_n(self, sales_table):
        index = ValueListIndex(sales_table, "product")
        assert index.nbytes() >= 4 * len(sales_table)


class TestDynamicBitmapIndex:
    def test_arrival_order_encoding(self):
        table = Table("t", ["a"])
        for value in ["z", "m", "z", "a"]:
            table.append({"a": value})
        index = DynamicBitmapIndex(table, "a")
        # codes follow first-appearance order (after VOID at 0)
        assert index.mapping.encode("z") == 1
        assert index.mapping.encode("m") == 2
        assert index.mapping.encode("a") == 3

    def test_lookup_matches_scan(self, sales_table):
        index = DynamicBitmapIndex(sales_table, "product")
        pred = InList("product", [100, 111, 129])
        assert sorted(index.lookup(pred).indices().tolist()) == (
            matching_rows(sales_table, pred)
        )


class TestRangeBitmapIndex:
    def test_equal_population_buckets(self, skewed_table):
        index = RangeBitmapIndex(skewed_table, "v", buckets=8)
        counts = [
            vec.count() for vec in index._vectors
        ]
        # population balance within a factor (skew + no-split rule)
        assert max(counts) <= 4 * (sum(counts) / len(counts))

    def test_lookup_matches_scan(self, skewed_table):
        index = RangeBitmapIndex(skewed_table, "v", buckets=8)
        for pred in [Range("v", 2, 10), Range("v", None, 5),
                     Range("v", 20, None), Equals("v", 0),
                     InList("v", [0, 1, 7])]:
            assert sorted(index.lookup(pred).indices().tolist()) == (
                matching_rows(skewed_table, pred)
            ), str(pred)

    def test_candidate_checks_on_edge_buckets(self, skewed_table):
        index = RangeBitmapIndex(skewed_table, "v", buckets=8)
        index.lookup(Range("v", 3, 9))
        # partial buckets force base-data checks
        assert index.last_cost.rows_checked > 0

    def test_full_bucket_no_checks(self, skewed_table):
        index = RangeBitmapIndex(skewed_table, "v", buckets=4)
        index.lookup(Range("v", None, None))
        assert index.last_cost.rows_checked == 0

    def test_maintenance(self, skewed_table):
        index = RangeBitmapIndex(skewed_table, "v", buckets=8)
        skewed_table.attach(index)
        row_id = skewed_table.append({"v": 1})
        pred = Equals("v", 1)
        assert row_id in index.lookup(pred).indices().tolist()
        skewed_table.delete(row_id)
        assert row_id not in index.lookup(pred).indices().tolist()
        skewed_table.detach(index)

    def test_bucket_count_param(self, skewed_table):
        with pytest.raises(ValueError):
            RangeBitmapIndex(skewed_table, "v", buckets=0)


class TestHybridIndex:
    def test_lookup_matches_scan(self, sales_table):
        index = HybridBitmapBTreeIndex(sales_table, "product")
        for pred in [Equals("product", 100),
                     InList("product", [105, 106]),
                     Range("product", 100, 110)]:
            assert sorted(index.lookup(pred).indices().tolist()) == (
                matching_rows(sales_table, pred)
            )

    def test_degenerates_at_high_cardinality(self):
        """The paper's critique: at high m the hybrid is a pure B-tree."""
        table = Table("t", ["k"])
        for i in range(500):
            table.append({"k": i})  # every value unique
        index = HybridBitmapBTreeIndex(table, "k")
        assert index.is_degenerate()
        assert index.degeneration_ratio() == 1.0

    def test_dense_values_stay_bitmaps(self):
        table = Table("t", ["k"])
        for i in range(512):
            table.append({"k": i % 4})
        index = HybridBitmapBTreeIndex(table, "k")
        assert index.degeneration_ratio() == 0.0

    def test_promotion_on_growth(self):
        table = Table("t", ["k"])
        for i in range(64):
            table.append({"k": i})
        index = HybridBitmapBTreeIndex(table, "k",
                                       sparsity_threshold=0.25)
        table.attach(index)
        # grow value 0 until it crosses the threshold
        for _ in range(40):
            table.append({"k": 0})
        from repro.bitmap.bitvector import BitVector

        assert isinstance(index._entries[0], BitVector)
        table.detach(index)

    def test_threshold_validation(self, sales_table):
        with pytest.raises(ValueError):
            HybridBitmapBTreeIndex(sales_table, "product",
                                   sparsity_threshold=0.0)
