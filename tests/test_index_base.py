"""Unit tests for the Index base class: dispatch, stats, costs."""

import pytest

from repro.errors import UnsupportedPredicateError
from repro.index.base import IndexStatistics, LookupCost
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.predicates import Equals, InList, IsNull, Range
from repro.table.table import Table
from tests.conftest import matching_rows


@pytest.fixture
def table():
    t = Table("t", ["v"])
    for value in [1, 2, 3, 1, 2, 3, 1, None]:
        t.append({"v": value})
    return t


class TestDispatch:
    def test_and_combines_vectors(self, table):
        index = SimpleBitmapIndex(table, "v")
        pred = InList("v", [1, 2]) & ~Equals("v", 2)
        got = sorted(index.lookup(pred).indices().tolist())
        assert got == matching_rows(table, pred)

    def test_or_combines_vectors(self, table):
        index = SimpleBitmapIndex(table, "v")
        pred = Equals("v", 1) | Equals("v", 3)
        got = sorted(index.lookup(pred).indices().tolist())
        assert got == matching_rows(table, pred)

    def test_nested_boolean_tree(self, table):
        index = EncodedBitmapIndex(table, "v")
        pred = (Equals("v", 1) | Equals("v", 2)) & ~IsNull("v")
        got = sorted(index.lookup(pred).indices().tolist())
        assert got == matching_rows(table, pred)

    def test_not_excludes_void_rows(self, table):
        index = SimpleBitmapIndex(table, "v")
        table.attach(index)
        table.delete(0)
        result = index.lookup(~Equals("v", 2))
        assert 0 not in result.indices().tolist()
        table.detach(index)

    def test_wrong_column_rejected(self, table):
        index = SimpleBitmapIndex(table, "v")
        with pytest.raises(UnsupportedPredicateError):
            index.lookup(Equals("other", 1))

    def test_mixed_column_tree_rejected(self, table):
        index = SimpleBitmapIndex(table, "v")
        with pytest.raises(UnsupportedPredicateError):
            index.lookup(Equals("v", 1) & Equals("other", 2))


class TestCostAccounting:
    def test_last_cost_per_query(self, table):
        index = SimpleBitmapIndex(table, "v")
        index.lookup(Equals("v", 1))
        first = index.last_cost.vectors_accessed
        index.lookup(InList("v", [1, 2, 3]))
        second = index.last_cost.vectors_accessed
        assert first == 1
        assert second == 3

    def test_stats_accumulate(self, table):
        index = SimpleBitmapIndex(table, "v")
        index.lookup(Equals("v", 1))
        index.lookup(Equals("v", 2))
        assert index.stats.lookups == 2
        assert index.stats.vectors_accessed == 2

    def test_stats_reset(self, table):
        index = SimpleBitmapIndex(table, "v")
        index.lookup(Equals("v", 1))
        index.stats.reset()
        assert index.stats.lookups == 0
        assert index.stats.vectors_accessed == 0

    def test_boolean_tree_cost_is_sum(self, table):
        index = SimpleBitmapIndex(table, "v")
        index.lookup(Equals("v", 1) | Equals("v", 2))
        assert index.last_cost.vectors_accessed == 2

    def test_lookup_cost_total(self):
        cost = LookupCost(
            vectors_accessed=3, node_accesses=2, rows_checked=10
        )
        assert cost.total_accesses() == 5

    def test_statistics_record(self):
        stats = IndexStatistics()
        stats.record(LookupCost(vectors_accessed=4))
        stats.record(LookupCost(node_accesses=2, rows_checked=7))
        assert stats.lookups == 2
        assert stats.vectors_accessed == 4
        assert stats.node_accesses == 2
        assert stats.rows_checked == 7


class TestDeprecatedConstructorShims:
    """Index constructors take only their anchors positionally:
    extras raise ``TypeError`` and the keyword form never warns."""

    def test_too_many_positionals_still_a_typeerror(self, table):
        with pytest.raises(TypeError, match="positional"):
            SimpleBitmapIndex(table, "v", 1)

    def test_normalized_form_does_not_warn(self, table):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EncodedBitmapIndex(table, "v", encoding=None)
