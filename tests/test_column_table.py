"""Unit tests for repro.table.column and repro.table.table."""

import pytest

from repro.errors import TableError
from repro.table.column import Column
from repro.table.table import Table


class TestColumn:
    def test_append_returns_row_id(self):
        col = Column("a")
        assert col.append(10) == 0
        assert col.append(20) == 1

    def test_cardinality_tracks_distinct(self):
        col = Column("a", [1, 1, 2, 3, 3, 3])
        assert col.cardinality() == 3
        assert col.distinct_values() == {1, 2, 3}

    def test_nulls(self):
        col = Column("a", [1, None, 2, None])
        assert col.null_count == 2
        assert col.has_nulls()
        assert col.cardinality() == 2

    def test_update(self):
        col = Column("a", [1, 2])
        old = col.update(0, 9)
        assert old == 1
        assert col[0] == 9
        assert 9 in col.distinct_values()

    def test_update_null_transitions(self):
        col = Column("a", [1])
        col.update(0, None)
        assert col.null_count == 1
        col.update(0, 5)
        assert col.null_count == 0

    def test_getitem_out_of_range(self):
        col = Column("a", [1])
        with pytest.raises(TableError):
            col[5]

    def test_value_positions(self):
        col = Column("a", [1, 2, 1, None])
        positions = col.value_positions()
        assert positions[1] == [0, 2]
        assert positions[None] == [3]

    def test_empty_name_rejected(self):
        with pytest.raises(TableError):
            Column("")

    def test_values_copy(self):
        col = Column("a", [1, 2])
        values = col.values()
        values.append(3)
        assert len(col) == 2


class TestTable:
    def test_append_dict_and_sequence(self):
        table = Table("t", ["a", "b"])
        table.append({"a": 1, "b": 2})
        table.append([3, 4])
        assert table.row(0) == {"a": 1, "b": 2}
        assert table.row(1) == {"a": 3, "b": 4}

    def test_missing_dict_keys_become_null(self):
        table = Table("t", ["a", "b"])
        table.append({"a": 1})
        assert table.row(0)["b"] is None

    def test_unknown_column_rejected(self):
        table = Table("t", ["a"])
        with pytest.raises(TableError):
            table.append({"z": 1})

    def test_wrong_arity_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(TableError):
            table.append([1])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            Table("t", ["a", "a"])

    def test_no_columns_rejected(self):
        with pytest.raises(TableError):
            Table("t", [])

    def test_delete_makes_void(self):
        table = Table("t", ["a"])
        table.append({"a": 1})
        table.append({"a": 2})
        table.delete(0)
        assert table.is_void(0)
        assert table.live_count() == 1
        assert len(table) == 2
        with pytest.raises(TableError):
            table.row(0)

    def test_double_delete_rejected(self):
        table = Table("t", ["a"])
        table.append({"a": 1})
        table.delete(0)
        with pytest.raises(TableError):
            table.delete(0)

    def test_delete_out_of_range(self):
        table = Table("t", ["a"])
        with pytest.raises(TableError):
            table.delete(5)

    def test_existence_vector(self):
        table = Table("t", ["a"])
        for i in range(4):
            table.append({"a": i})
        table.delete(2)
        assert table.existence_vector().to_bitstring() == "1101"

    def test_update(self):
        table = Table("t", ["a"])
        table.append({"a": 1})
        table.update(0, "a", 7)
        assert table.row(0)["a"] == 7

    def test_update_void_rejected(self):
        table = Table("t", ["a"])
        table.append({"a": 1})
        table.delete(0)
        with pytest.raises(TableError):
            table.update(0, "a", 2)

    def test_scan_skips_void(self):
        table = Table("t", ["a"])
        for i in range(3):
            table.append({"a": i})
        table.delete(1)
        assert [row["a"] for row in table.scan()] == [0, 2]

    def test_scan_column_subset(self):
        table = Table("t", ["a", "b"])
        table.append({"a": 1, "b": 2})
        rows = list(table.scan(columns=["b"]))
        assert rows == [{"b": 2}]

    def test_observer_notifications(self):
        events = []

        class Spy:
            def on_append_rows(self, first_row_id, columns):
                events.append(("append", first_row_id, columns))

            def on_update(self, row_id, column, old, new):
                events.append(("update", row_id, old, new))

            def on_delete(self, row_id):
                events.append(("delete", row_id))

        table = Table("t", ["a"])
        spy = Spy()
        table.attach(spy)
        table.append({"a": 1})
        table.append_rows([{"a": 5}, {"a": 6}])  # one call per batch
        table.update(0, "a", 2)
        table.delete(0)
        assert events == [
            ("append", 0, {"a": (1,)}),
            ("append", 1, {"a": (5, 6)}),
            ("update", 0, 1, 2),
            ("delete", 0),
        ]
        table.detach(spy)
        table.append({"a": 3})
        assert len(events) == 4

    def test_unknown_column_lookup(self):
        table = Table("t", ["a"])
        with pytest.raises(TableError):
            table.column("zz")
