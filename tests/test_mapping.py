"""Unit tests for repro.encoding.mapping."""

import sys
import threading
import time

import pytest

from repro.boolean.reduction import reduction_key
from repro.encoding.mapping import NULL, VOID, MappingTable, code_width
from repro.errors import (
    CodeWidthError,
    DomainError,
    DuplicateCodeError,
    DuplicateValueError,
)


class TestCodeWidth:
    @pytest.mark.parametrize(
        "m,k",
        [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4),
         (12000, 14), (50, 6), (1000, 10)],
    )
    def test_paper_formula(self, m, k):
        """k = ceil(log2 m); 12000 products -> 14 vectors (Section 2.2)."""
        assert code_width(m) == k

    def test_invalid(self):
        with pytest.raises(ValueError):
            code_width(0)


class TestConstruction:
    def test_void_reserved_by_default(self):
        table = MappingTable(width=2)
        assert VOID in table
        assert table.encode(VOID) == 0

    def test_without_void(self):
        table = MappingTable(width=2, reserve_void_zero=False)
        assert VOID not in table
        assert len(table) == 0

    def test_from_values_sequential(self):
        table = MappingTable.from_values(
            ["a", "b", "c"], reserve_void_zero=False
        )
        assert [table.encode(v) for v in "abc"] == [0, 1, 2]
        assert table.width == 2

    def test_from_values_with_void(self):
        table = MappingTable.from_values(["a", "b", "c"])
        assert table.encode(VOID) == 0
        assert [table.encode(v) for v in "abc"] == [1, 2, 3]

    def test_from_values_with_null(self):
        table = MappingTable.from_values(["a"], include_null=True)
        assert NULL in table
        assert table.encode(NULL) == 1
        assert table.encode("a") == 2

    def test_from_values_dedups(self):
        table = MappingTable.from_values(
            ["a", "a", "b"], reserve_void_zero=False
        )
        assert len(table) == 2

    def test_from_pairs(self):
        table = MappingTable.from_pairs([("x", 0b10), ("y", 0b01)])
        assert table.encode("x") == 2
        assert table.decode(1) == "y"
        assert table.width == 2

    def test_from_pairs_infers_width(self):
        table = MappingTable.from_pairs([("x", 9)])
        assert table.width == 4

    def test_width_validation(self):
        with pytest.raises(ValueError):
            MappingTable(width=0)


class TestLookups:
    def setup_method(self):
        self.table = MappingTable.from_values(["a", "b", "c"])

    def test_encode_decode_roundtrip(self):
        for value in ["a", "b", "c", VOID]:
            assert self.table.decode(self.table.encode(value)) == value

    def test_unknown_value(self):
        with pytest.raises(DomainError):
            self.table.encode("zzz")

    def test_unknown_code(self):
        with pytest.raises(DomainError):
            self.table.decode(7)

    def test_domain_excludes_sentinels(self):
        assert set(self.table.domain()) == {"a", "b", "c"}
        assert VOID in self.table.values()

    def test_unused_codes(self):
        # width 2, 4 codes, 4 mapped (VOID + a,b,c) -> none unused
        assert self.table.unused_codes() == []
        bigger = MappingTable.from_values(["a", "b"])  # 3 of 4 used
        assert bigger.unused_codes() == [3]

    def test_next_free_code(self):
        table = MappingTable(width=2)
        assert table.next_free_code() == 1

    def test_next_free_code_full(self):
        table = MappingTable.from_values(["a", "b", "c"])
        with pytest.raises(CodeWidthError):
            table.next_free_code()


class TestAssignment:
    def test_duplicate_value(self):
        table = MappingTable(width=2)
        table.assign("a", 1)
        with pytest.raises(DuplicateValueError):
            table.assign("a", 2)

    def test_duplicate_code(self):
        table = MappingTable(width=2)
        table.assign("a", 1)
        with pytest.raises(DuplicateCodeError):
            table.assign("b", 1)

    def test_code_out_of_width(self):
        table = MappingTable(width=2)
        with pytest.raises(CodeWidthError):
            table.assign("a", 4)


class TestDomainExpansion:
    def test_add_value_without_expansion(self):
        """Figure 2(a): adding d to {a,b,c} keeps k=2 (with no VOID)."""
        table = MappingTable.from_values(
            ["a", "b", "c"], reserve_void_zero=False
        )
        code, expanded = table.add_value("d")
        assert code == 3
        assert not expanded
        assert table.width == 2

    def test_add_value_with_expansion(self):
        """Figure 2(b): adding e forces a third bit."""
        table = MappingTable.from_values(
            ["a", "b", "c", "d"], reserve_void_zero=False
        )
        code, expanded = table.add_value("e")
        assert expanded
        assert table.width == 3
        assert code == 4  # first code with the new MSB set
        # old codes unchanged
        assert table.encode("a") == 0
        assert table.encode("d") == 3

    def test_add_existing_value_rejected(self):
        table = MappingTable.from_values(["a"])
        with pytest.raises(DuplicateValueError):
            table.add_value("a")

    def test_equation_1_behaviour(self):
        """Width grows exactly when ceil(log2) steps up."""
        table = MappingTable.from_values(["v0"], reserve_void_zero=False)
        widths = [table.width]
        for i in range(1, 9):
            table.add_value(f"v{i}")
            widths.append(table.width)
        # cardinalities 1..9 -> widths 1,1,2,2,3,3,3,3,4
        assert widths == [1, 1, 2, 2, 3, 3, 3, 3, 4]


class TestReassignment:
    def test_reassign_all(self):
        table = MappingTable.from_values(
            ["a", "b"], reserve_void_zero=False
        )
        table.reassign_all({"a": 1, "b": 0})
        assert table.encode("a") == 1
        assert table.decode(0) == "b"

    def test_reassign_must_cover_domain(self):
        table = MappingTable.from_values(
            ["a", "b"], reserve_void_zero=False
        )
        with pytest.raises(DomainError):
            table.reassign_all({"a": 1})

    def test_reassign_rejects_duplicate_codes(self):
        table = MappingTable.from_values(
            ["a", "b"], reserve_void_zero=False
        )
        with pytest.raises(DuplicateCodeError):
            table.reassign_all({"a": 1, "b": 1})


class TestDontCareCache:
    """``dont_cares()`` is computed once per mapping state, and every
    mutation moves the reduction key built from it."""

    @staticmethod
    def _key(table):
        return reduction_key((1,), table.width, table.dont_cares())

    def test_cached_until_mutated(self):
        table = MappingTable.from_values(["a", "b", "c", "d"])
        assert table.dont_cares() == (5, 6, 7)
        assert table.dont_cares() is table.dont_cares()
        assert table.unused_codes() == [5, 6, 7]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda table: table.assign("e", 3),
            lambda table: table.add_value("e"),
            lambda table: table.grow_width(),
            lambda table: table.reassign_all(
                {value: code + 1 for value, code in table.items()}
            ),
        ],
        ids=["assign", "add_value", "grow_width", "reassign_all"],
    )
    def test_each_mutation_changes_the_key(self, mutate):
        table = MappingTable.from_values(
            ["a", "b", "c"], reserve_void_zero=False
        )
        before = self._key(table)
        mutate(table)
        after = self._key(table)
        assert after != before
        assert table.dont_cares() == tuple(
            code
            for code in range(1 << table.width)
            if not table.has_code(code)
        )

    def test_readers_racing_a_writer_never_keep_a_stale_tuple(self):
        # Readers memoise while one writer assigns codes: after each
        # assign, no tuple from an older generation is served.
        table = MappingTable(width=11, reserve_void_zero=False)
        done = threading.Event()

        def read():
            while not done.is_set():
                table.dont_cares()

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for code in range(0, 2048, 13):
                table.assign(f"v{code}", code)
                time.sleep(2e-4)  # let readers finish a stale compute
                assert code not in table.dont_cares()
            done.set()
            for reader in readers:
                reader.join(timeout=10)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert table.dont_cares() == tuple(
            code for code in range(2048) if code % 13
        )


class TestRendering:
    def test_to_rows_binary_codes(self):
        table = MappingTable.from_values(
            ["a", "b", "c"], reserve_void_zero=False
        )
        rows = dict(table.to_rows())
        assert rows["a"] == "00"
        assert rows["c"] == "10"

    def test_format_table(self):
        table = MappingTable.from_values(["a"], reserve_void_zero=False)
        assert "a" in table.format_table()

    def test_equality(self):
        a = MappingTable.from_values(["x"], reserve_void_zero=False)
        b = MappingTable.from_values(["x"], reserve_void_zero=False)
        assert a == b
