"""Unit tests for repro.index.encoded_bitmap — the paper's index."""

import math

import pytest

from repro.encoding.mapping import MappingTable
from repro.errors import IndexBuildError
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import Equals, InList, IsNull, Range
from tests.conftest import matching_rows


class TestBuild:
    def test_width_is_log2_of_domain(self, sales_table):
        index = EncodedBitmapIndex(sales_table, "product")
        m = sales_table.column("product").cardinality()
        # +1 for the VOID sentinel
        assert index.width == math.ceil(math.log2(m + 1))

    def test_12000_products_needs_14_vectors(self):
        """The paper's headline example (Section 2.2)."""
        from repro.encoding.mapping import code_width

        assert code_width(12000) == 14

    def test_vectors_encode_codes(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        column = abc_table.column("A")
        for row_id in range(len(abc_table)):
            code = index.mapping.encode(column[row_id])
            for i in range(index.width):
                assert index.vector(i)[row_id] == bool((code >> i) & 1)

    def test_custom_mapping(self, abc_table):
        mapping = MappingTable.from_pairs(
            [("a", 0b00), ("b", 0b01), ("c", 0b10)], width=2
        )
        index = EncodedBitmapIndex(
            abc_table, "A", encoding=mapping, void_mode="vector"
        )
        assert index.width == 2

    def test_mapping_must_cover_domain(self, abc_table):
        mapping = MappingTable.from_pairs([("a", 1)], width=2)
        with pytest.raises(IndexBuildError):
            EncodedBitmapIndex(abc_table, "A", encoding=mapping)

    def test_void_zero_conflict_detected(self, abc_table):
        mapping = MappingTable.from_pairs(
            [("a", 0), ("b", 1), ("c", 2)], width=2
        )
        with pytest.raises(IndexBuildError):
            EncodedBitmapIndex(abc_table, "A", encoding=mapping,
                               void_mode="encode")

    def test_invalid_modes(self, abc_table):
        with pytest.raises(ValueError):
            EncodedBitmapIndex(abc_table, "A", void_mode="bogus")
        with pytest.raises(ValueError):
            EncodedBitmapIndex(abc_table, "A", null_mode="bogus")


class TestLookup:
    def test_equals(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        result = index.lookup(Equals("A", "a"))
        assert result.indices().tolist() == [0, 4]

    def test_in_list_correct(self, sales_table):
        index = EncodedBitmapIndex(sales_table, "product")
        pred = InList("product", [100, 105, 110, 120])
        assert sorted(index.lookup(pred).indices().tolist()) == (
            matching_rows(sales_table, pred)
        )

    def test_range_correct(self, sales_table):
        index = EncodedBitmapIndex(sales_table, "qty")
        pred = Range("qty", 5, 25)
        assert sorted(index.lookup(pred).indices().tolist()) == (
            matching_rows(sales_table, pred)
        )

    def test_cost_bounded_by_width(self, sales_table):
        """c_e <= ceil(log2 m) always (Section 3.1)."""
        index = EncodedBitmapIndex(sales_table, "product")
        domain = sorted(sales_table.column("product").distinct_values())
        for delta in (1, 2, 5, 10, 20, len(domain)):
            index.lookup(InList("product", domain[:delta]))
            assert index.last_cost.vectors_accessed <= index.width

    def test_reduction_lowers_cost(self, abc_table):
        """Figure 1: A=a OR A=b reduces to B1' -> one vector."""
        mapping = MappingTable.from_pairs(
            [("a", 0b00), ("b", 0b01), ("c", 0b10)], width=2
        )
        index = EncodedBitmapIndex(
            abc_table, "A", encoding=mapping, void_mode="vector",
            null_mode="vector",
        )
        result = index.lookup(InList("A", ["a", "b"]))
        assert result.indices().tolist() == [0, 1, 3, 4]
        # B1' plus the existence vector in 'vector' mode
        assert index.last_cost.vectors_accessed == 2

    def test_theorem21_no_existence_access(self, abc_table):
        """Theorem 2.1: with void encoded at 0, selections never pay
        an existence-vector access; with an explicit existence vector
        every selection pays exactly one extra access."""
        encoded = EncodedBitmapIndex(abc_table, "A")  # void_mode=encode
        explicit = EncodedBitmapIndex(abc_table, "A", void_mode="vector")

        encoded.lookup(InList("A", ["a", "b"]))
        assert (
            encoded.last_cost.vectors_accessed
            == encoded.reduced_function(["a", "b"]).vector_count()
        )

        explicit.lookup(InList("A", ["a", "b"]))
        assert (
            explicit.last_cost.vectors_accessed
            == explicit.reduced_function(["a", "b"]).vector_count() + 1
        )

    def test_theorem21_select_all_existing(self):
        """Selecting every live value under the reserve-0 encoding
        reduces to 'any vector set' without an existence conjunct, and
        still excludes deleted rows."""
        from repro.table.table import Table

        table = Table("t", ["A"])
        for value in ["p", "q", "r", "p", "q"]:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        table.attach(index)
        table.delete(0)
        result = index.lookup(InList("A", ["p", "q", "r"]))
        assert result.indices().tolist() == [1, 2, 3, 4]
        table.detach(index)

    def test_unknown_values_ignored(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        result = index.lookup(InList("A", ["zzz", "a"]))
        assert result.indices().tolist() == [0, 4]

    def test_all_unknown_returns_empty(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        assert index.lookup(Equals("A", "q")).count() == 0
        assert index.last_cost.vectors_accessed == 0

    def test_null_encoded_mode(self):
        from repro.table.table import Table

        table = Table("t", ["A"])
        for value in ["x", None, "y", None, "x"]:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        assert index.lookup(IsNull("A")).indices().tolist() == [1, 3]
        # non-null lookups unaffected
        assert index.lookup(Equals("A", "x")).indices().tolist() == [0, 4]

    def test_null_vector_mode(self):
        from repro.table.table import Table

        table = Table("t", ["A"])
        for value in ["x", None, "y"]:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A", null_mode="vector")
        assert index.lookup(IsNull("A")).indices().tolist() == [1]
        assert index.last_cost.vectors_accessed == 1


class TestRetrievalFunctions:
    def test_minterm_per_value(self, abc_table):
        """Definition 2.1: f_alpha is a k-variable minterm."""
        index = EncodedBitmapIndex(abc_table, "A")
        for value in "abc":
            function = index.retrieval_function(value)
            assert len(function.terms) == 1
            assert function.terms[0].literal_count() == index.width

    def test_reduced_function_cached(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        first = index.reduced_function(["a", "b"])
        second = index.reduced_function(["b", "a"])
        assert first is second  # order-insensitive cache hit


class TestDensity:
    def test_density_near_half(self):
        """Section 3.1: encoded vectors are ~1/2 dense regardless of m."""
        import random

        from repro.table.table import Table

        rng = random.Random(0)
        table = Table("t", ["A"])
        for _ in range(4000):
            table.append({"A": rng.randrange(63)})
        index = EncodedBitmapIndex(table, "A")
        assert index.average_density() == pytest.approx(0.5, abs=0.1)


class TestMaintenance:
    def test_append_without_expansion(self, abc_table):
        """Figure 2 narrative: appending A=b only appends bits."""
        index = EncodedBitmapIndex(abc_table, "A")
        abc_table.attach(index)
        width = index.width
        abc_table.append({"A": "b"})
        assert index.width == width
        assert index.lookup(Equals("A", "b")).indices().tolist() == [
            1, 3, 6,
        ]

    def test_append_with_domain_expansion_no_new_vector(self, abc_table):
        """Figure 2(a): 4th value still fits the width (with VOID the
        width is already 2 bits for {VOID,a,b,c} -> adding d grows to
        3 bits; use explicit no-void index to match the figure)."""
        mapping = MappingTable.from_pairs(
            [("a", 0), ("b", 1), ("c", 2)], width=2
        )
        index = EncodedBitmapIndex(
            abc_table, "A", encoding=mapping, void_mode="vector"
        )
        abc_table.attach(index)
        abc_table.append({"A": "d"})
        assert index.width == 2
        assert index.mapping.encode("d") == 3
        assert index.lookup(Equals("A", "d")).indices().tolist() == [6]
        abc_table.detach(index)

    def test_append_with_new_vector(self, abc_table):
        """Figure 2(b): 5th value forces a new bitmap vector."""
        mapping = MappingTable.from_pairs(
            [("a", 0), ("b", 1), ("c", 2), ("d", 3)], width=2
        )
        table = abc_table
        index = EncodedBitmapIndex(
            table, "A", encoding=mapping, void_mode="vector"
        )
        table.attach(index)
        table.append({"A": "e"})
        assert index.width == 3
        assert index.mapping.encode("e") == 4
        # all old values still retrievable (functions revised)
        assert index.lookup(Equals("A", "a")).indices().tolist() == [0, 4]
        assert index.lookup(Equals("A", "e")).indices().tolist() == [6]
        table.detach(index)

    def test_update(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        abc_table.attach(index)
        abc_table.update(0, "A", "c")
        assert index.lookup(Equals("A", "c")).indices().tolist() == [
            0, 2, 5,
        ]
        abc_table.detach(index)

    def test_delete_writes_void_code(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A")
        abc_table.attach(index)
        abc_table.delete(2)
        # row 2 now carries code 0 in every vector
        for i in range(index.width):
            assert not index.vector(i)[2]
        result = index.lookup(Equals("A", "c"))
        assert result.indices().tolist() == [5]
        abc_table.detach(index)

    def test_delete_with_existence_vector(self, abc_table):
        index = EncodedBitmapIndex(abc_table, "A", void_mode="vector")
        abc_table.attach(index)
        abc_table.delete(2)
        result = index.lookup(Equals("A", "c"))
        assert result.indices().tolist() == [5]
        abc_table.detach(index)

    def test_expansion_invalidates_cache(self, abc_table):
        mapping = MappingTable.from_pairs(
            [("a", 0), ("b", 1), ("c", 2)], width=2
        )
        index = EncodedBitmapIndex(
            abc_table, "A", encoding=mapping, void_mode="vector"
        )
        abc_table.attach(index)
        before = index.reduced_function(["a", "b", "c"])
        abc_table.append({"A": "d"})  # code 3 no longer a don't-care
        after = index.reduced_function(["a", "b", "c"])
        # the old reduction treated 3 as DC and may have covered it;
        # the new one must exclude d's code
        assert not after.evaluate_value(3)
        abc_table.detach(index)

    def test_nbytes_logarithmic(self, sales_table):
        encoded = EncodedBitmapIndex(sales_table, "product")
        from repro.index.simple_bitmap import SimpleBitmapIndex

        simple = SimpleBitmapIndex(sales_table, "product")
        assert encoded.nbytes() < simple.nbytes()
