"""End-to-end pins of every worked example in the paper.

Each test reconstructs one of the paper's figures with library objects
and asserts the exact artefacts the paper prints (mapping tables,
reduced expressions, vector counts).
"""

import pytest

from repro.boolean.reduction import reduce_values
from repro.encoding.mapping import MappingTable
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.predicates import Equals, InList
from repro.table.table import Table


@pytest.fixture
def figure1_table():
    """Six rows over domain {a, b, c}, per Figure 1's vectors."""
    table = Table("T", ["A"])
    for value in ["a", "b", "c", "b", "a", "c"]:
        table.append({"A": value})
    return table


@pytest.fixture
def figure1_index(figure1_table):
    mapping = MappingTable.from_pairs(
        [("a", 0b00), ("b", 0b01), ("c", 0b10)], width=2
    )
    return EncodedBitmapIndex(
        figure1_table, "A", encoding=mapping,
        void_mode="vector", null_mode="vector",
    )


class TestFigure1:
    def test_mapping_table(self, figure1_index):
        rows = dict(figure1_index.mapping.to_rows())
        assert rows == {"a": "00", "b": "01", "c": "10"}

    def test_two_vectors_instead_of_three(
        self, figure1_table, figure1_index
    ):
        simple = SimpleBitmapIndex(figure1_table, "A")
        assert simple.vector_count == 3
        assert figure1_index.width == 2

    def test_bitmap_vector_contents(self, figure1_index):
        """B1/B0 hold the MSB/LSB of each row's code."""
        # rows: a b c b a c -> codes 00 01 10 01 00 10
        assert figure1_index.vector(0).to_bitstring() == "010100"
        assert figure1_index.vector(1).to_bitstring() == "001001"

    def test_retrieval_functions(self, figure1_index):
        """f_a = B1'B0', f_b = B1'B0, f_c = B1B0'."""
        assert figure1_index.retrieval_function("a").to_string() == "B1'B0'"
        assert figure1_index.retrieval_function("b").to_string() == "B1'B0"
        assert figure1_index.retrieval_function("c").to_string() == "B1B0'"

    def test_q2_reduces_to_b1_negated(self, figure1_index):
        """f_a + f_b = B1'B0' + B1'B0 = B1' (Section 2.2)."""
        reduced = figure1_index.reduced_function(["a", "b"])
        assert reduced.to_string() == "B1'"
        assert reduced.vector_count() == 1

    def test_q1_vs_q2_costs(self, figure1_table, figure1_index):
        """Section 3.1's Q1/Q2 comparison: simple wins the point
        query (1 vs 2 vectors), encoded wins the range (1 vs 2)."""
        simple = SimpleBitmapIndex(figure1_table, "A")

        simple.lookup(Equals("A", "a"))
        assert simple.last_cost.vectors_accessed == 1
        figure1_index.lookup(Equals("A", "a"))
        # 2 data vectors + existence (vector mode)
        assert figure1_index.last_cost.vectors_accessed - 1 == 2

        simple.lookup(InList("A", ["a", "b"]))
        assert simple.last_cost.vectors_accessed == 2
        figure1_index.lookup(InList("A", ["a", "b"]))
        assert figure1_index.last_cost.vectors_accessed - 1 == 1


class TestFigure2:
    """Maintenance under domain expansion."""

    def test_2a_add_d_no_new_vector(self, figure1_table):
        mapping = MappingTable.from_pairs(
            [("a", 0b00), ("b", 0b01), ("c", 0b10)], width=2
        )
        index = EncodedBitmapIndex(
            figure1_table, "A", encoding=mapping, void_mode="vector"
        )
        figure1_table.attach(index)
        figure1_table.append({"A": "d"})
        assert index.width == 2
        assert index.mapping.encode("d") == 0b11
        assert index.retrieval_function("d").to_string() == "B1B0"
        figure1_table.detach(index)

    def test_2b_add_e_new_vector(self, figure1_table):
        mapping = MappingTable.from_pairs(
            [("a", 0b00), ("b", 0b01), ("c", 0b10), ("d", 0b11)],
            width=2,
        )
        index = EncodedBitmapIndex(
            figure1_table, "A", encoding=mapping, void_mode="vector"
        )
        figure1_table.attach(index)
        figure1_table.append({"A": "e"})
        assert index.width == 3
        assert index.mapping.encode("e") == 0b100
        # step 4: functions revised by ANDing B2'
        assert index.retrieval_function("a").to_string() == "B2'B1'B0'"
        assert index.retrieval_function("e").to_string() == "B2B1'B0'"
        # B2 is zero everywhere except the new row
        assert index.vector(2).indices().tolist() == [6]
        figure1_table.detach(index)


class TestTheorem21Example:
    """The NULL/void encoding example of Section 2.2."""

    ENCODING = {
        "NULL": 0b010, "a": 0b011, "b": 0b100,
        "c": 0b101, "d": 0b110, "e": 0b111,
    }  # VOID (NotExist) at 000, 001 unused

    def test_selection_ignores_void_term(self):
        """Selecting {NULL, a, b, c} reduces to (B2'B1 + B2B1')
        without any existence conjunct."""
        codes = [self.ENCODING[v] for v in ("NULL", "a", "b", "c")]
        reduced = reduce_values(codes, 3, dont_cares=[0b001])
        assert reduced.vector_count() == 2
        assert set(str(reduced).split(" + ")) == {"B2'B1", "B2B1'"}
        # void code 000 excluded
        assert not reduced.evaluate_value(0)


class TestSection4GroupSet:
    def test_vector_arithmetic(self):
        """10^7 simple vectors vs ~20 encoded for cards 100/200/500."""
        from repro.analysis.cost_models import encoded_vectors
        from repro.index.groupset import GroupSetIndex

        cards = [100, 200, 500]
        assert GroupSetIndex.simple_vector_count(cards) == 10**7
        encoded_total = sum(encoded_vectors(m) for m in cards)
        # ceil(log2 100)+ceil(log2 200)+ceil(log2 500) = 7+8+9 = 24
        # (the paper rounds its example to "only 20 bit vectors")
        assert encoded_total == 24
        assert encoded_total < 30
