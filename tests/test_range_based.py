"""Unit tests for repro.encoding.range_based (Section 2.3, Figures 7-8)."""

import pytest

from repro.boolean.reduction import reduce_values
from repro.encoding.range_based import (
    Interval,
    partition_from_predicates,
    range_encoding,
)

PAPER_PREDICATES = [(6, 10), (8, 12), (10, 13), (16, 20)]


class TestInterval:
    def test_contains_half_open(self):
        interval = Interval(6, 8)
        assert interval.contains(6)
        assert interval.contains(7.5)
        assert not interval.contains(8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5)

    def test_str(self):
        assert str(Interval(6, 8)) == "[6,8)"


class TestPartitionFromPredicates:
    def test_paper_figure7(self):
        """Predicates 6<=A<10, 8<=A<12, 10<=A<13, 16<=A<20 over [6,20)
        yield exactly the six partitions of Figure 7."""
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        assert [str(i) for i in partition.intervals] == [
            "[6,8)", "[8,10)", "[10,12)", "[12,13)", "[13,16)", "[16,20)",
        ]

    def test_locate(self):
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        assert str(partition.locate(9)) == "[8,10)"
        assert str(partition.locate(19)) == "[16,20)"
        with pytest.raises(ValueError):
            partition.locate(25)

    def test_covering_aligned(self):
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        covering = partition.covering(8, 12)
        assert [str(i) for i in covering] == ["[8,10)", "[10,12)"]

    def test_covering_misaligned_raises(self):
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        with pytest.raises(ValueError):
            partition.covering(7, 11)

    def test_predicate_outside_domain(self):
        with pytest.raises(ValueError):
            partition_from_predicates(6, 20, [(5, 10)])

    def test_empty_predicate(self):
        with pytest.raises(ValueError):
            partition_from_predicates(6, 20, [(10, 10)])

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            partition_from_predicates(5, 5, [])

    def test_no_predicates_single_interval(self):
        partition = partition_from_predicates(0, 10, [])
        assert len(partition) == 1


class TestRangeEncoding:
    def test_each_paper_predicate_reduces(self):
        """Every pre-defined range must touch at most 2 of the 3
        vectors (the paper's Figure 8 costs), and the result must
        select exactly the covered intervals."""
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        mapping = range_encoding(partition, PAPER_PREDICATES, seed=0)
        assert mapping.width == 3
        for low, high in PAPER_PREDICATES:
            covering = partition.covering(low, high)
            codes = [mapping.encode(i) for i in covering]
            reduced = reduce_values(
                codes, mapping.width, dont_cares=mapping.unused_codes()
            )
            assert reduced.vector_count() <= 2
            # semantics: exactly the covered intervals selected
            for interval in partition.intervals:
                expected = interval in covering
                assert (
                    reduced.evaluate_value(mapping.encode(interval))
                    == expected
                )

    def test_paper_figure8_mapping(self):
        """Pin the paper's own Figure 8 encoding and its reductions.

        The functions printed in Figure 8(b) do not exploit the two
        unused codes (except for 16<=A<20, where B2B1 needs code 111
        as a don't-care).  We reproduce the exact printed expressions
        without don't-cares, then check that enabling don't-cares only
        ever matches or beats them — our reducer finds the strictly
        better ``B0`` for 8<=A<12.
        """
        fig8 = {
            "[6,8)": 0b000, "[8,10)": 0b001, "[10,12)": 0b101,
            "[12,13)": 0b100, "[13,16)": 0b010, "[16,20)": 0b110,
        }
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        code_of = {str(i): fig8[str(i)] for i in partition.intervals}
        dont_cares = [c for c in range(8) if c not in fig8.values()]

        printed = {
            (6, 10): "B2'B1'",
            (8, 12): "B1'B0",
            (10, 13): "B2B1'",
        }
        for (low, high), text in printed.items():
            covering = partition.covering(low, high)
            codes = [code_of[str(i)] for i in covering]
            reduced = reduce_values(codes, 3)
            assert reduced.to_string() == text
            assert reduced.vector_count() == 2

        # 16 <= A < 20 is a single interval; the paper's B2B1 uses the
        # unused code 111 as a don't-care.
        codes = [code_of["[16,20)"]]
        reduced = reduce_values(codes, 3, dont_cares=dont_cares)
        assert reduced.to_string() == "B2B1"
        assert reduced.vector_count() == 2

        # With don't-cares everywhere, we match or beat the paper.
        for low, high in PAPER_PREDICATES:
            covering = partition.covering(low, high)
            codes = [code_of[str(i)] for i in covering]
            reduced = reduce_values(codes, 3, dont_cares=dont_cares)
            assert reduced.vector_count() <= 2
