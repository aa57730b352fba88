"""Section 2.3 / Figures 7-8 — range-based encoded bitmap indexing,
plus the Wu & Yu comparison from Section 4.

Reproduces the worked example: predicates 6<=A<10, 8<=A<12, 10<=A<13,
16<=A<20 over [6,20) partition into six intervals, the intervals are
encoded, and each predicate's retrieval function reduces to <= 2
vectors.  Then contrasts with the Wu & Yu equal-population range
bitmap, which must candidate-check edge buckets.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.boolean.reduction import reduce_values
from repro.encoding.range_based import (
    partition_from_predicates,
    range_encoding,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.range_bitmap import RangeBitmapIndex
from repro.query.predicates import Range
from repro.workload.generators import build_table, zipf_column

PAPER_PREDICATES = [(6, 10), (8, 12), (10, 13), (16, 20)]


class TestFigures7And8:
    def test_partitioning(self):
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)
        print_table(
            "Figure 7: induced partitions of [6, 20)",
            ["interval"],
            [(str(interval),) for interval in partition.intervals],
        )
        assert len(partition) == 6

    def test_encoding_and_retrieval_functions(self, benchmark):
        partition = partition_from_predicates(6, 20, PAPER_PREDICATES)

        def encode():
            return range_encoding(partition, PAPER_PREDICATES, seed=0)

        mapping = benchmark.pedantic(encode, iterations=1, rounds=1)
        rows = []
        for low, high in PAPER_PREDICATES:
            covering = partition.covering(low, high)
            codes = [mapping.encode(i) for i in covering]
            reduced = reduce_values(
                codes, mapping.width,
                dont_cares=mapping.unused_codes(),
            )
            rows.append(
                (f"{low} <= A < {high}", reduced.to_string(),
                 reduced.vector_count())
            )
        print_table(
            "Figure 8: retrieval functions for the predefined ranges",
            ["predicate", "retrieval fn", "vectors"],
            rows,
        )
        # the paper's own encoding achieves 2 per predicate; ours must
        # do at least as well
        assert all(nvec <= 2 for _, _, nvec in rows)


class TestVersusWuYu:
    """Section 4: predicate-driven vs distribution-driven partitions."""

    @pytest.fixture(scope="class")
    def skewed(self):
        n = 4000
        return build_table(
            "t", n, {"v": zipf_column(n, 200, skew=1.2, seed=5)}
        )

    def test_edge_bucket_candidate_checks(self, skewed, benchmark):
        """Wu & Yu buckets rarely align with query ranges, forcing
        candidate row checks; the predicate-driven encoded index has
        none for its predefined ranges."""
        wu_yu = RangeBitmapIndex(skewed, "v", buckets=16)
        encoded = EncodedBitmapIndex(skewed, "v")

        predicate = Range("v", 10, 37)

        def run_both():
            wu_yu.lookup(predicate)
            checks = wu_yu.last_cost.rows_checked
            encoded.lookup(predicate)
            return checks, encoded.last_cost.rows_checked

        wu_yu_checks, encoded_checks = benchmark.pedantic(
            run_both, iterations=1, rounds=1
        )
        print_table(
            "Candidate row checks for 10 <= v <= 37 (n = 4000)",
            ["index", "vectors", "row checks"],
            [
                ("Wu & Yu range bitmap",
                 wu_yu.last_cost.vectors_accessed, wu_yu_checks),
                ("encoded bitmap",
                 encoded.last_cost.vectors_accessed, encoded_checks),
            ],
        )
        assert encoded_checks == 0
        assert wu_yu_checks > 0

    def test_results_agree(self, skewed):
        wu_yu = RangeBitmapIndex(skewed, "v", buckets=16)
        encoded = EncodedBitmapIndex(skewed, "v")
        for predicate in (
            Range("v", 0, 10), Range("v", 50, 150),
            Range("v", 190, None),
        ):
            assert wu_yu.lookup(predicate) == encoded.lookup(predicate)

    def test_many_small_partitions_degenerate(self):
        """The paper: when predicates induce many 1-element
        partitions, range-based indexing reduces to an encoded bitmap
        index on single values — still only ceil(log2) vectors."""
        predicates = [(i, i + 1) for i in range(0, 32)]
        partition = partition_from_predicates(0, 32, predicates)
        assert len(partition) == 32
        mapping = range_encoding(
            partition, predicates, local_search_steps=0, seed=0
        )
        assert mapping.width == 5  # ceil(log2 32): same as value-level
