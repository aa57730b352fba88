"""Tests for repro.shard: partition layout, the partitioned index,
and the partition-parallel executor's determinism guarantees."""

import random

import numpy as np
import pytest

from repro.database import Database
from repro.errors import InvalidArgumentError, TableError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.query.executor import Executor
from repro.query.options import QueryOptions
from repro.query.predicates import Equals, InList, Range
from repro.shard import (
    ParallelExecutor,
    PartitionedIndex,
    PartitionedTable,
    partition_bounds,
)
from repro.table.catalog import Catalog
from repro.table.table import Table
from tests.conftest import matching_rows

WORD_BITS = 64


def make_tables(nrows=500, partitions=4, seed=7):
    """A plain table and its partition-split twin, same data."""
    rng = random.Random(seed)
    columns = {
        "product": [rng.randrange(20) for _ in range(nrows)],
        "qty": [rng.randrange(100) for _ in range(nrows)],
    }
    plain = Table.from_columns("sales", dict(columns))
    parted = PartitionedTable.from_columns(
        "sales", columns, partitions=partitions
    )
    return plain, parted


class TestPartitionBounds:
    def test_word_aligned_except_last(self):
        for nrows in (1, 63, 64, 65, 200, 1000, 4096, 4097):
            for parts in (1, 2, 3, 4, 7):
                bounds = partition_bounds(nrows, parts)
                assert bounds[0] == 0
                assert bounds[-1] == nrows
                assert bounds == sorted(set(bounds))
                for bound in bounds[1:-1]:
                    assert bound % WORD_BITS == 0

    def test_small_table_drops_empty_partitions(self):
        assert partition_bounds(10, 4) == [0, 10]

    def test_extra_words_go_to_trailing_partitions(self):
        # 3 words over 2 partitions: the *second* partition gets two.
        assert partition_bounds(192, 2) == [0, 64, 192]

    def test_invalid_partition_count(self):
        with pytest.raises(TableError):
            partition_bounds(100, 0)


class TestPartitionedTable:
    def test_round_trip_columns_and_rows(self):
        plain, parted = make_tables()
        assert len(parted) == len(plain)
        assert parted.column_names == plain.column_names
        assert (
            parted.column("qty").values() == plain.column("qty").values()
        )
        for row_id in (0, 63, 64, len(plain) - 1):
            assert parted.row(row_id) == plain.row(row_id)

    def test_partition_for_maps_global_to_local(self):
        _, parted = make_tables(nrows=200, partitions=3)
        for row_id in range(len(parted)):
            partition, local = parted.partition_for(row_id)
            assert partition.offset + local == row_id

    def test_append_goes_to_last_partition(self):
        _, parted = make_tables(nrows=130, partitions=2)
        before = [len(p) for p in parted.partitions]
        row_id = parted.append({"product": 3, "qty": 9})
        assert row_id == 130
        after = [len(p) for p in parted.partitions]
        assert after[:-1] == before[:-1]
        assert after[-1] == before[-1] + 1
        assert parted.row(row_id) == {"product": 3, "qty": 9}

    def test_delete_is_void_across_partitions(self):
        _, parted = make_tables(nrows=130, partitions=2)
        parted.delete(70)
        assert parted.is_void(70)
        assert 70 in parted.void_rows()
        assert parted.live_count() == 129


class TestPartitionedIndex:
    def test_lookup_matches_reference_scan(self):
        plain, parted = make_tables()
        index = PartitionedIndex(parted, "product")
        for predicate in (
            Equals("product", 3),
            InList("product", [1, 5, 19]),
            Range("product", 4, 11),
        ):
            got = sorted(index.lookup(predicate).indices().tolist())
            assert got == matching_rows(plain, predicate)

    def test_maintains_itself_on_append(self):
        _, parted = make_tables(nrows=130, partitions=2)
        index = PartitionedIndex(parted, "product")
        row_id = parted.append({"product": 99, "qty": 1})
        got = index.lookup(Equals("product", 99)).indices().tolist()
        assert got == [row_id]

    def test_degraded_aggregates_over_children(self):
        _, parted = make_tables()
        index = PartitionedIndex(parted, "product")
        assert not index.degraded
        index.children[2].degraded = True
        assert index.degraded
        index.children[2].degraded = False
        assert not index.degraded


class TestParallelExecutor:
    def test_worker_count_validation(self):
        _, parted = make_tables()
        with pytest.raises(InvalidArgumentError):
            ParallelExecutor(parted, workers=0)
        executor = ParallelExecutor(parted)
        with pytest.raises(InvalidArgumentError):
            executor.execute(Equals("product", 1), QueryOptions(workers=0))

    def test_indexed_rows_match_reference(self):
        plain, parted = make_tables()
        PartitionedIndex(parted, "product")
        executor = ParallelExecutor(parted)
        predicate = InList("product", [2, 7])
        result = executor.execute(predicate)
        assert result.row_ids().tolist() == matching_rows(plain, predicate)
        assert not result.used_scan
        assert len(result.partitions) == len(parted.partitions)

    def test_scan_fallback_matches_reference(self):
        # No index on qty: every partition falls back to a scan.
        plain, parted = make_tables()
        executor = ParallelExecutor(parted)
        predicate = Range("qty", 20, 60)
        result = executor.execute(predicate)
        assert result.row_ids().tolist() == matching_rows(plain, predicate)
        assert result.used_scan

    def test_explain_reads_nothing(self):
        _, parted = make_tables()
        PartitionedIndex(parted, "product")
        executor = ParallelExecutor(parted)
        text = executor.explain(Equals("product", 1))
        assert "PARTITIONED QUERY PLAN" in text
        assert text.count("partition ") == len(parted.partitions)


class TestDeterminism:
    """1 worker and N workers must be bitwise-indistinguishable."""

    PREDICATES = (
        Equals("product", 3),
        InList("product", [1, 5, 19]),
        Range("qty", 10, 50),
    )

    def _run(self, executor, workers):
        registry = MetricsRegistry()
        with use_registry(registry):
            results = executor.execute_many(
                list(self.PREDICATES), QueryOptions(workers=workers)
            )
        return results, registry.collect()

    def test_rows_counts_and_metrics_identical(self):
        _, parted = make_tables()
        PartitionedIndex(parted, "product")
        executor = ParallelExecutor(parted)
        # Warm the reduction caches first: the very first lookup per
        # child records cache misses, every later one records hits.
        executor.execute_many(list(self.PREDICATES))

        base_results, base_metrics = self._run(executor, workers=1)
        for workers in (2, 4):
            results, metrics = self._run(executor, workers=workers)
            assert metrics == base_metrics
            for got, expected in zip(results, base_results):
                assert got.vector == expected.vector
                assert got.count() == expected.count()
                assert got.metrics == expected.metrics
                assert [s.rows for s in got.partitions] == [
                    s.rows for s in expected.partitions
                ]

    def test_vector_scan_equals_python_reference(self):
        # The numpy fallback scan must agree with the classic
        # row-by-row executor on the identical plain table.
        plain, parted = make_tables()
        executor = ParallelExecutor(parted)
        classic = Executor(Catalog())
        for predicate in (
            Range("qty", 5, 95),
            Equals("qty", 42),
            InList("qty", [0, 1, 99]),
        ):
            parallel = executor.execute(predicate)
            reference = classic.select(plain, predicate)
            assert np.array_equal(parallel.row_ids(), reference.row_ids())
            assert any(s.vector_scan for s in parallel.partitions)


class TestRowIdsContract:
    """``row_ids()`` is one fresh ascending int64 array whichever path
    answered: plain or partitioned, any worker count, cache hit."""

    @staticmethod
    def values():
        rng = random.Random(5)
        return [rng.randrange(20) for _ in range(700)]

    def make_db(self, partitions):
        db = Database()
        db.create_table(
            "sales", {"product": self.values()}, partitions=partitions
        )
        db.create_index("sales", "product")
        return db

    def test_every_path_returns_the_same_array(self):
        predicate = InList("product", [2, 7, 11])
        expected = np.flatnonzero(np.isin(self.values(), [2, 7, 11]))
        assert expected.size > 0
        answers = []
        for partitions in (None, 4):
            db = self.make_db(partitions)
            for workers in (1, 4):
                answers.append(
                    db.query(
                        "sales", predicate, QueryOptions(workers=workers)
                    ).row_ids()
                )
            cached = QueryOptions(workers=4, use_cache=True)
            db.query("sales", predicate, cached)
            hit = db.query("sales", predicate, cached)
            assert hit.cached
            answers.append(hit.row_ids())
        assert len(answers) == 6
        for ids in answers:
            assert ids.dtype == np.int64
            assert np.array_equal(ids, expected)

    @pytest.mark.parametrize("partitions", [None, 4])
    def test_empty_result_is_an_empty_int64_array(self, partitions):
        ids = self.make_db(partitions).query(
            "sales", Equals("product", 99)
        ).row_ids()
        assert ids.dtype == np.int64
        assert ids.shape == (0,)

    @pytest.mark.parametrize("partitions", [None, 4])
    def test_writes_leave_result_and_cache_entry_untouched(
        self, partitions
    ):
        db = self.make_db(partitions)
        predicate = InList("product", [3, 9])
        opts = QueryOptions(use_cache=True)
        filled = db.query("sales", predicate, opts)
        expected = filled.row_ids()
        filled.row_ids()[:] = -1
        hit = db.query("sales", predicate, opts)
        assert hit.cached
        hit.row_ids()[:] = -1
        again = db.query("sales", predicate, opts)
        assert again.cached
        for result in (filled, hit, again):
            assert np.array_equal(result.row_ids(), expected)


class TestBatchExecution:
    def test_batch_matches_individual_runs(self):
        plain, parted = make_tables()
        PartitionedIndex(parted, "product")
        executor = ParallelExecutor(parted)
        predicates = [
            Equals("product", 3),
            Range("product", 4, 11),
            Equals("product", 3),  # duplicated on purpose
        ]
        batch = executor.execute_many(predicates)
        for predicate, result in zip(predicates, batch):
            solo = executor.execute(predicate)
            assert np.array_equal(result.row_ids(), solo.row_ids())

    @pytest.mark.parametrize("partitions", [None, 4])
    def test_batch_duplicates_match_solo_rows_and_ce(self, partitions):
        """Every query of a batch, duplicates and shared leaves
        included, answers with the rows *and* ``c_e`` it has alone."""
        db = Database()
        rng = random.Random(3)
        db.create_table(
            "sales",
            {"product": [rng.randrange(20) for _ in range(500)]},
            partitions=partitions,
        )
        db.create_index("sales", "product")
        shared = Equals("product", 3)
        predicates = [
            shared,
            Range("product", 4, 11),
            shared,
            shared | Equals("product", 9),
            InList("product", [3, 9]),
        ]
        for workers in (1, 2):
            opts = QueryOptions(workers=workers)
            batch = db.query_many("sales", predicates, opts)
            for predicate, result in zip(predicates, batch):
                solo = db.query("sales", predicate, opts)
                assert np.array_equal(
                    result.row_ids(), solo.row_ids()
                ), predicate
                assert (
                    result.cost.vectors_accessed
                    == solo.cost.vectors_accessed
                ), predicate

    def test_empty_batch(self):
        _, parted = make_tables()
        executor = ParallelExecutor(parted)
        assert executor.execute_many([]) == []
