"""Delta tier: arrival-order deltas, compaction, snapshot epochs.

The invariant under test everywhere: merging base-plane results with
the delta is *bit-identical* — same rows, same ``c_e`` — to rebuilding
the planes from scratch.  The delta only changes when work happens
(plane rebuilds), never what a query returns or what it is charged.
"""

from __future__ import annotations

import threading

import pytest

from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import Equals, InList, NotPredicate
from repro.query.snapshot import pinned_rows, snapshot_rows
from repro.table.table import Table

VALUES = ["a", "b", "c", "d"]
ALL_MODES = [
    (void_mode, null_mode)
    for void_mode in ("encode", "vector")
    for null_mode in ("encode", "vector")
]
#: The ablation configurations with an explicit existence or NULL vector.
VECTOR_MODES = ALL_MODES[1:]


def make(n=80, **options):
    table = Table.from_columns(
        "T", {"v": [VALUES[i % 4] for i in range(n)]}
    )
    index = EncodedBitmapIndex(table, "v", **options)
    table.attach(index)
    return table, index


def assert_bit_identical(index, table, predicates=None):
    """Index results equal a from-scratch rebuild, rows and c_e."""
    rebuilt = EncodedBitmapIndex(
        table,
        "v",
        encoding=index.mapping,
        void_mode=index.void_mode,
        null_mode=index.null_mode,
    )
    for predicate in predicates or [Equals("v", v) for v in VALUES]:
        expected = rebuilt.lookup(predicate)
        actual = index.lookup(predicate)
        assert list(actual) == list(expected), predicate
        assert (
            index.last_cost.vectors_accessed
            == rebuilt.last_cost.vectors_accessed
        ), predicate


class TestDeltaTier:
    def test_appends_land_in_delta_without_plane_rebuild(self):
        table, index = make()
        index.lookup(Equals("v", "a"))  # warm the planes
        rebuilds = index.plane_rebuilds
        for i in range(16):
            table.append({"v": VALUES[i % 4]})
        assert index.delta_rows() == 16
        index.lookup(Equals("v", "a"))
        assert index.plane_rebuilds == rebuilds

    def test_delta_merge_is_bit_identical(self):
        table, index = make()
        index.lookup(Equals("v", "a"))
        for i in range(16):
            table.append({"v": VALUES[(i + 2) % 4]})
        assert_bit_identical(
            index,
            table,
            [
                Equals("v", "a"),
                Equals("v", "d"),
                InList("v", ["a", "c"]),
                NotPredicate(Equals("v", "b")),
            ],
        )

    def test_update_and_delete_of_delta_rows(self):
        table, index = make()
        index.lookup(Equals("v", "a"))
        rebuilds = index.plane_rebuilds
        row_id = table.append({"v": "a"})
        table.update(row_id, "v", "b")  # rewrite inside the delta
        table.delete(table.append({"v": "c"}))  # void inside the delta
        assert index.plane_rebuilds == rebuilds
        assert_bit_identical(index, table)

    def test_update_of_base_row_invalidates_planes(self):
        table, index = make()
        index.lookup(Equals("v", "a"))
        table.update(0, "v", "b")  # base row: must invalidate
        assert_bit_identical(index, table)

    def test_compact_folds_and_swaps_atomically(self):
        table, index = make()
        index.lookup(Equals("v", "a"))
        for i in range(10):
            table.append({"v": VALUES[i % 4]})
        before = index.lookup(Equals("v", "b"))
        assert index.compact() is True
        assert index.delta_rows() == 0
        assert index.compactions == 1
        assert list(index.lookup(Equals("v", "b"))) == list(before)
        assert index.compact() is False  # nothing left to fold

    def test_threshold_triggers_auto_compaction(self):
        table, index = make(n=8)
        index.DELTA_COMPACT_THRESHOLD = 4
        index.lookup(Equals("v", "a"))
        for i in range(4):
            table.append({"v": VALUES[i % 4]})
        assert index.delta_rows() == 0  # folded on the 4th append
        assert index.compactions >= 1
        assert_bit_identical(index, table)

    def test_epoch_moves_on_every_mutation(self):
        table, index = make()
        epochs = {index.epoch()}
        table.append({"v": "a"})
        epochs.add(index.epoch())
        table.update(0, "v", "b")
        epochs.add(index.epoch())
        index.compact()
        epochs.add(index.epoch())
        assert len(epochs) == 4

    @pytest.mark.parametrize("void_mode,null_mode", VECTOR_MODES)
    def test_vector_modes_use_the_delta(self, void_mode, null_mode):
        table, index = make(void_mode=void_mode, null_mode=null_mode)
        index.lookup(Equals("v", "a"))
        rebuilds = index.plane_rebuilds
        for i in range(6):
            table.append({"v": VALUES[i % 4]})
        table.delete(81)  # a delta row
        assert index.delta_rows() == 6
        assert_bit_identical(index, table)
        assert index.plane_rebuilds == rebuilds

    @pytest.mark.parametrize("void_mode,null_mode", ALL_MODES)
    def test_fsck_passes_with_live_delta(self, void_mode, null_mode):
        from repro.index.verify import verify_index

        table, index = make(void_mode=void_mode, null_mode=null_mode)
        index.lookup(Equals("v", "a"))
        for i in range(6):
            table.append({"v": VALUES[i % 4]})
        assert index.delta_rows() == 6
        assert verify_index(index).ok


class TestSnapshotPinning:
    def test_pin_bounds_results_to_watermark(self):
        table, index = make(n=20)
        with pinned_rows(table):
            assert snapshot_rows(table) == 20
            table.append({"v": "a"})
            result = index.lookup(Equals("v", "a"))
            assert len(result) == 20
        assert len(index.lookup(Equals("v", "a"))) == 21

    def test_pins_nest_innermost_wins(self):
        table, index = make(n=20)
        with pinned_rows(table):
            table.append({"v": "a"})
            with pinned_rows(table):
                assert snapshot_rows(table) == 21
            assert snapshot_rows(table) == 20

    def test_pin_is_per_table(self):
        table, _ = make(n=20)
        other = Table.from_columns("O", {"v": ["x"]})
        with pinned_rows(table):
            assert snapshot_rows(other) is None

    def test_batch_appends_move_watermark_once(self):
        """A concurrent reader pinning mid-batch sees none of it: the
        watermark is batch-atomic (moved once, under the write lock)."""
        table, index = make(n=20)
        seen = []
        barrier = threading.Barrier(2)

        class Spy:
            def on_append(self, row_id, row):
                if row_id == 25:
                    barrier.wait()  # let the reader pin mid-batch
                    barrier.wait()

            def on_update(self, *a):  # pragma: no cover
                pass

            def on_delete(self, *a):  # pragma: no cover
                pass

        table.attach(Spy())

        def reader():
            barrier.wait()
            seen.append(table.published_rows())
            barrier.wait()

        thread = threading.Thread(target=reader)
        thread.start()
        table.append_rows([{"v": VALUES[i % 4]} for i in range(10)])
        thread.join()
        assert seen == [20]  # none of the batch, not rows 0..i of it
        assert table.published_rows() == 30

    def test_execute_many_batches_are_not_torn(self):
        """ParallelExecutor pins each partition for the whole batch."""
        from repro.shard.executor import ParallelExecutor
        from repro.shard.partition import PartitionedTable

        ptable = PartitionedTable.from_columns(
            "P", {"v": [VALUES[i % 4] for i in range(128)]}, partitions=2
        )
        executor = ParallelExecutor(ptable, workers=1)
        results = executor.execute_many(
            [Equals("v", "a"), Equals("v", "b")]
        )
        assert len(results[0].vector) == len(results[1].vector) == 128
