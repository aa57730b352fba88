"""Out-of-core execution: mapped planes, residency, streaming.

Covers the spill/evict/fault-in tier end to end (docs/out_of_core.md):

* plane-file round trips and corruption detection for
  :class:`repro.kernels.mapped.MappedPlaneSet`;
* hypothesis differentials proving mapped evaluation is bit-identical
  (rows *and* ``c_e``) to dense evaluation across spill / evict /
  fault-in / promote cycles;
* :class:`repro.shard.residency.ResidencyManager` budget enforcement,
  LRU victim order, prefetch warmth, promotion and accounting;
* the database-level wiring: ``memory_budget_bytes``, streaming
  queries under budget pressure, idempotent ``close()``, manifest
  round trip;
* the one prefetch worker per manager, its shutdown on ``close()``,
  and residency counters pinned across the streaming pipeline;
* :class:`repro.storage.stats.IOStatistics` ledger reconciliation
  under buffer-pool eviction pressure.
"""

import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.evaluator import AccessCounter
from repro.database import Database
from repro.errors import ChecksumError, CorruptIndexError
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.kernels import MappedPlaneSet, write_plane_file
from repro.kernels.compiler import compile_function
from repro.kernels.mapped import PLANE_DATA_OFFSET
from repro.query.options import QueryOptions
from repro.query.predicates import Equals, InList
from repro.shard.residency import ResidencyManager
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.table.table import Table


def _index(values):
    table = Table.from_columns("t", {"v": list(values)})
    return EncodedBitmapIndex(table, "v")


# ---------------------------------------------------------------------------
# plane files
# ---------------------------------------------------------------------------
class TestPlaneFile:
    def test_round_trip_rows_bit_identical(self, tmp_path):
        index = _index([i % 7 for i in range(300)])
        planes = index.planes()
        path = str(tmp_path / "planes.ebp")
        nbytes = write_plane_file(planes, path)
        assert nbytes == os.path.getsize(path)
        mapped = MappedPlaneSet.open(path)
        assert (mapped.width, mapped.nbits, mapped.nwords) == (
            planes.width,
            planes.nbits,
            planes.nwords,
        )
        assert mapped.matrix.shape == (planes.width, planes.nwords)
        assert (mapped.matrix == planes.matrix).all()
        mapped.verify()  # raises on payload corruption
        mapped.close()

    def test_payload_starts_page_aligned(self, tmp_path):
        index = _index(["a", "b", "c"] * 10)
        planes = index.planes()
        path = str(tmp_path / "planes.ebp")
        write_plane_file(planes, path)
        # The matrix begins exactly one page in, so plane words never
        # share an OS page with the header.
        assert PLANE_DATA_OFFSET % 4096 == 0
        assert (
            os.path.getsize(path)
            == PLANE_DATA_OFFSET + planes.matrix.nbytes
        )

    def test_header_corruption_detected(self, tmp_path):
        index = _index(["a", "b"] * 40)
        path = str(tmp_path / "planes.ebp")
        write_plane_file(index.planes(), path)
        with open(path, "r+b") as handle:
            handle.seek(9)
            byte = handle.read(1)
            handle.seek(9)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ChecksumError):
            MappedPlaneSet.open(path)

    def test_payload_corruption_fails_verify(self, tmp_path):
        index = _index(["a", "b"] * 40)
        path = str(tmp_path / "planes.ebp")
        write_plane_file(index.planes(), path)
        mapped = MappedPlaneSet.open(path)
        mapped.verify()
        mapped.close()
        with open(path, "r+b") as handle:
            handle.seek(PLANE_DATA_OFFSET)
            word = handle.read(8)
            handle.seek(PLANE_DATA_OFFSET)
            handle.write(bytes(b ^ 0xFF for b in word))
        reopened = MappedPlaneSet.open(path)  # header still intact
        with pytest.raises(ChecksumError):
            reopened.verify()
        reopened.close()

    def test_truncated_file_rejected(self, tmp_path):
        index = _index(["a", "b"] * 40)
        path = str(tmp_path / "planes.ebp")
        write_plane_file(index.planes(), path)
        with open(path, "r+b") as handle:
            handle.truncate(PLANE_DATA_OFFSET + 8)
        with pytest.raises(CorruptIndexError):
            MappedPlaneSet.open(path)

    def test_materialize_matches_mapped(self, tmp_path):
        index = _index([i % 5 for i in range(200)])
        planes = index.planes()
        path = str(tmp_path / "planes.ebp")
        write_plane_file(planes, path)
        mapped = MappedPlaneSet.open(path)
        dense = mapped.materialize()
        assert (dense.matrix == mapped.matrix).all()
        mapped.close()
        # The materialized copy must survive the mapping's close.
        assert (dense.matrix == planes.matrix).all()


# ---------------------------------------------------------------------------
# differential: mapped == dense, through kernels and the index API
# ---------------------------------------------------------------------------
class TestMappedDifferential:
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=15),
            min_size=1,
            max_size=220,
        ),
        picks=st.lists(
            st.integers(min_value=0, max_value=15),
            min_size=1,
            max_size=6,
            unique=True,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_rows_and_ce_identical(self, values, picks):
        index = _index(values)
        domain = sorted(set(values))
        selected = sorted({domain[p % len(domain)] for p in picks})
        kernel = compile_function(index.reduced_function(selected))
        planes = index.planes()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "planes.ebp")
            write_plane_file(planes, path)
            mapped = MappedPlaneSet.open(path)
            dense_counter = AccessCounter()
            dense_rows = kernel.evaluate(planes, dense_counter)
            mapped_counter = AccessCounter()
            mapped_rows = kernel.evaluate(mapped, mapped_counter)
            assert dense_rows == mapped_rows
            assert (
                dense_counter.distinct_accesses
                == mapped_counter.distinct_accesses
            )
            assert dense_counter.reads == mapped_counter.reads
            mapped.close()

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=1,
            max_size=150,
        ),
        cycles=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_lookup_stable_across_spill_promote_cycles(
        self, values, cycles
    ):
        index = _index(values)
        domain = sorted(set(values))
        probes = domain[:3]
        baseline = []
        for value in probes:
            rows = list(index.lookup(Equals("v", value)))
            baseline.append(
                (rows, index.last_cost.vectors_accessed)
            )
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "planes.ebp")
            for cycle in range(cycles):
                assert index.spill_planes(path) is not None
                assert index.planes_mapped
                for value, (rows, ce) in zip(probes, baseline):
                    got = list(index.lookup(Equals("v", value)))
                    assert got == rows
                    assert index.last_cost.vectors_accessed == ce
                assert index.promote_planes() is not None
                assert not index.planes_mapped
                for value, (rows, ce) in zip(probes, baseline):
                    got = list(index.lookup(Equals("v", value)))
                    assert got == rows
                    assert index.last_cost.vectors_accessed == ce

    def test_spill_noop_on_mapped_and_promote_noop_on_dense(
        self, tmp_path
    ):
        index = _index(["a", "b"] * 30)
        path = str(tmp_path / "planes.ebp")
        assert index.promote_planes() is None  # already dense
        assert index.spill_planes(path) is not None
        assert index.spill_planes(path) is None  # already mapped
        assert index.promote_planes() is not None

    def test_append_served_over_mapped_snapshot(self, tmp_path):
        table = Table.from_columns("t", {"v": ["a", "b"] * 30})
        index = EncodedBitmapIndex(table, "v")
        path = str(tmp_path / "planes.ebp")
        index.spill_planes(path)
        assert index.planes_mapped
        row = table.append({"v": "a"})
        index.on_append(row, {"v": "a"})
        # The delta tier absorbs the append over the mapped snapshot:
        # the new row is visible without a dense rebuild.
        bits = index.lookup(Equals("v", "a"))
        assert [i for i, bit in enumerate(bits) if bit][-1] == row
        # A full rebuild drops the stale mapping for dense planes.
        index.rebuild()
        index.lookup(Equals("v", "a"))
        assert not index.planes_mapped


# ---------------------------------------------------------------------------
# residency manager
# ---------------------------------------------------------------------------
def _partitioned_db(budget, rows=4096, partitions=4):
    db = Database(memory_budget_bytes=budget)
    db.create_table(
        "facts",
        {"v": [i % 8 for i in range(rows)]},
        partitions=partitions,
    )
    db.create_index("facts", "v")
    return db


class TestResidencyManager:
    def test_budget_is_a_hard_ceiling(self, tmp_path):
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=1
        )
        index = _index([i % 4 for i in range(512)])
        manager.register(0, index)
        manager.acquire(0)
        assert index.planes_mapped
        assert manager.resident_bytes <= 1

    def test_lru_victim_order(self, tmp_path):
        indexes = [_index([i % 4 for i in range(512)]) for _ in range(3)]
        per_index = indexes[0].planes().matrix.nbytes
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=2 * per_index
        )
        for pid, index in enumerate(indexes):
            manager.register(pid, index)
        manager.acquire(0)
        manager.acquire(1)
        assert manager.mapped_count() == 0
        manager.acquire(2)  # evicts partition 0, the LRU
        assert indexes[0].planes_mapped
        assert not indexes[1].planes_mapped
        assert not indexes[2].planes_mapped

    def test_fault_promotes_when_headroom_allows(self, tmp_path):
        indexes = [_index([i % 4 for i in range(512)]) for _ in range(2)]
        per_index = indexes[0].planes().matrix.nbytes
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=per_index
        )
        for pid, index in enumerate(indexes):
            manager.register(pid, index)
        manager.acquire(0)
        manager.acquire(1)  # spills 0, charges 1
        assert indexes[0].planes_mapped
        manager.spill(1)
        manager.acquire(0)  # budget now free: fault promotes 0 back
        assert not indexes[0].planes_mapped
        assert manager.report()["promotions"] >= 1

    def test_prefetch_turns_fault_into_pool_hits(self, tmp_path):
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=1
        )
        index = _index([i % 4 for i in range(512)])
        manager.register(0, index)
        manager.acquire(0)  # charge + spill
        before = manager.stats.snapshot()
        manager.acquire(0)  # cold fault
        cold = manager.stats.snapshot() - before
        assert cold.physical_reads > 0
        assert cold.pool_hits == 0
        before = manager.stats.snapshot()
        manager.prefetch(0)
        manager.acquire(0)  # warmth consumed as pool hits
        warm = manager.stats.snapshot() - before
        assert warm.pool_hits > 0
        assert warm.pool_hits == warm.physical_reads  # prefetch paid them

    def test_multiple_indexes_per_partition(self, tmp_path):
        table = Table.from_columns(
            "t",
            {
                "v": [i % 4 for i in range(512)],
                "w": [i % 3 for i in range(512)],
            },
        )
        first = EncodedBitmapIndex(table, "v")
        second = EncodedBitmapIndex(table, "w")
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=1
        )
        manager.register(0, first)
        manager.register(0, second)
        assert manager.report()["registered"] == 2
        manager.acquire(0)
        assert first.planes_mapped and second.planes_mapped
        assert len(os.listdir(str(tmp_path))) == 2

    def test_spill_accounting_reconciles(self, tmp_path):
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=1
        )
        index = _index([i % 4 for i in range(512)])
        manager.register(0, index)
        manager.acquire(0)
        report = manager.report()
        payload = index.planes().nbytes()
        pages = -(-payload // manager.page_size)
        assert report["spills"] == 1
        assert manager.stats.evictions == 1
        assert manager.stats.writes == pages
        manager.acquire(0)
        assert manager.stats.physical_reads == pages

    def test_close_is_idempotent_and_removes_files(self, tmp_path):
        directory = str(tmp_path / "res")
        manager = ResidencyManager(directory, memory_budget_bytes=1)
        index = _index([i % 4 for i in range(512)])
        manager.register(0, index)
        manager.acquire(0)
        assert os.listdir(directory)
        manager.close()
        assert not os.path.exists(directory)
        manager.close()  # second close is a no-op


# ---------------------------------------------------------------------------
# database wiring + streaming executor
# ---------------------------------------------------------------------------
class TestDatabaseOutOfCore:
    # 4096 rows over 8 values in 4 partitions: k=3 * 16 words * 8
    # bytes = 384 plane bytes per child, 1536 total.  A 768-byte
    # budget holds two partitions, so every pass must spill and fault.
    BUDGET = 768

    def test_streaming_matches_fully_resident(self):
        resident = _partitioned_db(None)
        budgeted = _partitioned_db(self.BUDGET)
        try:
            opts = QueryOptions(workers=1)
            for predicate in (
                Equals("v", 3),
                InList("v", [0, 5, 7]),
            ):
                expected = resident.query("facts", predicate, opts)
                for _ in range(3):  # cycle spill/fault repeatedly
                    got = budgeted.query("facts", predicate, opts)
                    assert np.array_equal(got.row_ids(), expected.row_ids())
                    assert (
                        got.cost.vectors_accessed
                        == expected.cost.vectors_accessed
                    )
            report = budgeted.residency_report("facts")
            assert report is not None
            assert report["spills"] >= 1
            assert report["budget_bytes"] == self.BUDGET
            assert (
                report["peak_resident_bytes"]
                <= self.BUDGET + report["total_plane_bytes"] // 4
            )
        finally:
            resident.close()
            budgeted.close()

    def test_prefetch_option_controls_pipeline(self):
        db = _partitioned_db(self.BUDGET)
        try:
            predicate = InList("v", [1, 2])
            db.query("facts", predicate, QueryOptions(workers=1))
            db.query(
                "facts",
                predicate,
                QueryOptions(workers=1, prefetch=False),
            )
            report = db.residency_report("facts")
            assert report is not None
            ablated = report["prefetches"]
            db.query("facts", predicate, QueryOptions(workers=1))
            report = db.residency_report("facts")
            assert report is not None
            assert report["prefetches"] > ablated
        finally:
            db.close()

    def test_no_manager_without_budget(self):
        db = _partitioned_db(None)
        try:
            assert db.residency_report("facts") is None
        finally:
            db.close()

    def test_multiworker_spill_race_bit_identical(self):
        # Regression: two worker threads enforcing the budget at once
        # used to share one spill temp file (pid-only suffix) and
        # publish a torn plane header (CorruptIndexError mid-query).
        resident = _partitioned_db(None, partitions=16)
        streaming = _partitioned_db(self.BUDGET, partitions=16)
        try:
            opts = QueryOptions(workers=4)
            preds = [InList("v", [1, 3, 5, 7]), InList("v", [0, 2, 6])]
            expected = [
                list(resident.query("facts", p).vector) for p in preds
            ]
            for _ in range(4):
                for p, want in zip(preds, expected):
                    got = streaming.query("facts", p, opts)
                    assert list(got.vector) == want
            report = streaming.residency_report("facts")
            assert report["spills"] >= 1
        finally:
            resident.close()
            streaming.close()

    def test_concurrent_acquires_never_torn(self, tmp_path):
        indexes = [
            _index([i % 5 for i in range(256)]) for _ in range(6)
        ]
        manager = ResidencyManager(
            str(tmp_path), memory_budget_bytes=1
        )
        for pid, index in enumerate(indexes):
            manager.register(pid, index)
        errors = []

        def hammer(seed):
            try:
                for i in range(30):
                    manager.acquire((seed + i) % len(indexes))
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # Every spilled file must still open as a valid plane file.
        for index in indexes:
            assert any(index.lookup(Equals("v", 1)))
        manager.close()

    def test_close_idempotent_with_residency(self):
        db = _partitioned_db(16_384)
        db.query("facts", Equals("v", 1), QueryOptions(workers=1))
        db.close()
        db.close()  # must not raise
        # The database stays usable: managers rebuild lazily.
        db.query("facts", Equals("v", 1), QueryOptions(workers=1))
        db.close()

    def test_budget_survives_save_load(self, tmp_path):
        db = _partitioned_db(32_768, rows=512, partitions=2)
        try:
            db.save(str(tmp_path))
        finally:
            db.close()
        loaded = Database.load(str(tmp_path))
        try:
            assert loaded.memory_budget_bytes == 32_768
            loaded.query("facts", Equals("v", 1), QueryOptions(workers=1))
            assert loaded.residency_report("facts") is not None
        finally:
            loaded.close()

    def test_negative_budget_rejected(self):
        from repro.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            Database(memory_budget_bytes=-1)


# ---------------------------------------------------------------------------
# the prefetch worker
# ---------------------------------------------------------------------------
def _prefetch_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("ebi-prefetch")
    }


class TestPrefetchWorker:
    # 8 partitions of 32,768 rows over 8 values: every plane file holds
    # several 4K pages, and a one-byte budget keeps all of them spilled.
    BUDGET = 1
    ROWS = 8 * 32_768

    #: ``residency_report()`` after :meth:`_script`, pinned from the
    #: thread-per-partition prefetch that the worker replaced: the
    #: worker and the bulk page counts must not move a counter.
    PINNED = {
        "spills": 8,
        "faults": 19,
        "promotions": 0,
        "prefetches": 133,
        "page_reads_logical": 1140,
        "page_reads_physical": 608,
        "page_writes": 32,
        "pool_hits": 532,
        "evictions": 8,
    }

    @staticmethod
    def _predicates():
        return [
            InList("v", [i % 8, (3 * i + 1) % 8])
            if i % 2
            else Equals("v", i % 8)
            for i in range(20)
        ]

    def _script(self, db, resident, options):
        """Run the 20-query script, checking rows and ``c_e``."""
        for predicate in self._predicates():
            got = db.query("facts", predicate, options)
            want = resident.query("facts", predicate, options)
            assert np.array_equal(got.row_ids(), want.row_ids())
            assert got.cost.vectors_accessed == want.cost.vectors_accessed

    def test_one_worker_serves_every_partition(self, monkeypatch):
        ran_on = set()
        prefetch = ResidencyManager.prefetch

        def recording(manager, partition_id):
            ran_on.add(threading.current_thread())
            prefetch(manager, partition_id)

        monkeypatch.setattr(ResidencyManager, "prefetch", recording)
        before = _prefetch_threads()
        resident = _partitioned_db(None, rows=self.ROWS, partitions=8)
        db = _partitioned_db(self.BUDGET, rows=self.ROWS, partitions=8)
        try:
            self._script(db, resident, QueryOptions(workers=1))
            started = _prefetch_threads() - before
            # Every prefetch ran on one thread, off the request thread.
            assert started == ran_on
            assert len(started) == 1
            report = db.residency_report("facts")
            assert report["mapped"] == 8
            assert {key: report[key] for key in self.PINNED} == self.PINNED
        finally:
            db.close()
            resident.close()
        assert not any(thread.is_alive() for thread in started)

    def test_prefetch_off_starts_no_worker(self):
        before = _prefetch_threads()
        resident = _partitioned_db(None, rows=self.ROWS, partitions=8)
        db = _partitioned_db(self.BUDGET, rows=self.ROWS, partitions=8)
        try:
            self._script(
                db, resident, QueryOptions(workers=1, prefetch=False)
            )
            assert _prefetch_threads() == before
            report = db.residency_report("facts")
            assert report["prefetches"] == 0
            assert report["pool_hits"] == 0
        finally:
            db.close()
            resident.close()

    def test_concurrent_streams_share_one_worker(self):
        # Four request threads (more than the cores of a small host)
        # stream queries through one manager: their prefetches queue on
        # the one worker, and every answer stays bit-identical.
        before = _prefetch_threads()
        resident = _partitioned_db(None, rows=self.ROWS, partitions=8)
        db = _partitioned_db(self.BUDGET, rows=self.ROWS, partitions=8)
        predicates = self._predicates()
        expected = [
            resident.query("facts", p).row_ids() for p in predicates
        ]
        errors = []

        def stream(offset):
            try:
                for i in range(len(predicates)):
                    j = (i + offset) % len(predicates)
                    got = db.query(
                        "facts", predicates[j], QueryOptions(workers=1)
                    )
                    assert np.array_equal(got.row_ids(), expected[j])
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=stream, args=(t * 5,))
                for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(_prefetch_threads() - before) == 1
        finally:
            sys.setswitchinterval(interval)
            db.close()
            resident.close()

    def test_closed_manager_prefetches_nothing(self, tmp_path):
        manager = ResidencyManager(str(tmp_path), memory_budget_bytes=1)
        manager.register(0, _index([i % 4 for i in range(512)]))
        manager.acquire(0)
        manager.prefetch_async(0).result()
        assert manager.report()["prefetches"] == 1
        manager.close()
        assert manager.prefetch_async(0) is None


# ---------------------------------------------------------------------------
# IOStatistics under buffer-pool eviction pressure
# ---------------------------------------------------------------------------
class TestEvictionPressureAccounting:
    def test_ledger_reconciles_with_pager_reads(self):
        pager = Pager(page_size=64)
        ids = [pager.allocate().page_id for _ in range(6)]
        pool = BufferPool(pager, capacity=2)
        pager.stats.reset()
        # Cycle far beyond capacity: a 6-page sweep through a 2-page
        # pool evicts everything behind the window, so revisiting
        # ids[:2] misses again; only re-touching the MRU page hits.
        pattern = (
            ids
            + ids[:2]  # misses: evicted by the sweep
            + ids[2:]  # misses again: still cycling
            + [ids[-1], ids[-1]]  # hits: MRU stays put
        )
        for page_id in pattern:
            pool.fetch(page_id)
        stats = pager.stats
        assert stats.logical_reads == len(pattern)
        assert (
            stats.pool_hits + stats.pool_misses == stats.logical_reads
        )
        # Every pool miss is exactly one pager-level physical read.
        assert stats.physical_reads == stats.pool_misses
        assert stats.pool_hits == 2
        # Evictions: every admission past the first two evicts one.
        assert stats.evictions == stats.pool_misses - pool.capacity
        assert pool.resident == pool.capacity

    def test_dirty_evictions_write_back_once(self):
        pager = Pager(page_size=64)
        ids = [pager.allocate().page_id for _ in range(4)]
        pool = BufferPool(pager, capacity=1)
        pager.stats.reset()
        for page_id in ids:
            page = pool.fetch(page_id)
            page.write(b"\x07")
        pool.flush()
        stats = pager.stats
        # Three dirty evictions + one final flush = four write-backs.
        assert stats.write_backs == len(ids)
        assert stats.writes == len(ids)
        assert stats.evictions == len(ids) - pool.capacity

    def test_reset_clears_every_counter(self):
        pager = Pager(page_size=64)
        pid = pager.allocate().page_id
        pool = BufferPool(pager, capacity=1)
        pool.fetch(pid)
        pager.stats.reset()
        as_dict = pager.stats.as_dict()
        assert all(value == 0 for value in as_dict.values())
