"""Seeded interleaving stress tests for the concurrency discipline.

The static rules (EBI301-304) prove lock discipline about code the
analyzer can see; these tests check the same properties dynamically:
locks are swapped for :class:`repro.lint.sanitizer.InstrumentedLock`
wrappers that record per-thread lock nesting, and workloads run under
:func:`repro.lint.sanitizer.run_stress` with *seeded* micro-delay
jitter — every seed replays the same interleaving pressure, so a
failure here reproduces instead of flaking.

Two production scenarios are swept across 50 seeds each:

* cache stampede — several threads hammer one shared
  :class:`~repro.cache.LRUCache` through ``get_or_create``;
* write-vs-query — writer threads update an indexed column while
  reader threads run selections on the same :class:`~repro.Database`,
  exercising the ``_data_version`` invalidation protocol end to end.
"""

import random
import threading
import time

from repro.cache import LRUCache
from repro.database import Database
from repro.lint.sanitizer import (
    InstrumentedLock,
    LockOrderRecorder,
    instrument,
    make_jitter,
    run_stress,
)
from repro.query.predicates import Equals

SEEDS = range(50)


# ---------------------------------------------------------------------
# sanitizer self-tests: the harness must detect what it claims to
# ---------------------------------------------------------------------
class _TwoLocks:
    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()


def test_sanitizer_detects_lock_order_inversion():
    """Nesting A->B and B->A (even sequentially) is reported."""
    rec = LockOrderRecorder()
    obj = _TwoLocks()
    lock_a = instrument(obj, "a", recorder=rec, name="A")
    lock_b = instrument(obj, "b", recorder=rec, name="B")

    def workload(tid, i):
        # one thread, both orders: records the cycle without ever
        # actually deadlocking
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass

    report = run_stress(
        workload, threads=1, iterations=2, seed=1, recorder=rec
    )
    assert report.inversions == [("A", "B")]
    assert not report.ok


def test_sanitizer_consistent_order_is_clean():
    rec = LockOrderRecorder()
    obj = _TwoLocks()
    lock_a = instrument(obj, "a", recorder=rec, name="A")
    lock_b = instrument(obj, "b", recorder=rec, name="B")

    def workload(tid, i):
        with lock_a:
            with lock_b:
                pass

    report = run_stress(
        workload, threads=2, iterations=5, seed=2, recorder=rec
    )
    assert report.ok, report.render()
    assert report.inversions == []


def test_sanitizer_counts_contended_acquisitions():
    rec = LockOrderRecorder()
    lock = InstrumentedLock("L", rec)
    assert lock.acquire()
    released = threading.Event()

    def contender():
        lock.acquire()  # probe fails -> one lock_wait, then blocks
        lock.release()
        released.set()

    thread = threading.Thread(target=contender)
    thread.start()
    deadline = time.monotonic() + 5.0
    while rec.lock_waits < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    lock.release()
    thread.join(timeout=5.0)
    assert released.is_set()
    assert rec.lock_waits == 1


def test_sanitizer_preserves_rlock_reentrancy():
    class Owner:
        def __init__(self):
            self._lock = threading.RLock()

    rec = LockOrderRecorder()
    owner = Owner()
    lock = instrument(owner, recorder=rec, name="R")
    with lock:
        with lock:  # would deadlock if reentrancy were lost
            pass
    assert rec.inversions() == []


def test_instrument_is_idempotent():
    rec = LockOrderRecorder()
    cache = LRUCache(maxsize=2)
    first = instrument(cache, recorder=rec)
    second = instrument(cache, recorder=rec)
    assert first is second


# ---------------------------------------------------------------------
# scenario 1: cache stampede
# ---------------------------------------------------------------------
def test_cache_stampede_seeded_interleavings():
    """4 threads x 10 ops through get_or_create, 50 seeds.

    Invariants: every caller sees the right value, the hit/miss
    ledger stays exactly one entry per ``get``, and the sanitizer
    sees no lock-order inversion.
    """
    for seed in SEEDS:
        rec = LockOrderRecorder()
        cache = LRUCache(maxsize=8)
        instrument(
            cache, recorder=rec, jitter=make_jitter(seed)
        )

        def workload(tid, i, cache=cache):
            key = (3 * tid + i) % 12
            value = cache.get_or_create(key, lambda: key * 2)
            assert value == key * 2

        report = run_stress(
            workload,
            threads=4,
            iterations=10,
            seed=seed,
            recorder=rec,
        )
        assert report.ok, report.render()
        # one hit-or-miss per get(); get_or_create calls get exactly
        # once per workload op
        assert cache.hits + cache.misses == 4 * 10, report.render()


# ---------------------------------------------------------------------
# scenario 2: concurrent writes vs queries on the Database facade
# ---------------------------------------------------------------------
def _make_db(seed):
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        "sales",
        {
            "product": [rng.randrange(8) for _ in range(96)],
            "qty": [rng.randrange(100) for _ in range(96)],
        },
        partitions=2,
    )
    db.create_index("sales", "product")
    return db


def _instrument_db(db, rec, jitter):
    """Wrap every index lock in the database with the sanitizer."""
    for index in db.catalog.all_indexes():
        instrument(
            index,
            recorder=rec,
            name=f"{type(index).__name__}#{id(index):x}",
            jitter=jitter,
        )
        for n, child in enumerate(getattr(index, "children", [])):
            instrument(
                child,
                recorder=rec,
                name=f"child{n}",
                jitter=jitter,
            )


def test_database_write_vs_query_seeded_interleavings():
    """Writers update an indexed column while readers run queries.

    The row count stays constant (updates only — appends would make
    result-length mismatches legitimate), so every concurrently
    returned row id must be in range, and once writers quiesce a
    final query must agree bit-for-bit with a brute-force scan.
    """
    for seed in SEEDS:
        rng = random.Random(seed)
        db = _make_db(seed)
        rec = LockOrderRecorder()
        _instrument_db(db, rec, make_jitter(seed))
        table = db.table("sales")
        nrows = len(table)

        def workload(tid, i, db=db, table=table, rng_seed=seed):
            rng = random.Random(f"{rng_seed}:{tid}:{i}")
            if tid % 2 == 0:
                # writer: remap one row's product value (the index
                # must bump _data_version and invalidate caches)
                row_id = rng.randrange(len(table))
                table.update(row_id, "product", rng.randrange(8))
            else:
                # reader: the result must be internally consistent
                # even mid-update
                result = db.query(
                    "sales", Equals("product", rng.randrange(8))
                )
                for row_id in result.row_ids():
                    assert 0 <= row_id < len(table)

        report = run_stress(
            workload, threads=4, iterations=6, seed=seed, recorder=rec
        )
        assert report.ok, report.render()
        assert len(table) == nrows

        # quiesced: index answers must match brute force exactly
        value = rng.randrange(8)
        result = db.query("sales", Equals("product", value))
        expected = [
            row_id
            for row_id in range(nrows)
            if not table.is_void(row_id)
            and table.row(row_id)["product"] == value
        ]
        assert result.row_ids().tolist() == expected, (
            f"seed {seed}: stale index after concurrent updates"
        )


# ---------------------------------------------------------------------
# scenario 3: batch-atomic appends vs pinned snapshot readers
# ---------------------------------------------------------------------
def test_batch_appends_vs_pinned_readers_seeded_interleavings():
    """Writers append marker batches while readers pin snapshots.

    ``Table.append_rows`` holds the write lock for the whole batch and
    moves the published watermark once, so every pinned snapshot must
    land on a batch boundary: the observed watermark is always the
    base row count plus a multiple of the batch size, and a pinned
    query never returns a row from a half-applied batch.
    """
    from repro.query.snapshot import pinned_rows, snapshot_rows

    base_rows = 24
    batch = 6
    for seed in SEEDS:
        db = Database()
        db.create_table(
            "stream",
            {"product": [i % 4 for i in range(base_rows)]},
        )
        db.create_index("stream", "product")
        rec = LockOrderRecorder()
        _instrument_db(db, rec, make_jitter(seed))
        table = db.table("stream")

        def workload(tid, i, db=db, table=table, rng_seed=seed):
            rng = random.Random(f"{rng_seed}:{tid}:{i}")
            if tid % 2 == 0:
                # writer: one marker batch, all rows the same value
                marker = rng.randrange(4)
                table.append_rows(
                    [{"product": marker}] * batch
                )
            else:
                with pinned_rows(table):
                    watermark = snapshot_rows(table)
                    assert (watermark - base_rows) % batch == 0, (
                        f"pin landed mid-batch at {watermark}"
                    )
                    result = db.query(
                        "stream", Equals("product", rng.randrange(4))
                    )
                    assert len(result.vector) == watermark
                    for row_id in result.row_ids():
                        assert 0 <= row_id < watermark

        report = run_stress(
            workload, threads=4, iterations=6, seed=seed, recorder=rec
        )
        assert report.ok, report.render()
        # quiesced: all batches fully applied, watermark caught up
        assert (len(table) - base_rows) % batch == 0
        assert table.published_rows() == len(table)

        # index agrees with brute force after the append storm
        value = random.Random(seed).randrange(4)
        result = db.query("stream", Equals("product", value))
        expected = [
            row_id
            for row_id in range(len(table))
            if table.row(row_id)["product"] == value
        ]
        assert result.row_ids().tolist() == expected, (
            f"seed {seed}: stale index after concurrent batch appends"
        )
