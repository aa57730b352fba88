"""Fault-injection matrix: every fault kind at every storage layer.

The matrix crosses {fail-read, fail-write, torn write, bit-rot} with
{pager, vector_store, serialization} and asserts, per cell, that the
fault is either *detected* (a typed error naming what broke) or
*recovered* (bounded deterministic retry).  Everything is seeded; no
test sleeps on the wall clock.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.bitmap.bitvector import BitVector
from repro.errors import (
    ChecksumError,
    CorruptIndexError,
    InvalidArgumentError,
    PermanentIOError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.faults import FaultPolicy, FaultRule, FaultyPager, RetryPolicy
from repro.index import serialization
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import page_checksum
from repro.storage.vector_store import PagedVectorStore
from repro.table.table import Table


def recording_retry(max_attempts: int = 3) -> tuple:
    """A retry policy whose sleeps are recorded, never slept."""
    delays: list = []
    policy = RetryPolicy(
        max_attempts=max_attempts,
        base_delay=0.001,
        multiplier=2.0,
        max_delay=0.05,
        sleep=delays.append,
    )
    return policy, delays


def full_page(pager, fill: int):
    """Allocate a page and fill it completely (so a torn suffix always
    differs from the previous image)."""
    page = pager.allocate()
    page.write(bytes([fill]) * pager.page_size, 0)
    return page


# ----------------------------------------------------------------------
# layer: pager
# ----------------------------------------------------------------------
def pager_fail_read():
    pager = FaultyPager(
        page_size=256,
        policy=FaultPolicy.single("read", "fail", transient=False),
    )
    page = full_page(pager, 0xAB)
    pager.write(page)
    with pytest.raises(PermanentIOError, match="injected read fault"):
        pager.read(page.page_id)


def pager_fail_write():
    pager = FaultyPager(
        page_size=256,
        policy=FaultPolicy.single(
            "write", "fail", transient=False, skip_first=1
        ),
    )
    page = full_page(pager, 0xAB)
    pager.write(page)
    page.write(b"\xcd" * 256, 0)
    with pytest.raises(PermanentIOError, match="injected write fault"):
        pager.write(page)
    # The failed write must not have touched the committed image.
    assert pager.read(page.page_id).read() == b"\xab" * 256


def pager_torn_write():
    pager = FaultyPager(
        page_size=256,
        policy=FaultPolicy.single("write", "torn", skip_first=1),
    )
    page = full_page(pager, 0xAB)
    pager.write(page)
    page.write(b"\xcd" * 256, 0)
    pager.write(page)  # torn: checksum of new image, bytes of a mix
    with pytest.raises(ChecksumError, match="checksum"):
        pager.read(page.page_id)


def pager_bitrot():
    pager = FaultyPager(
        page_size=256,
        policy=FaultPolicy.single("read", "bitrot"),
    )
    page = full_page(pager, 0xAB)
    pager.write(page)
    with pytest.raises(ChecksumError, match="checksum"):
        pager.read(page.page_id)


# ----------------------------------------------------------------------
# layer: vector store (pool + pager)
# ----------------------------------------------------------------------
def _stored_vector(policy: FaultPolicy, retry=None) -> tuple:
    """A store holding one flushed vector with an empty pool."""
    pager = FaultyPager(page_size=128, policy=policy)
    store = PagedVectorStore(pager=pager, pool_capacity=4, retry=retry)
    vector = BitVector(128 * 8)
    for i in range(0, len(vector), 3):
        vector[i] = True
    store.store("v", vector)
    store.flush()
    store.pool._frames.clear()  # force physical reads from here on
    return store, vector


def vector_store_fail_read():
    retry, delays = recording_retry(max_attempts=3)
    policy = FaultPolicy.single(
        "read", "fail", transient=True, max_triggers=2
    )
    store, vector = _stored_vector(policy, retry=retry)
    # Two transient faults, absorbed by bounded deterministic backoff.
    assert store.load("v") == vector
    assert delays == [0.001, 0.002]


def vector_store_fail_write():
    retry, delays = recording_retry(max_attempts=3)
    pager = FaultyPager(
        page_size=128,
        policy=FaultPolicy.single(
            "write", "fail", transient=True, max_triggers=2
        ),
    )
    store = PagedVectorStore(pager=pager, pool_capacity=4, retry=retry)
    vector = BitVector(64)
    vector[7] = True
    store.store("v", vector)
    store.flush()  # transient write faults retried here
    assert delays == [0.001, 0.002]
    store.pool._frames.clear()
    assert store.load("v") == vector


def vector_store_torn_write():
    policy = FaultPolicy(
        seed=3,
        rules=(
            FaultRule(
                operation="write", kind="torn", skip_first=1
            ),
        ),
    )
    pager = FaultyPager(page_size=128, policy=policy)
    store = PagedVectorStore(pager=pager, pool_capacity=4)
    ones = BitVector(128 * 8)
    for i in range(len(ones)):
        ones[i] = True
    store.store("v", ones)
    store.flush()  # first flush commits clean
    page = store.pool.fetch(store.handle("v").page_ids[0])
    page.write(bytes(128), 0)  # all-zero rewrite
    store.flush()  # torn: commits a zeros/ones mix under the new CRC
    store.pool._frames.clear()
    with pytest.raises(ChecksumError, match="checksum"):
        store.load("v")


def vector_store_bitrot():
    policy = FaultPolicy.single("read", "bitrot")
    store, _ = _stored_vector(policy)
    with pytest.raises(ChecksumError, match="checksum"):
        store.load("v")


# ----------------------------------------------------------------------
# layer: serialization (index files)
# ----------------------------------------------------------------------
def _payload() -> bytes:
    table = Table("T", ["A"])
    for value in ["a", "b", "c", "b", "a", "c", "d", "a"]:
        table.append({"A": value})
    return serialization.dumps(EncodedBitmapIndex(table, "A"))


def serialization_fail_read():
    # A read that dies mid-file surfaces as a truncated payload.
    payload = _payload()
    with pytest.raises(CorruptIndexError, match="truncated"):
        serialization.parse(payload[: len(payload) // 2])


def serialization_fail_write(tmp_path=None, monkeypatch=None):
    # Exercised by test_save_is_atomic below (needs fixtures).
    pytest.skip("covered by test_save_is_atomic")


def serialization_torn_write():
    # A torn file write leaves a prefix; every prefix must be rejected.
    payload = _payload()
    for cut in (4, 9, 20, len(payload) - 1):
        with pytest.raises(CorruptIndexError):
            serialization.parse(payload[:cut])


def serialization_bitrot():
    payload = bytearray(_payload())
    payload[len(payload) // 3] ^= 0x10
    with pytest.raises(CorruptIndexError):
        serialization.parse(bytes(payload))


# ----------------------------------------------------------------------
# layer: database (save / load / recover)
# ----------------------------------------------------------------------
def _saved_database():
    import tempfile

    from repro.database import Database

    directory = tempfile.mkdtemp()
    db = Database()
    db.create_table("t", {"v": ["a", "b", "a", "c"] * 4})
    db.create_index("t", "v")
    db.save(directory)
    return db, directory


def database_fail_write():
    # A failed manifest rename leaves the previous generation intact
    # and loadable — the rename is the commit point.
    from unittest import mock

    from repro.database import Database

    db, directory = _saved_database()
    db.append("t", {"v": "b"})
    real_replace = os.replace

    def failing_replace(src, dst):
        if dst.endswith("manifest.json"):
            raise OSError("injected write fault")
        return real_replace(src, dst)

    with mock.patch("os.replace", failing_replace):
        with pytest.raises(OSError, match="injected write fault"):
            db.save(directory)
    recovered = Database.recover(directory)
    # Old generation plus the WAL-acked append: nothing lost.
    assert len(recovered.table("t")) == 17
    for report in recovered.fsck().values():
        assert report.ok


def database_torn_write():
    # A torn WAL tail is truncated at the first bad frame; every
    # record before it still replays.
    from repro.database import Database

    db, directory = _saved_database()
    db.append("t", {"v": "b"})
    db.append("t", {"v": "c"})
    wal_path = os.path.join(directory, "wal.log")
    size = os.path.getsize(wal_path)
    with open(wal_path, "rb+") as handle:
        handle.truncate(size - 3)  # tear the last frame
    recovered = Database.recover(directory)
    table = recovered.table("t")
    assert len(table) == 17  # first append replayed, torn one dropped
    assert table.row(16)["v"] == "b"
    for report in recovered.fsck().values():
        assert report.ok


def database_bitrot():
    # A flipped bit in an index payload never fails the load: the
    # index is rebuilt from base data and marked degraded; a flipped
    # bit in the WAL truncates at the damaged record.
    from repro.database import Database

    _, directory = _saved_database()
    payload_path = os.path.join(directory, "t.v.p0.ebi")
    blob = bytearray(open(payload_path, "rb").read())
    blob[len(blob) // 2] ^= 0x04
    with open(payload_path, "wb") as handle:
        handle.write(bytes(blob))
    recovered = Database.recover(directory)
    index = recovered.catalog.indexes_on("t", "v")[0]
    assert index.degraded
    report = recovered.fsck(repair=True)["t.v.p0"]
    assert report.ok


_MATRIX = {
    ("database", "fail-write"): database_fail_write,
    ("database", "torn-write"): database_torn_write,
    ("database", "bit-rot"): database_bitrot,
    ("pager", "fail-read"): pager_fail_read,
    ("pager", "fail-write"): pager_fail_write,
    ("pager", "torn-write"): pager_torn_write,
    ("pager", "bit-rot"): pager_bitrot,
    ("vector_store", "fail-read"): vector_store_fail_read,
    ("vector_store", "fail-write"): vector_store_fail_write,
    ("vector_store", "torn-write"): vector_store_torn_write,
    ("vector_store", "bit-rot"): vector_store_bitrot,
    ("serialization", "fail-read"): serialization_fail_read,
    ("serialization", "fail-write"): serialization_fail_write,
    ("serialization", "torn-write"): serialization_torn_write,
    ("serialization", "bit-rot"): serialization_bitrot,
}


@pytest.mark.parametrize(
    "layer,kind",
    sorted(_MATRIX),
    ids=[f"{layer}-{kind}" for layer, kind in sorted(_MATRIX)],
)
def test_fault_matrix(layer, kind):
    """Each (layer, fault-kind) cell detects or recovers."""
    _MATRIX[(layer, kind)]()


# ----------------------------------------------------------------------
# policy determinism and rule semantics
# ----------------------------------------------------------------------
class TestFaultPolicy:
    def test_rule_validation(self):
        with pytest.raises(InvalidArgumentError):
            FaultRule(operation="erase", kind="fail")
        with pytest.raises(InvalidArgumentError):
            FaultRule(operation="read", kind="melt")
        with pytest.raises(InvalidArgumentError):
            FaultRule(operation="read", kind="torn")
        with pytest.raises(InvalidArgumentError):
            FaultRule(operation="write", kind="bitrot")
        with pytest.raises(InvalidArgumentError):
            FaultRule(operation="read", kind="fail", probability=1.5)

    def test_same_seed_same_schedule(self):
        def run(seed):
            policy = FaultPolicy.single(
                "read", "fail", seed=seed, probability=0.5
            )
            return [
                policy.decide("read", page_id) is not None
                for page_id in range(50)
            ]

        assert run(42) == run(42)
        assert run(42) != run(43)  # distinct seeds diverge

    def test_skip_first_and_max_triggers(self):
        policy = FaultPolicy.single(
            "write", "fail", skip_first=2, max_triggers=1
        )
        hits = [
            policy.decide("write", 0) is not None for _ in range(5)
        ]
        assert hits == [False, False, True, False, False]

    def test_page_scoping(self):
        policy = FaultPolicy.single(
            "read", "fail", page_ids=frozenset({7})
        )
        assert policy.decide("read", 3) is None
        assert policy.decide("read", 7) is not None

    def test_event_log(self):
        policy = FaultPolicy.single("read", "fail", skip_first=1)
        policy.decide("read", 9)
        policy.decide("read", 9)
        assert len(policy.events) == 1
        event = policy.events[0]
        assert (event.kind, event.operation, event.page_id) == (
            "fail",
            "read",
            9,
        )
        assert event.op_index == 1


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_delay=0.01,
            multiplier=2.0,
            max_delay=0.05,
            sleep=lambda _s: None,
        )
        assert policy.delays() == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_recovers_within_budget(self):
        policy, delays = recording_retry(max_attempts=3)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientIOError("blip")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert delays == [0.001, 0.002]

    def test_exhaustion_raises_typed_error_with_cause(self):
        policy, delays = recording_retry(max_attempts=2)

        def always():
            raise TransientIOError("still down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always)
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, TransientIOError)
        assert delays == [0.001]

    def test_permanent_faults_are_not_retried(self):
        policy, delays = recording_retry(max_attempts=5)

        def broken():
            raise PermanentIOError("dead sector")

        with pytest.raises(PermanentIOError):
            policy.call(broken)
        assert delays == []

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(base_delay=-1.0)


# ----------------------------------------------------------------------
# buffer-pool write-back regression (the historical bug: evict dropped
# dirty frames without writing them back)
# ----------------------------------------------------------------------
class TestBufferPoolWriteBack:
    def test_eviction_writes_back_dirty_victim(self):
        pager = FaultyPager(page_size=64)
        pool = BufferPool(pager, capacity=1)
        first = pool.new_page()
        first.write(b"\x11" * 64, 0)
        assert first.dirty
        pool.new_page()  # evicts `first`, must write it back
        assert pager.read(first.page_id).read() == b"\x11" * 64

    def test_close_flushes_dirty_frames(self):
        pager = FaultyPager(page_size=64)
        with BufferPool(pager, capacity=4) as pool:
            page = pool.new_page()
            page.write(b"\x22" * 64, 0)
        assert pager.read(page.page_id).read() == b"\x22" * 64

    def test_failed_write_back_does_not_lose_data(self):
        policy = FaultPolicy.single(
            "write", "fail", transient=False, max_triggers=1
        )
        pager = FaultyPager(page_size=64, policy=policy)
        pool = BufferPool(pager, capacity=1)
        first = pool.new_page()
        first.write(b"\x33" * 64, 0)
        with pytest.raises(PermanentIOError):
            pool.new_page()  # eviction write-back fails
        # The dirty victim must still be resident, still dirty.
        assert first.page_id in pool
        assert first.dirty
        pool.flush()  # fault budget spent: now succeeds
        assert pager.read(first.page_id).read() == b"\x33" * 64

    def test_transient_write_back_recovered_under_retry(self):
        retry, delays = recording_retry(max_attempts=3)
        policy = FaultPolicy.single(
            "write", "fail", transient=True, max_triggers=1
        )
        pager = FaultyPager(page_size=64, policy=policy)
        pool = BufferPool(pager, capacity=1, retry=retry)
        first = pool.new_page()
        first.write(b"\x44" * 64, 0)
        pool.new_page()  # eviction retried, then succeeds
        assert delays == [0.001]
        assert pager.read(first.page_id).read() == b"\x44" * 64


# ----------------------------------------------------------------------
# serialization: every single-bit corruption is detected
# ----------------------------------------------------------------------
class TestSerializationBitFlips:
    def test_random_single_bit_flip_always_detected(self):
        """Property: flip any one bit of a saved index and load fails.

        Sampled deterministically (seed 20260805) across the payload,
        plus every bit of the first 16 bytes (magic + preamble).
        """
        payload = _payload()
        nbits = len(payload) * 8
        rng = random.Random(20260805)
        positions = set(rng.sample(range(nbits), 300))
        positions.update(range(16 * 8))
        for bit in sorted(positions):
            mutated = bytearray(payload)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(CorruptIndexError):
                serialization.parse(bytes(mutated))

    def test_trailing_garbage_detected(self):
        with pytest.raises(CorruptIndexError, match="trailing"):
            serialization.parse(_payload() + b"\x00")

    def test_clean_payload_round_trips(self):
        table = Table("T", ["A"])
        for value in ["a", "b", "c", "b", "a", "c", "d", "a"]:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        restored = serialization.loads(
            serialization.dumps(index), table
        )
        assert restored.mapping == index.mapping
        assert [
            restored.vector(i) for i in range(restored.width)
        ] == [index.vector(i) for i in range(index.width)]


class TestAtomicSave:
    def test_save_is_atomic(self, tmp_path, monkeypatch):
        table = Table("T", ["A"])
        for value in ["a", "b", "a"]:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        path = tmp_path / "index.ebi"
        serialization.save(index, str(path))
        good = path.read_bytes()

        def explode(_fd):
            raise OSError("injected write fault")

        monkeypatch.setattr(serialization.os, "fsync", explode)
        with pytest.raises(OSError, match="injected write fault"):
            serialization.save(index, str(path))
        # The previous good file is intact; no temp file leaks.
        assert path.read_bytes() == good
        assert not (tmp_path / "index.ebi.tmp").exists()

    def test_load_round_trip_from_disk(self, tmp_path):
        table = Table("T", ["A"])
        for value in ["x", "y", "z", "x"]:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        path = tmp_path / "index.ebi"
        serialization.save(index, str(path))
        restored = serialization.load(str(path), table)
        assert restored.mapping == index.mapping


def test_page_checksum_is_crc32():
    import zlib

    data = b"\x00\x01\x02" * 100
    assert page_checksum(data) == zlib.crc32(data) & 0xFFFFFFFF
