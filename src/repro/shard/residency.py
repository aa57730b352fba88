"""Partition plane residency: spill, evict and fault-in under a budget.

The out-of-core tier (``docs/out_of_core.md``).  A
:class:`ResidencyManager` tracks the dense plane snapshots of a
partitioned index's children and keeps their combined RAM charge under
a configurable ``memory_budget_bytes``:

* **spill** — a cold partition's plane matrix is written to a
  CRC-headered plane file (:func:`repro.kernels.mapped.write_plane_file`)
  and swapped for a read-only view of an ``mmap`` of that file
  (:meth:`~repro.index.encoded_bitmap.EncodedBitmapIndex.spill_planes`),
  freeing the dense matrix while queries keep running bit-identically;
* **evict** — spills are chosen LRU by last-query epoch whenever the
  charged resident bytes exceed the budget;
* **fault-in** — touching a spilled partition pages its plane words
  back from disk on demand; when the budget has headroom the snapshot
  is promoted back to the dense tier
  (:meth:`~repro.index.encoded_bitmap.EncodedBitmapIndex.promote_planes`);
* **prefetch** — the streaming executor hands the next partition to
  the manager's one prefetch worker (:meth:`prefetch_async`) while the
  current one evaluates; the worker asks the OS to read the plane file
  ahead (``posix_fadvise(WILLNEED)``), overlapping fault-in I/O with
  kernel time without copying the pages into the process.

A partition may carry several indexed columns; each child index
registers under the same partition id and is tracked (and spilled)
independently, while :meth:`acquire`/:meth:`prefetch` operate on the
whole partition — the unit the executor schedules.

Accounting stays honest through the storage counters: every spill,
fault and prefetch records its page count (the paper's ``p = 4K``) on
an :class:`~repro.storage.stats.IOStatistics` block, so
``storage.*`` metrics and the Section 3 page-cost model line up with
real file traffic rather than simulated reads.  Eviction drops a
partition's pages from the accounted pool, so an unwarmed acquire of a
mapped partition is a cold fault (physical page reads) every epoch;
warmth is one-shot — a :meth:`prefetch` pays the physical reads up
front and the next acquire consumes it as pool hits.

>>> import tempfile
>>> from repro.index.encoded_bitmap import EncodedBitmapIndex
>>> from repro.table.table import Table
>>> table = Table.from_columns("t", {"v": ["a", "b", "a", "c"] * 64})
>>> index = EncodedBitmapIndex(table, "v")
>>> manager = ResidencyManager(
...     tempfile.mkdtemp(), memory_budget_bytes=1
... )
>>> manager.register(0, index)
>>> manager.acquire(0)          # charge exceeds budget -> spilled
>>> index.planes_mapped
True
>>> manager.acquire(0)          # cold fault: pages re-read on demand
>>> manager.stats.evictions, manager.stats.physical_reads > 0
(1, True)
>>> manager.prefetch(0)         # warm the file ahead of the next epoch
>>> manager.acquire(0)          # ...which turns the fault into pool hits
>>> manager.stats.pool_hits > 0
True
>>> manager.close()
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from threading import RLock
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.index.base import Index
from repro.kernels import MappedPlaneSet
from repro.kernels.mapped import PLANE_DATA_OFFSET
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.storage.stats import IOStatistics

#: Registration key: (partition id, per-partition sequence number).
_Key = Tuple[int, int]


@dataclass
class _Entry:
    """Book-keeping for one registered child index."""

    index: Index
    path: str
    charged: int = 0        # dense bytes currently counted on the budget
    plane_bytes: int = 0    # last known snapshot size (dense layout)
    last_used: int = 0      # query epoch of the most recent acquire
    warm: bool = False      # plane-file pages believed OS-resident
    pinned: bool = False    # unspillable (e.g. compressed format)
    spilling: bool = False  # a thread is writing the plane file now


class ResidencyManager:
    """LRU residency control for partition plane snapshots.

    Parameters
    ----------
    directory:
        Where plane files live; created if missing.  One file per
        registered child index (``p<id>-<n>.ebp``), rewritten on every
        spill.
    memory_budget_bytes:
        Combined dense-snapshot bytes allowed in RAM before LRU
        spilling kicks in.  ``None`` (or 0) disables eviction — the
        manager still tracks residency and serves explicit
        :meth:`spill` calls.
    stats:
        Optional :class:`~repro.storage.stats.IOStatistics` to account
        on; by default a private block parented to the process-wide
        registry (so ``storage.*`` totals include residency traffic).
    page_size:
        Page granularity for the accounting; defaults to the paper's
        ``p = 4K``.
    """

    def __init__(
        self,
        directory: str,
        *,
        memory_budget_bytes: Optional[int] = None,
        stats: Optional[IOStatistics] = None,
        page_size: int = PAGE_SIZE_DEFAULT,
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise InvalidArgumentError(
                f"memory_budget_bytes must be >= 0, got {memory_budget_bytes}"
            )
        if page_size <= 0:
            raise InvalidArgumentError(
                f"page_size must be positive, got {page_size}"
            )
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.memory_budget_bytes = memory_budget_bytes or None
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStatistics()
        self._lock = RLock()
        self._entries: "OrderedDict[_Key, _Entry]" = OrderedDict()
        self._epoch = 0
        self._resident = 0
        self._peak = 0
        self.spills = 0
        self.faults = 0
        self.promotions = 0
        self.prefetches = 0
        self._closed = False
        self._prefetcher: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # registration / introspection
    # ------------------------------------------------------------------
    def register(self, partition_id: int, index: Index) -> None:
        """Track ``index`` as a child of partition ``partition_id``.

        May be called several times per partition (one call per
        indexed column).  Only encoded bitmap indexes are spillable;
        foreign index kinds are tracked as pinned — charged against
        the budget but never evicted.
        """
        pinned = not hasattr(index, "spill_planes")
        with self._lock:
            seq = sum(
                1 for key in self._entries if key[0] == partition_id
            )
            path = os.path.join(
                self.directory, f"p{partition_id:05d}-{seq}.ebp"
            )
            self._entries[(partition_id, seq)] = _Entry(
                index=index, path=path, pinned=pinned
            )

    @property
    def resident_bytes(self) -> int:
        """Dense plane bytes currently charged against the budget."""
        with self._lock:
            return self._resident

    @property
    def peak_resident_bytes(self) -> int:
        """High-water mark of :attr:`resident_bytes`."""
        with self._lock:
            return self._peak

    def total_plane_bytes(self) -> int:
        """Last known dense-layout bytes across every registration."""
        with self._lock:
            return sum(e.plane_bytes for e in self._entries.values())

    def mapped_count(self) -> int:
        """How many registered child indexes are currently spilled."""
        with self._lock:
            entries = list(self._entries.values())
        return sum(
            1
            for entry in entries
            if getattr(entry.index, "planes_mapped", False)
        )

    # ------------------------------------------------------------------
    # the query-path hooks
    # ------------------------------------------------------------------
    def acquire(self, partition_id: int) -> None:
        """Mark a partition used this query epoch and make it servable.

        Spilled children fault back in (page-granular physical reads
        on a cold map, pool hits when warm) and are promoted to dense
        when the budget has headroom; resident children refresh their
        charge (snapshots grow with ingest).  Finally the LRU loop
        enforces the budget, spilling the coldest children.
        """
        for entry in self._touch(partition_id):
            if getattr(entry.index, "planes_mapped", False):
                self._fault(entry)
            else:
                self._charge_dense(entry)
        self.enforce(exclude=partition_id)

    def prefetch_async(self, partition_id: int) -> Optional[Future]:
        """Run :meth:`prefetch` on the manager's prefetch worker.

        One worker thread (``ebi-prefetch``) is started on first use
        and serves every later prefetch until :meth:`close`.  Returns
        the prefetch's future, or ``None`` once the manager is closed.
        """
        with self._lock:
            if self._closed:
                return None
            if self._prefetcher is None:
                self._prefetcher = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="ebi-prefetch"
                )
            worker = self._prefetcher
        try:
            return worker.submit(self.prefetch, partition_id)
        except RuntimeError:  # close() shut the worker down meanwhile
            return None

    def prefetch(self, partition_id: int) -> None:
        """Warm a spilled partition's plane files ahead of evaluation.

        Asks the OS to read each file's payload ahead (counting
        physical page reads), so the following :meth:`acquire` —
        typically issued while the *previous* partition is still
        evaluating — finds the pages hot and accounts pool hits only.
        A no-op for resident partitions.
        """
        with self._lock:
            entries = [
                entry
                for key, entry in self._entries.items()
                if key[0] == partition_id
            ]
        for entry in entries:
            if not getattr(entry.index, "planes_mapped", False):
                continue
            with self._lock:
                if entry.warm:
                    continue
            pages = self._warm_file(entry.path)
            with self._lock:
                entry.warm = True
                self.prefetches += 1
            self.stats.record_logical_read(pages)
            self.stats.record_physical_read(pages)

    # ------------------------------------------------------------------
    # spill / enforce
    # ------------------------------------------------------------------
    def spill(self, partition_id: int) -> bool:
        """Spill every dense child of one partition to its plane file.

        Returns ``True`` when at least one snapshot moved; ``False``
        when all children are pinned, already mapped, or a concurrent
        write raced the spill.
        """
        with self._lock:
            entries = [
                entry
                for key, entry in self._entries.items()
                if key[0] == partition_id
            ]
        moved = False
        for entry in entries:
            moved = self._spill_entry(entry) or moved
        return moved

    def enforce(self, exclude: Optional[int] = None) -> None:
        """Spill LRU children until resident bytes fit the budget.

        ``exclude`` deprioritises the partition being served right now
        (it is MRU anyway) — but the budget is a hard ceiling, so when
        it holds the only spillable charge left (budget smaller than
        one partition) it spills too and serves from the map.  File
        I/O always runs outside the manager lock (the EBI303
        discipline).
        """
        budget = self.memory_budget_bytes
        if budget is None:
            return
        with self._lock:
            candidates = len(self._entries)
        for _ in range(candidates):
            with self._lock:
                if self._resident <= budget:
                    return
                spillable = [
                    (key, entry)
                    for key, entry in self._entries.items()
                    if entry.charged > 0 and not entry.pinned
                ]
                others = [
                    item for item in spillable if item[0][0] != exclude
                ]
                key_entry = (
                    others[0]
                    if others
                    else (spillable[0] if spillable else None)
                )
            if key_entry is None:
                return
            _key, entry = key_entry
            if not self._spill_entry(entry):
                # Raced a writer (or became unspillable); drop or pin
                # its stale charge rather than spinning on it.  An
                # in-flight spill on another thread is left alone —
                # that thread releases the charge when it finishes.
                with self._lock:
                    if entry.charged > 0 and not entry.spilling:
                        if getattr(entry.index, "planes_mapped", False):
                            self._resident -= entry.charged
                            entry.charged = 0
                        else:
                            entry.pinned = True

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, int]:
        """Flat counters for bench reports and EXPLAIN surfaces."""
        with self._lock:
            return {
                "budget_bytes": self.memory_budget_bytes or 0,
                "resident_bytes": self._resident,
                "peak_resident_bytes": self._peak,
                "total_plane_bytes": sum(
                    e.plane_bytes for e in self._entries.values()
                ),
                "registered": len(self._entries),
                "mapped": sum(
                    1
                    for e in self._entries.values()
                    if getattr(e.index, "planes_mapped", False)
                ),
                "spills": self.spills,
                "faults": self.faults,
                "promotions": self.promotions,
                "prefetches": self.prefetches,
                "page_reads_logical": self.stats.logical_reads,
                "page_reads_physical": self.stats.physical_reads,
                "page_writes": self.stats.writes,
                "pool_hits": self.stats.pool_hits,
                "evictions": self.stats.evictions,
            }

    def close(self) -> None:
        """Stop the prefetch worker, remove plane files and stop
        tracking.  Idempotent.

        Mapped indexes stay readable until their snapshot is next
        rebuilt (on POSIX an unlinked mapping remains valid); callers
        wanting dense state back should promote first
        (:meth:`~repro.index.encoded_bitmap.EncodedBitmapIndex.promote_planes`).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
            self._resident = 0
            prefetcher, self._prefetcher = self._prefetcher, None
        if prefetcher is not None:
            prefetcher.shutdown(wait=True)
        for entry in entries:
            try:
                os.unlink(entry.path)
            except OSError:
                pass
        try:
            os.rmdir(self.directory)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _touch(self, partition_id: int) -> List[_Entry]:
        with self._lock:
            keys = [
                key for key in self._entries if key[0] == partition_id
            ]
            if not keys:
                return []
            self._epoch += 1
            entries = []
            for key in keys:
                entry = self._entries[key]
                entry.last_used = self._epoch
                self._entries.move_to_end(key)
                entries.append(entry)
            return entries

    def _spill_entry(self, entry: _Entry) -> bool:
        with self._lock:
            # One writer per entry: a second worker thread enforcing
            # the budget concurrently must not race the plane-file
            # write (enforce() skips the entry and retries instead).
            if entry.pinned or entry.spilling:
                return False
            entry.spilling = True
        try:
            spill = getattr(entry.index, "spill_planes", None)
            if spill is None:
                return False
            file_bytes = spill(entry.path)
        finally:
            with self._lock:
                entry.spilling = False
        if file_bytes is None:
            return False
        payload = max(file_bytes - PLANE_DATA_OFFSET, 0)
        self.stats.record_write(-(-payload // self.page_size))
        self.stats.record_eviction()
        with self._lock:
            self._resident -= entry.charged
            entry.charged = 0
            entry.plane_bytes = payload
            # Eviction drops the pages from the accounted pool: the
            # next acquire is a cold fault unless a prefetch re-warms
            # the file first.
            entry.warm = False
            self.spills += 1
        return True

    def _charge_dense(self, entry: _Entry) -> None:
        planes = getattr(entry.index, "planes", None)
        if planes is None:
            return
        snapshot = planes()
        if isinstance(snapshot, MappedPlaneSet):
            return  # raced a concurrent spill; nothing to charge
        nbytes = int(snapshot.nbytes())
        with self._lock:
            self._resident += nbytes - entry.charged
            entry.charged = nbytes
            entry.plane_bytes = max(entry.plane_bytes, nbytes)
            if self._resident > self._peak:
                self._peak = self._resident

    def _fault(self, entry: _Entry) -> None:
        planes = getattr(entry.index, "planes", None)
        if planes is None:
            return
        snapshot = planes()
        if not isinstance(snapshot, MappedPlaneSet):
            # A writer rebuilt dense planes in the meantime.
            self._charge_dense(entry)
            return
        payload = snapshot.nbytes()
        pages = -(-payload // self.page_size)
        with self._lock:
            # Warmth is one-shot: a prefetch warms the file, the next
            # acquire consumes it as pool hits.  An unwarmed acquire
            # is a cold fault (physical page reads) — the entry stays
            # uncharged, so under budget pressure every later epoch
            # faults again, which is exactly the out-of-core cost the
            # bench accounts.
            warm = entry.warm
            entry.warm = False
            entry.plane_bytes = max(entry.plane_bytes, payload)
            if not warm:
                self.faults += 1
        self.stats.record_logical_read(pages)
        if warm:
            self.stats.record_pool_hit(pages)
        else:
            self.stats.record_physical_read(pages)
        budget = self.memory_budget_bytes
        if budget is not None:
            with self._lock:
                headroom = budget - self._resident
            if payload <= headroom:
                promote = getattr(entry.index, "promote_planes", None)
                gained = promote() if promote is not None else None
                if gained:
                    with self._lock:
                        self.promotions += 1
                        self._resident += gained - entry.charged
                        entry.charged = gained
                        if self._resident > self._peak:
                            self._peak = self._resident

    def _warm_file(self, path: str) -> int:
        """Ask the OS to read ``path``'s payload ahead; returns its page
        count (0 when the file is gone).  Gives no hint where
        ``os.posix_fadvise`` does not exist."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return 0
        try:
            payload = max(os.fstat(fd).st_size - PLANE_DATA_OFFSET, 0)
            if hasattr(os, "posix_fadvise"):
                os.posix_fadvise(
                    fd, PLANE_DATA_OFFSET, payload, os.POSIX_FADV_WILLNEED
                )
        except OSError:
            return 0
        finally:
            os.close(fd)
        return -(-payload // self.page_size)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ResidencyManager(registered={len(self._entries)}, "
                f"resident={self._resident}, peak={self._peak}, "
                f"budget={self.memory_budget_bytes})"
            )
