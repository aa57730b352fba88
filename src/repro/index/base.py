"""Common index interface and statistics.

Every index maps a :class:`~repro.query.predicates.Predicate` on its
column to a result :class:`~repro.bitmap.bitvector.BitVector` over the
table's rows, and maintains itself through the table's observer hooks
(`on_append_rows` / `on_update` / `on_delete`).

Cost accounting follows the paper: :class:`IndexStatistics` records
*vectors accessed* (for bitmap family indexes), *node accesses* (for
tree indexes) and raw bytes, and each ``lookup`` stores the cost of
the most recent query in ``last_cost`` so benches can read it off
directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.bitmap.bitvector import BitVector
from repro.errors import UnsupportedPredicateError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.query.snapshot import snapshot_rows
from repro.query.predicates import (
    AndPredicate,
    Equals,
    InList,
    IsNull,
    NotPredicate,
    OrPredicate,
    Predicate,
    Range,
)
from repro.table.table import Table


@dataclass
class LookupCost:
    """Cost of one lookup, in the paper's units."""

    vectors_accessed: int = 0
    node_accesses: int = 0
    rows_checked: int = 0

    def total_accesses(self) -> int:
        return self.vectors_accessed + self.node_accesses


@dataclass
class IndexStatistics:
    """Cumulative counters across an index's lifetime."""

    lookups: int = 0
    vectors_accessed: int = 0
    node_accesses: int = 0
    rows_checked: int = 0
    maintenance_ops: int = 0

    def record(self, cost: LookupCost) -> None:
        # Owner-guarded: each IndexStatistics belongs to exactly one
        # index and every mutation site runs under that owner's lock.
        # The owners use *different* locks (Index._lock vs
        # BitmapJoinIndex._lock), so ebilint's whole-program held-lock
        # intersection comes up empty — a documented precision limit
        # (docs/concurrency.md), hence the per-line suppressions.
        self.lookups += 1  # ebilint: disable=EBI301
        self.vectors_accessed += cost.vectors_accessed  # ebilint: disable=EBI301
        self.node_accesses += cost.node_accesses  # ebilint: disable=EBI301
        self.rows_checked += cost.rows_checked  # ebilint: disable=EBI301

    def reset(self) -> None:
        self.lookups = 0
        self.vectors_accessed = 0
        self.node_accesses = 0
        self.rows_checked = 0
        self.maintenance_ops = 0


class Index:
    """Abstract base class for all indexes.

    Subclasses implement ``_lookup`` for the leaf predicate types they
    support; Boolean combinations (AND/OR/NOT over the *same* column)
    are handled here by combining result vectors — the cooperativity
    property of Section 2.1.
    """

    #: Human-readable kind, e.g. "encoded-bitmap"; set by subclasses.
    kind: str = "abstract"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.table = table  # ebi: shared-readonly
        self.column_name = column_name  # ebi: shared-readonly
        #: Metrics sink for this index's lookups; ``None`` (default)
        #: resolves the calling thread's current registry per lookup.
        self.registry = registry  # ebi: shared-readonly
        #: Guards every mutable field shared across ParallelExecutor
        #: workers: stats, trace attributes, and subclass caches.
        #: Reentrant so a locked public entry point may call other
        #: locked helpers (see docs/concurrency.md).
        self._lock = threading.RLock()
        self.stats = IndexStatistics()
        self.last_cost = LookupCost()
        #: Set by :func:`repro.index.verify.verify_index` when the
        #: index fails fsck; the planner then refuses to serve
        #: predicates from it and falls back to a table scan.
        self.degraded = False
        #: Trace detail of the most recent lookup, filled in by
        #: subclasses that know it (the encoded index records which
        #: of its ``k`` vectors the reduced expression touched, the
        #: reduction itself, and whether it came from the cache);
        #: consumed by the executor when building a
        #: :class:`~repro.obs.trace.QueryTrace`.
        self.last_touched: Tuple[int, ...] = ()
        self.last_reduction: Optional[Any] = None
        self.last_cache_hit: Optional[bool] = None

    # ------------------------------------------------------------------
    # public lookup API
    # ------------------------------------------------------------------
    def lookup(
        self, predicate: Predicate, shared: Optional[Any] = None
    ) -> BitVector:
        """Evaluate a predicate into a row bit vector.

        Records the per-query cost in ``self.last_cost`` and folds it
        into ``self.stats``.  ``shared`` is a leaf's retrieval function
        derived once for several indexes (see
        :class:`~repro.index.encoded_bitmap.SharedFunction`); kinds
        that derive none ignore it.

        Concurrency: trace attributes and cumulative statistics are
        guarded by ``self._lock``; predicate evaluation itself runs
        outside the critical section (subclasses take the lock around
        their own shared state), and metrics publishing happens after
        all locks are released.  Trace attributes are last-query-wins
        under concurrent lookups — read them on the same thread that
        issued the lookup.
        """
        with self._lock:
            self.last_touched = ()
            self.last_reduction = None
            self.last_cache_hit = None
        cost = LookupCost()
        if shared is None:
            result = self._dispatch(predicate, cost)
        else:
            result = self._lookup_shared(predicate, cost, shared)
        # Snapshot discipline: when the calling batch pinned a row
        # watermark (repro.query.snapshot), clamp the result to it so
        # every predicate in the batch sees the same row universe even
        # while a concurrent ingester grows the table.
        pinned = snapshot_rows(self.table)
        if pinned is not None and len(result) > pinned:
            result.resize(pinned)
        with self._lock:
            self.last_cost = cost
            self.stats.record(cost)
        registry = (
            self.registry if self.registry is not None else get_registry()
        )
        registry.counter("index.lookups").inc()
        if cost.vectors_accessed:
            registry.counter("index.vectors_accessed").inc(
                cost.vectors_accessed
            )
        if cost.node_accesses:
            registry.counter("index.node_accesses").inc(cost.node_accesses)
        if cost.rows_checked:
            registry.counter("index.rows_checked").inc(cost.rows_checked)
        return result

    def _dispatch(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        if isinstance(predicate, NotPredicate):
            inner = self._dispatch(predicate.operand, cost)
            result = ~inner
            # A negation must still exclude void rows.  Rows voided
            # after the inner vector was sized (concurrent ingest)
            # are beyond its length — the snapshot clamp in
            # :meth:`lookup` owns those.
            void = self.table.void_rows()
            for row_id in void:
                if row_id < len(result):
                    result[row_id] = False
            return result
        if isinstance(predicate, AndPredicate):
            result = self._dispatch(predicate.operands[0], cost)
            for operand in predicate.operands[1:]:
                result &= self._dispatch(operand, cost)
            return result
        if isinstance(predicate, OrPredicate):
            result = self._dispatch(predicate.operands[0], cost)
            for operand in predicate.operands[1:]:
                result |= self._dispatch(operand, cost)
            return result
        if predicate.columns() != frozenset((self.column_name,)):
            raise UnsupportedPredicateError(
                f"index on {self.column_name!r} cannot evaluate "
                f"{predicate}"
            )
        return self._lookup(predicate, cost)

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        """Evaluate a leaf predicate on this index's column."""
        raise NotImplementedError

    def _lookup_shared(
        self, predicate: Predicate, cost: LookupCost, shared: Any
    ) -> BitVector:
        """Evaluate a leaf predicate with a shared retrieval function;
        kinds that derive none evaluate it as usual."""
        return self._dispatch(predicate, cost)

    def nbytes(self) -> int:
        """Index size in bytes (the paper's space measure)."""
        raise NotImplementedError

    def supports(self, predicate: Predicate) -> bool:
        """Can this index evaluate the given leaf predicate type?"""
        return isinstance(predicate, (Equals, InList, Range, IsNull))

    def rebuild(self) -> None:
        """Rebuild from the base table after a physical row reorder.

        :func:`repro.shard.reorder.reorder_table` permutes a table's
        rows in place and then asks every attached observer to rebuild;
        index kinds that support it override this with an atomic
        swap-under-lock (see
        :meth:`repro.index.encoded_bitmap.EncodedBitmapIndex.rebuild`).
        The base implementation refuses, so a reorder can never leave
        an unsupported index silently stale.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot rebuild after a row reorder"
        )

    # ------------------------------------------------------------------
    # maintenance hooks (table observer protocol)
    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        """A row was appended to the table."""
        raise NotImplementedError

    def on_append_rows(
        self, first_row_id: int, columns: Mapping[str, Sequence[Any]]
    ) -> None:
        """A batch of rows ``first_row_id, first_row_id + 1, ..`` was
        appended; ``columns`` maps each column name to the batch's
        values in row order.

        The table calls this once per batch.  The default hands each
        row to :meth:`on_append`; kinds that maintain themselves a
        batch at a time override it.
        """
        names = list(columns)
        for offset, values in enumerate(zip(*columns.values())):
            self.on_append(first_row_id + offset, dict(zip(names, values)))

    def on_update(
        self, row_id: int, column_name: str, old: Any, new: Any
    ) -> None:
        """A row attribute changed."""
        if column_name != self.column_name:
            return
        self._apply_update(row_id, old, new)

    def on_delete(self, row_id: int) -> None:
        """A row became void."""
        raise NotImplementedError

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _row_count(self) -> int:
        return len(self.table)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(table={self.table.name!r}, "
            f"column={self.column_name!r})"
        )


def range_values(column_values, predicate: Range) -> list:
    """Distinct column values satisfying a range predicate.

    Used by discrete-domain indexes that rewrite ranges into IN-lists,
    as the paper prescribes for discrete domains.
    """
    return list(filter(predicate.accepts, column_values))
