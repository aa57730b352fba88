"""Snapshot reads: per-thread pinned row watermarks.

A batch (`ParallelExecutor.execute_many`, `Database.query_many`) pins
each table it reads at the table's *published* row count on entry; for
the rest of the batch every index lookup and fallback scan on that
table is bounded to the pinned watermark.  Concurrent ingest can keep
appending — the batch simply never sees rows past its pin, so all of
its queries observe one consistent universe (no torn batches where
query 3 sees rows query 1 did not).

The watermark comes from ``published_rows()`` when the table offers it
(:class:`~repro.table.table.Table` moves it once per ``append_rows``
batch, under the write lock), so a pin can never land in the middle of
a batch append either.

Pins are *thread-local* and stack: the shard executor pins each
partition's table around its per-partition batch, nested inside
whatever the caller pinned.  Readers that never pin (plain ``lookup``
calls) see the live table exactly as before.

Together with the per-index delta epoch
(:meth:`repro.index.encoded_bitmap.EncodedBitmapIndex.epoch`, the
``(_data_version, _delta_seq)`` pair) this is the snapshot story the
EBI302 invalidation-protocol lint rule enforces statically:
``_data_version`` guards mapping/plane identity, ``_delta_seq`` guards
delta growth, and the pin guards result-universe length.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

_local = threading.local()


def _stack() -> List[Tuple[Any, int]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def published_rows(table: Any) -> int:
    """The table's batch-atomic row watermark.

    Falls back to ``len(table)`` for row sources that do not publish
    one (partition views, plain duck-typed tables in tests).
    """
    probe = getattr(table, "published_rows", None)
    if callable(probe):
        return int(probe())
    return len(table)


class _Pin:
    """The context manager :func:`pinned_rows` returns (a class rather
    than a generator: every partition of every query enters one)."""

    __slots__ = ("_table", "_rows")

    def __init__(self, table: Any, rows: Optional[int]) -> None:
        self._table = table
        self._rows = rows

    def __enter__(self) -> int:
        rows = self._rows
        table = self._table
        watermark = published_rows(table) if rows is None else int(rows)
        _stack().append((table, watermark))
        return watermark

    def __exit__(self, *exc_info: object) -> None:
        _stack().pop()


def pinned_rows(table: Any, rows: Optional[int] = None) -> _Pin:
    """Pin ``table`` at a row watermark for the calling thread.

    ``rows`` defaults to the current :func:`published_rows`.  Nested
    pins shadow outer pins for the same table (innermost wins) and are
    restored on exit.
    """
    return _Pin(table, rows)


def snapshot_rows(table: Any) -> Optional[int]:
    """The calling thread's pinned watermark for ``table``, if any."""
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    for pinned_table, rows in reversed(stack):
        if pinned_table is table:
            return rows
    return None


def bounded_rows(table: Any) -> int:
    """``len(table)``, clamped to the thread's pin when one exists."""
    rows = len(table)
    pinned = snapshot_rows(table)
    if pinned is None:
        return rows
    return min(pinned, rows)
