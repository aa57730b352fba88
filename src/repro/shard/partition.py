"""Horizontal row-range partitioning.

A :class:`PartitionedTable` splits a table's rows into contiguous
ranges, each backed by an ordinary :class:`~repro.table.table.Table`
with its own :class:`~repro.table.catalog.Catalog`.  Per-partition
indexes stay small (the paper's ``k = ceil(log2 m)`` shrinks with the
partition's local domain) and per-partition result vectors merge by
concatenation — every partition except the last is sized to a
multiple of 64 bits, so :meth:`repro.bitmap.bitvector.BitVector.concat`
joins word arrays without any bit shifting.

Global row ids are ``partition.offset + local_id``; the partition
boundaries never move after construction (appends go to the last
partition), so an id computed at build time stays valid.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bitmap.bitvector import BitVector
from repro.bitmap.ops import WORD_BITS
from repro.errors import TableError
from repro.query.executor import Executor
from repro.table.catalog import Catalog
from repro.table.table import Table

#: Default partition count: matches the default worker count of
#: :class:`repro.shard.executor.ParallelExecutor`.
DEFAULT_PARTITIONS = 4


def partition_bounds(nrows: int, partitions: int) -> List[int]:
    """Boundary offsets ``[0, b1, .., nrows]`` for row-range splits.

    Every range except the last is a multiple of 64 rows (one bitmap
    word), which keeps merged result vectors word-aligned.  Ranges
    that would be empty are dropped, so fewer than ``partitions``
    bounds may come back for small tables.

    >>> partition_bounds(200, 4)
    [0, 64, 128, 192, 200]
    >>> partition_bounds(200, 3)
    [0, 64, 128, 200]
    >>> partition_bounds(10, 4)
    [0, 10]
    """
    if partitions < 1:
        raise TableError(f"partition count must be >= 1, got {partitions}")
    total_words = max(1, -(-nrows // WORD_BITS))
    parts = min(partitions, total_words)
    base, extra = divmod(total_words, parts)
    bounds = [0]
    for i in range(parts - 1):
        # Leftover words go to the trailing partitions — the last one
        # already absorbs the unaligned tail and future appends.
        words = base + (1 if i >= parts - extra else 0)
        bounds.append(bounds[-1] + words * WORD_BITS)
    bounds.append(nrows)
    return bounds


class Partition:
    """One contiguous row range: a real table plus its own catalog and
    the (stateless) executor planning over it."""

    __slots__ = ("id", "offset", "table", "catalog", "executor")

    def __init__(self, partition_id: int, offset: int, table: Table) -> None:
        self.id = partition_id
        self.offset = offset
        self.table = table
        self.catalog = Catalog()
        self.catalog.register_table(table)
        self.executor = Executor(self.catalog)

    def __len__(self) -> int:
        return len(self.table)

    def __repr__(self) -> str:
        return (
            f"Partition(id={self.id}, offset={self.offset}, "
            f"rows={len(self.table)})"
        )


class SpannedColumn:
    """Read-only view of one column across every partition.

    Offers the :class:`~repro.table.column.Column` read surface
    (length, item access, distinct values, null accounting) with
    global row ids; writes go through the owning
    :class:`PartitionedTable`.
    """

    __slots__ = ("name", "_parent")

    def __init__(self, name: str, parent: "PartitionedTable") -> None:
        self.name = name
        self._parent = parent

    def _columns(self) -> Iterator[Any]:
        for partition in self._parent.partitions:
            yield partition.table.column(self.name)

    def __len__(self) -> int:
        return len(self._parent)

    def __getitem__(self, row_id: int) -> Any:
        partition, local = self._parent.partition_for(row_id)
        return partition.table.column(self.name)[local]

    def __iter__(self) -> Iterator[Any]:
        for column in self._columns():
            yield from column

    def values(self) -> List[Any]:
        """A copy of the spanned value list (NULLs as ``None``)."""
        return list(self)

    def distinct_values(self) -> Set[Any]:
        distinct: Set[Any] = set()
        for column in self._columns():
            distinct |= column.distinct_values()
        return distinct

    def cardinality(self) -> int:
        return len(self.distinct_values())

    @property
    def null_count(self) -> int:
        return sum(column.null_count for column in self._columns())

    def has_nulls(self) -> bool:
        return any(column.has_nulls() for column in self._columns())

    def __repr__(self) -> str:
        return (
            f"SpannedColumn({self.name!r}, rows={len(self)}, "
            f"partitions={len(self._parent.partitions)})"
        )


class PartitionedTable:
    """A table stored as contiguous row-range partitions.

    Duck-types the :class:`~repro.table.table.Table` read/write surface
    with *global* row ids, translating each operation to the owning
    partition.  Build one with :meth:`from_columns` or
    :meth:`from_bounds` rather than the raw constructor.
    """

    def __init__(self, name: str, partitions: Sequence[Partition]) -> None:
        if not partitions:
            raise TableError("a partitioned table needs >= 1 partition")
        self.name = name
        #: Bounds never move after construction, so the partitions and
        #: their offsets (for :meth:`partition_for`) are fixed.
        self._partitions = tuple(partitions)
        self._offsets = [p.offset for p in self._partitions]
        self._observers: List[Any] = []

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Sequence[Any]],
        *,
        partitions: int = DEFAULT_PARTITIONS,
    ) -> "PartitionedTable":
        """Split whole columns into row-range partitions.

        >>> ptable = PartitionedTable.from_columns(
        ...     "T", {"v": list(range(200))}, partitions=3
        ... )
        >>> [len(p) for p in ptable.partitions]
        [64, 64, 72]
        >>> ptable.column("v")[130]
        130
        """
        if not columns:
            raise TableError("a table needs at least one column")
        nrows = len(next(iter(columns.values())))
        return cls.from_bounds(
            name, columns, partition_bounds(nrows, partitions)
        )

    @classmethod
    def from_bounds(
        cls,
        name: str,
        columns: Mapping[str, Sequence[Any]],
        bounds: Sequence[int],
    ) -> "PartitionedTable":
        """Split whole columns at boundary offsets ``[0, .., nrows]``.

        Each partition's columns are filled straight from the input
        through ``islice`` (one pass per column, no intermediate slice
        copy — which measurably raised the RSS left after a build).

        >>> PartitionedTable.from_bounds(
        ...     "T", {"v": list(range(100))}, [0, 64, 100]
        ... ).partitions
        (Partition(id=0, offset=0, rows=64), Partition(id=1, offset=64, rows=36))
        """
        lengths = {col: len(values) for col, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise TableError(f"unequal column lengths: {lengths}")
        cursors = {col: iter(values) for col, values in columns.items()}
        parts: List[Partition] = []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            chunk = Table.from_columns(
                f"{name}.p{i}",
                {col: islice(cursor, hi - lo) for col, cursor in cursors.items()},
            )
            parts.append(Partition(i, lo, chunk))
        return cls(name, parts)

    # ------------------------------------------------------------------
    # partition addressing
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> Tuple[Partition, ...]:
        return self._partitions

    def partition_for(self, row_id: int) -> "Tuple[Partition, int]":
        """The partition owning a global row id, plus the local id."""
        if row_id < 0 or row_id >= len(self):
            raise TableError(f"row {row_id} out of range")
        i = bisect_right(self._offsets, row_id) - 1
        partition = self._partitions[i]
        return partition, row_id - partition.offset

    # ------------------------------------------------------------------
    # Table surface (global row ids)
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return self._partitions[0].table.column_names

    def column(self, name: str) -> SpannedColumn:
        # Validate the name against a real partition column first so
        # unknown columns fail here, not on first use of the view.
        self._partitions[0].table.column(name)
        return SpannedColumn(name, self)

    def __contains__(self, name: str) -> bool:
        return name in self._partitions[0].table

    def __len__(self) -> int:
        return sum(len(p.table) for p in self._partitions)

    def live_count(self) -> int:
        return sum(p.table.live_count() for p in self._partitions)

    def append(self, row: Any) -> int:
        """Append one row to the *last* partition (boundaries are
        fixed; only the tail range grows)."""
        return self.append_rows([row])[0]

    def append_rows(self, rows: Iterable[Any]) -> List[int]:
        """Batch append to the last partition, batch-atomically.

        Delegates to :meth:`Table.append_rows` on the tail partition,
        which holds its write lock (and moves its published watermark)
        once for the whole batch — snapshot readers pinned on the
        partition never observe a half-applied batch.  Observers of
        the whole table are told once per batch through
        ``on_append_rows``, with the batch's values sliced per column
        out of the tail partition.
        """
        rows = list(rows)
        if not rows:
            return []
        last = self._partitions[-1]
        local_ids = last.table.append_rows(rows)
        first = last.offset + local_ids[0]
        if self._observers:
            lo, hi = local_ids[0], local_ids[-1] + 1
            columns = {
                name: last.table.column(name)[lo:hi]
                for name in self.column_names
            }
            for observer in self._observers:
                observer.on_append_rows(first, columns)
        return list(range(first, first + len(local_ids)))

    def published_rows(self) -> int:
        """Snapshot watermark: full partitions plus the tail's own."""
        last = self._partitions[-1]
        return last.offset + last.table.published_rows()

    def row(self, row_id: int) -> Dict[str, Any]:
        partition, local = self.partition_for(row_id)
        return partition.table.row(local)

    def update(self, row_id: int, column_name: str, value: Any) -> None:
        partition, local = self.partition_for(row_id)
        old = partition.table.column(column_name)[local]
        partition.table.update(local, column_name, value)
        for observer in self._observers:
            observer.on_update(row_id, column_name, old, value)

    def delete(self, row_id: int) -> None:
        partition, local = self.partition_for(row_id)
        partition.table.delete(local)
        for observer in self._observers:
            observer.on_delete(row_id)

    def is_void(self, row_id: int) -> bool:
        partition, local = self.partition_for(row_id)
        return partition.table.is_void(local)

    def void_rows(self) -> Set[int]:
        void: Set[int] = set()
        for partition in self._partitions:
            void |= {
                partition.offset + local
                for local in partition.table.void_rows()
            }
        return void

    def existence_vector(self) -> BitVector:
        return BitVector.concat(
            [p.table.existence_vector() for p in self._partitions]
        )

    def scan(
        self, columns: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, Any]]:
        for partition in self._partitions:
            yield from partition.table.scan(columns)

    # ------------------------------------------------------------------
    # observer protocol (indexes over the whole partitioned table)
    # ------------------------------------------------------------------
    def attach(self, observer: Any) -> None:
        self._observers.append(observer)

    def detach(self, observer: Any) -> None:
        self._observers.remove(observer)

    def __repr__(self) -> str:
        return (
            f"PartitionedTable({self.name!r}, "
            f"columns={self.column_names}, rows={len(self)}, "
            f"partitions={len(self._partitions)})"
        )
