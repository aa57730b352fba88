"""Row-addressable columnar table with soft deletion.

Rows are identified by their append position (tuple-id).  Deleting a
row does not reclaim the position — the row becomes a *void* tuple,
exactly the situation the paper's Theorem 2.1 handles by reserving
code 0.  Indexes attached to the table are notified of appends,
updates and deletions so they stay consistent.
"""

from __future__ import annotations

import threading
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
)

from repro.bitmap.bitvector import BitVector
from repro.table.column import Column
from repro.errors import TableError


class Table:
    """A named collection of equal-length columns.

    Parameters
    ----------
    name:
        Table name.
    column_names:
        Ordered column names; rows are dicts or sequences over these.
    """

    def __init__(self, name: str, column_names: Sequence[str]) -> None:
        if not column_names:
            raise TableError("a table needs at least one column")
        if len(set(column_names)) != len(column_names):
            raise TableError("duplicate column names")
        self.name = name  # ebi: shared-readonly
        self._columns: Dict[str, Column] = {
            col_name: Column(col_name) for col_name in column_names
        }
        self._void: Set[int] = set()
        self._observers: List[Any] = []
        #: Serialises each mutation *with* its index notifications, so
        #: two concurrent writers to the same row cannot leave the
        #: column and its indexes applied in opposite orders (a lost
        #: update the interleaving stress tests reproduce).  Readers
        #: never take it.  Lock order is table -> index; indexes never
        #: call back into the table while holding their own lock.
        self._write_lock = threading.Lock()
        #: Batch-atomic row watermark: moves once per ``append`` /
        #: ``append_rows`` call, after the whole batch (values *and*
        #: index notifications) is applied.  Snapshot readers pin on
        #: this instead of ``len(self)``, so a pin can never land in
        #: the middle of a batch.
        self._published_rows = 0

    @classmethod
    def from_columns(
        cls, name: str, columns: Mapping[str, Iterable[Any]]
    ) -> "Table":
        """Build a table from whole columns in one bulk step.

        Orders of magnitude faster than :meth:`append` in a loop for
        large tables because each column is extended once; observers
        cannot exist yet, so no per-row notifications fire.  Columns
        may be any iterables (:meth:`PartitionedTable.from_bounds
        <repro.shard.partition.PartitionedTable.from_bounds>` passes
        ``islice`` views).
        """
        table = cls(name, list(columns))
        for col_name, values in columns.items():
            table._columns[col_name].extend(values)
        lengths = {col: len(column) for col, column in table._columns.items()}
        if len(set(lengths.values())) > 1:
            raise TableError(f"unequal column lengths: {lengths}")
        table._published_rows = len(table)
        return table

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise TableError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Physical row count, including void positions."""
        first = next(iter(self._columns.values()))
        return len(first)

    def live_count(self) -> int:
        """Rows that are not void."""
        return len(self) - len(self._void)

    def published_rows(self) -> int:
        """Rows visible to snapshot readers (batch-atomic watermark).

        Trails ``len(self)`` only in the middle of an append batch;
        equal otherwise.  See :mod:`repro.query.snapshot`.
        """
        return self._published_rows

    def append(self, row: Any) -> int:
        """Append one row (dict by column name, or positional sequence).

        Returns the new tuple-id and notifies attached indexes.
        """
        return self.append_rows([row])[0]

    def append_rows(self, rows: Iterable[Any]) -> List[int]:
        """Append a batch of rows atomically.

        The write lock is held for the *whole* batch and the published
        watermark moves once at the end, so a concurrent snapshot
        reader (see :mod:`repro.query.snapshot`) observes either none
        of the batch or all of it — never rows 0..i of it.  Row
        validation happens up front, before any mutation, so a bad row
        fails the batch without applying a prefix.  Each observer is
        told once per batch, through ``on_append_rows(first_row_id,
        columns)`` with the batch's values per column.
        """
        batch = [self._row_values(row) for row in rows]
        if not batch:
            return []
        columns = dict(zip(self._columns, zip(*batch)))
        with self._write_lock:
            first = len(self)
            for name, values in columns.items():
                self._columns[name].extend(values)
            for observer in self._observers:
                # Inside the write lock on purpose, as in update(): the
                # paged index kinds' simulated page writes are memory
                # copies, hence the suppression.
                observer.on_append_rows(first, columns)  # ebilint: disable=EBI303
            self._published_rows = first + len(batch)
        return list(range(first, first + len(batch)))

    def row(self, row_id: int) -> Dict[str, Any]:
        """Materialise one row as a dict (void rows raise)."""
        if row_id in self._void:
            raise TableError(f"row {row_id} is deleted")
        return {
            name: column[row_id] for name, column in self._columns.items()
        }

    def update(self, row_id: int, column_name: str, value: Any) -> None:
        """Overwrite one attribute of a live row."""
        with self._write_lock:
            if row_id in self._void:
                raise TableError(f"row {row_id} is deleted")
            old = self.column(column_name).update(row_id, value)
            for observer in self._observers:
                # Index maintenance must stay inside the write lock —
                # that atomicity is the whole point (see the lock's
                # docstring).  Some index kinds persist vectors
                # through the simulated pager, whose "I/O" is memory
                # copies, so the no-I/O-under-lock rule is suppressed
                # here deliberately.
                observer.on_update(row_id, column_name, old, value)  # ebilint: disable=EBI303

    def delete(self, row_id: int) -> None:
        """Soft-delete a row: the position becomes a void tuple."""
        if row_id < 0 or row_id >= len(self):
            raise TableError(f"row {row_id} out of range")
        with self._write_lock:
            if row_id in self._void:
                raise TableError(f"row {row_id} already deleted")
            self._void.add(row_id)
            for observer in self._observers:
                observer.on_delete(row_id)

    def is_void(self, row_id: int) -> bool:
        return row_id in self._void

    def void_rows(self) -> Set[int]:
        return set(self._void)

    def existence_vector(self) -> BitVector:
        """Bit per row: 1 = live — the simple-bitmap existence vector."""
        vector = BitVector.ones(len(self))
        for row_id in self._void:
            vector[row_id] = False
        return vector

    def scan(
        self, columns: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield live rows as dicts (a full table scan)."""
        names = list(columns) if columns else self.column_names
        for row_id in range(len(self)):
            if row_id in self._void:
                continue
            yield {name: self.column(name)[row_id] for name in names}

    def apply_permutation(self, order: Sequence[int]) -> None:
        """Physically reorder the rows: new row ``j`` takes its values
        from old row ``order[j]``.

        The column rewrite, the void-set remap and every attached
        index's :meth:`~repro.index.base.Index.rebuild` all run under
        the write lock, so a concurrent writer can never interleave
        with a half-permuted table (the same batch-atomicity contract
        as :meth:`append_rows`).  Used by :mod:`repro.shard.reorder`;
        raises :class:`~repro.errors.TableError` if ``order`` is not a
        permutation of the current row ids, and ``NotImplementedError``
        if an attached index kind cannot rebuild.
        """
        with self._write_lock:
            nrows = len(self)
            order = list(order)
            if sorted(order) != list(range(nrows)):
                raise TableError(
                    f"order is not a permutation of {nrows} row ids"
                )
            for name, column in list(self._columns.items()):
                values = column.values()
                self._columns[name] = Column(
                    name, [values[i] for i in order]
                )
            inverse = {old: new for new, old in enumerate(order)}
            self._void = {inverse[row_id] for row_id in self._void}
            for observer in self._observers:
                observer.rebuild()

    # ------------------------------------------------------------------
    # index attachment
    # ------------------------------------------------------------------
    def attach(self, observer: Any) -> None:
        """Register an index for change notifications (once: attaching
        an attached observer again is a no-op)."""
        if not any(known is observer for known in self._observers):
            self._observers.append(observer)

    def detach(self, observer: Any) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    def _row_values(self, row: Any) -> List[Any]:
        if isinstance(row, dict):
            unknown = set(row) - set(self._columns)
            if unknown:
                raise TableError(f"unknown columns {sorted(unknown)}")
            return [row.get(name) for name in self._columns]
        values = list(row)
        if len(values) != len(self._columns):
            raise TableError(
                f"row has {len(values)} values, expected "
                f"{len(self._columns)}"
            )
        return values

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, columns={self.column_names}, "
            f"rows={len(self)}, void={len(self._void)})"
        )
