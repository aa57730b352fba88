"""Paged variants of the bitmap indexes.

These subclasses route every vector access through a
:class:`~repro.storage.vector_store.PagedVectorStore`, so the
simulated disk's I/O statistics reflect the paper's claims at the
page level: an encoded index reads ``c_e * pages_per_vector`` pages
per query, a simple index ``c_s * pages_per_vector`` — with the
buffer pool absorbing repeats.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.bitmap.bitvector import BitVector
from repro.boolean.evaluator import AccessCounter, evaluate_dnf
from repro.boolean.reduction import ReducedFunction
from repro.encoding.mapping import MappingTable
from repro.index.base import LookupCost
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.storage.vector_store import PagedVectorStore
from repro.table.table import Table


class PagedEncodedBitmapIndex(EncodedBitmapIndex):
    """Encoded bitmap index whose vectors live on simulated pages.

    The in-memory plane matrix and delta remain the write path
    (maintenance updates them, then flushes every vector); queries
    *read* through the store so page I/O is counted.
    """

    kind = "encoded-bitmap-paged"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        encoding: Optional[MappingTable] = None,
        store: Optional[PagedVectorStore] = None,
        page_size: int = PAGE_SIZE_DEFAULT,
        pool_capacity: int = 64,
        **kwargs: Any,
    ) -> None:
        self._store: Optional[PagedVectorStore] = None
        super().__init__(table, column_name, encoding=encoding, **kwargs)
        # A caller-supplied store lets each partition of a
        # PartitionedIndex keep its own pager/buffer pool.
        self._store = (
            store
            if store is not None
            else PagedVectorStore(
                page_size=page_size, pool_capacity=pool_capacity
            )
        )
        self._flush_all()

    # ------------------------------------------------------------------
    @property
    def store(self) -> PagedVectorStore:
        return self._store

    def _flush_all(self) -> None:
        for i in range(self.width):
            self._store.store(i, self.vector(i))

    # ------------------------------------------------------------------
    def _evaluate(
        self,
        function: ReducedFunction,
        cost: LookupCost,
        *,
        version: Optional[int] = None,
    ) -> Optional[BitVector]:
        if self._store is None:  # during construction
            return super()._evaluate(function, cost, version=version)
        counter = AccessCounter()
        # Same optimistic-read discipline as the base class: refuse
        # to evaluate a function derived from a superseded mapping
        # (the store's page layout tracks the vector widths).
        with self._lock:
            if version is not None and version != self._data_version:
                return None
        result = evaluate_dnf(
            function,
            lambda i: self._store.load(i),
            self._row_count(),
            counter,
        )
        cost.vectors_accessed += counter.distinct_accesses
        if self._exists_vector is not None:
            cost.vectors_accessed += 1
            result &= self._exists_vector
        return result

    # ------------------------------------------------------------------
    # maintenance: mutate in memory, then write back the dirty vectors
    # ------------------------------------------------------------------
    def on_append_rows(
        self, first_row_id: int, columns: Mapping[str, Sequence[Any]]
    ) -> None:
        super().on_append_rows(first_row_id, columns)
        if self._store is not None:
            self._flush_all()

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        super()._apply_update(row_id, old, new)
        if self._store is not None:
            self._flush_all()

    def on_delete(self, row_id: int) -> None:
        super().on_delete(row_id)
        if self._store is not None:
            self._flush_all()


class PagedSimpleBitmapIndex(SimpleBitmapIndex):
    """Simple bitmap index reading its value vectors from pages."""

    kind = "simple-bitmap-paged"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        store: Optional[PagedVectorStore] = None,
        page_size: int = PAGE_SIZE_DEFAULT,
        pool_capacity: int = 64,
        **kwargs: Any,
    ) -> None:
        self._store: Optional[PagedVectorStore] = None
        super().__init__(table, column_name, **kwargs)
        self._store = (
            store
            if store is not None
            else PagedVectorStore(
                page_size=page_size, pool_capacity=pool_capacity
            )
        )
        for value, vector in self._vectors.items():
            self._store.store(value, vector)

    @property
    def store(self) -> PagedVectorStore:
        return self._store

    def _fetch_value(
        self, value: Any, nbits: int, cost: LookupCost
    ) -> BitVector:
        if self._store is None or value not in self._store:
            return super()._fetch_value(value, nbits, cost)
        cost.vectors_accessed += 1
        return self._store.load(value)

    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        super().on_append(row_id, row)
        if self._store is not None:
            for value, vector in self._vectors.items():
                self._store.update(value, vector)
