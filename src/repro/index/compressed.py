"""Run-length compressed simple bitmap index.

Section 4 lists "compression techniques (e.g., run-length) for simple
bitmap indexes" among the standard remedies for sparsity.  This index
stores one :class:`~repro.bitmap.rle.RunLengthBitmap` per value;
logical operations run directly on the compressed form (run-merge),
so a sparse high-cardinality column costs far less space than the
uncompressed simple index — at the price the paper implies: per-value
vectors still number ``m``, so range searches still touch ``delta``
of them, and the encoded index keeps its access-count advantage.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.bitmap.bitvector import BitVector
from repro.bitmap.rle import RunLengthBitmap
from repro.errors import UnsupportedPredicateError
from repro.index.base import (
    Index,
    LookupCost,
    range_values,
)
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.table.table import Table


class CompressedBitmapIndex(Index):
    """Simple bitmap index with run-length compressed vectors."""

    kind = "compressed-bitmap"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        self._vectors: Dict[Any, RunLengthBitmap] = {}
        self._null_vector = RunLengthBitmap(len(table))
        self._build()

    def _build(self) -> None:
        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        positions: Dict[Any, list] = {}
        null_rows = []
        for row_id in range(len(self.table)):
            if row_id in void:
                continue
            value = column[row_id]
            if value is None:
                null_rows.append(row_id)
            else:
                positions.setdefault(value, []).append(row_id)
        nbits = len(self.table)
        for value, rows in positions.items():
            self._vectors[value] = RunLengthBitmap.from_bitvector(
                BitVector.from_indices(rows, nbits)
            )
        self._null_vector = RunLengthBitmap.from_bitvector(
            BitVector.from_indices(null_rows, nbits)
        )

    def rebuild(self) -> None:
        """Recompress every vector from the base table (called after a
        :mod:`repro.shard.reorder` row permutation)."""
        with self._lock:
            self._vectors = {}
            self._null_vector = RunLengthBitmap(len(self.table))
            self._build()

    # ------------------------------------------------------------------
    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        nbits = self._row_count()
        if isinstance(predicate, Equals):
            values = [predicate.value]
        elif isinstance(predicate, InList):
            values = list(predicate.values)
        elif isinstance(predicate, Range):
            values = range_values(self._vectors.keys(), predicate)
        elif isinstance(predicate, IsNull):
            cost.vectors_accessed += 1
            return self._null_vector.to_bitvector()
        else:
            raise UnsupportedPredicateError(
                f"unsupported predicate {predicate}"
            )
        result: Optional[RunLengthBitmap] = None
        for value in values:
            compressed = self._vectors.get(value)
            if compressed is None:
                continue
            cost.vectors_accessed += 1
            result = compressed if result is None else (result | compressed)
        if result is None:
            return BitVector(nbits)
        return result.to_bitvector()

    # ------------------------------------------------------------------
    @property
    def vector_count(self) -> int:
        return len(self._vectors)

    def compressed_vector(self, value: Any) -> Optional[RunLengthBitmap]:
        return self._vectors.get(value)

    def nbytes(self) -> int:
        """Compressed size: one WAH-style word per run."""
        total = self._null_vector.nbytes()
        for compressed in self._vectors.values():
            total += compressed.nbytes()
        return total

    def compression_ratio(self) -> float:
        """Uncompressed simple-index bytes / compressed bytes."""
        uncompressed = BitVector(self._row_count()).nbytes() * max(
            1, len(self._vectors)
        )
        compressed = max(1, self.nbytes())
        return uncompressed / compressed

    # ------------------------------------------------------------------
    # maintenance (append-oriented; updates rebuild the touched runs)
    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        value = row.get(self.column_name)
        for existing, compressed in self._vectors.items():
            compressed.append(existing == value and value is not None)
        self._null_vector.append(value is None)
        if value is not None and value not in self._vectors:
            bits = BitVector(row_id + 1)
            bits[row_id] = True
            self._vectors[value] = RunLengthBitmap.from_bitvector(bits)
            self.stats.maintenance_ops += row_id + 1
        self.stats.maintenance_ops += 1

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        self._rewrite(row_id, old, False)
        self._rewrite(row_id, new, True)
        self.stats.maintenance_ops += 1

    def on_delete(self, row_id: int) -> None:
        value = self.table.column(self.column_name)[row_id]
        self._rewrite(row_id, value, False)
        self.stats.maintenance_ops += 1

    def _rewrite(self, row_id: int, value: Any, bit: bool) -> None:
        """Flip one bit of one compressed vector (decompress-edit)."""
        if value is None:
            vector = self._null_vector.to_bitvector()
            vector[row_id] = bit
            self._null_vector = RunLengthBitmap.from_bitvector(vector)
            return
        compressed = self._vectors.get(value)
        if compressed is None:
            if not bit:
                return
            bits = BitVector(self._row_count())
            bits[row_id] = True
            self._vectors[value] = RunLengthBitmap.from_bitvector(bits)
            return
        vector = compressed.to_bitvector()
        if len(vector) < self._row_count():
            vector.resize(self._row_count())
        vector[row_id] = bit
        self._vectors[value] = RunLengthBitmap.from_bitvector(vector)
