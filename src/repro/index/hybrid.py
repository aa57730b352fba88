"""Hybrid B-tree/bitmap index — Section 3.2 and 4 of the paper.

"Instead of storing tuple-ids (value-lists) at the leaf-nodes of
B-trees, bitmap vectors are stored.  As the sparsity increases ...
the bit vectors are expressed as value-lists."  The paper's critique:
at very high cardinality every leaf entry degenerates to a value-list
and the hybrid reduces to a pure B-tree, losing bitmap cooperativity.

This implementation keys leaf entries by value and stores either a
:class:`BitVector` or a tuple-id list per value, chosen by a sparsity
threshold.  ``degeneration_ratio`` reports the fraction of entries
held as value-lists — the quantity the paper's argument predicts to
approach 1 as ``m`` grows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.bitmap.bitvector import BitVector
from repro.errors import InvalidArgumentError, UnsupportedPredicateError
from repro.index.base import (
    Index,
    LookupCost,
    range_values,
)
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.table.table import Table

Entry = Union[BitVector, List[int]]

TUPLE_ID_BYTES = 4
KEY_BYTES = 8


class HybridBitmapBTreeIndex(Index):
    """Per-value entries stored as bitmap or value-list by density.

    Parameters
    ----------
    sparsity_threshold:
        A value whose rows fill less than this fraction of the table
        is stored as a tuple-id list instead of a bitmap.  The classic
        storage break-even is 1/32 (a 32-bit tuple-id per set bit vs
        one bit per row); that is the default.
    """

    kind = "hybrid"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        sparsity_threshold: float = 1.0 / 32.0,
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        if not 0.0 < sparsity_threshold <= 1.0:
            raise InvalidArgumentError(
                f"sparsity_threshold must be in (0, 1], got "
                f"{sparsity_threshold}"
            )
        self.sparsity_threshold = sparsity_threshold
        self._entries: Dict[Any, Entry] = {}
        self._build()

    def _build(self) -> None:
        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        positions: Dict[Any, List[int]] = {}
        for row_id in range(len(self.table)):
            if row_id in void:
                continue
            value = column[row_id]
            if value is None:
                continue
            positions.setdefault(value, []).append(row_id)
        nbits = len(self.table)
        cutoff = max(1, int(self.sparsity_threshold * max(1, nbits)))
        for value, rows in positions.items():
            if len(rows) >= cutoff:
                self._entries[value] = BitVector.from_indices(rows, nbits)
            else:
                self._entries[value] = list(rows)

    # ------------------------------------------------------------------
    def degeneration_ratio(self) -> float:
        """Fraction of entries stored as value-lists (not bitmaps)."""
        if not self._entries:
            return 0.0
        lists = sum(
            1 for entry in self._entries.values() if isinstance(entry, list)
        )
        return lists / len(self._entries)

    def is_degenerate(self) -> bool:
        """True when the hybrid has effectively become a B-tree."""
        return self.degeneration_ratio() >= 0.999

    def nbytes(self) -> int:
        total = len(self._entries) * KEY_BYTES
        for entry in self._entries.values():
            if isinstance(entry, BitVector):
                total += entry.nbytes()
            else:
                total += len(entry) * TUPLE_ID_BYTES
        return total

    # ------------------------------------------------------------------
    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        nbits = self._row_count()
        if isinstance(predicate, Equals):
            values = [predicate.value]
        elif isinstance(predicate, InList):
            values = list(predicate.values)
        elif isinstance(predicate, Range):
            values = range_values(self._entries.keys(), predicate)
        elif isinstance(predicate, IsNull):
            raise UnsupportedPredicateError(
                "hybrid index does not index NULLs"
            )
        else:
            raise UnsupportedPredicateError(
                f"unsupported predicate {predicate}"
            )
        result = BitVector(nbits)
        for value in values:
            entry = self._entries.get(value)
            if entry is None:
                continue
            cost.vectors_accessed += 1
            if isinstance(entry, BitVector):
                result |= entry
            else:
                cost.rows_checked += len(entry)
                for row_id in entry:
                    result[row_id] = True
        return result

    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        value = row.get(self.column_name)
        nbits = row_id + 1
        for entry in self._entries.values():
            if isinstance(entry, BitVector):
                entry.resize(nbits)
        if value is None:
            return
        entry = self._entries.get(value)
        if entry is None:
            self._entries[value] = [row_id]
        elif isinstance(entry, BitVector):
            entry[row_id] = True
        else:
            entry.append(row_id)
            self._maybe_promote(value)
        self.stats.maintenance_ops += 1

    def _maybe_promote(self, value: Any) -> None:
        """Convert a grown value-list back into a bitmap."""
        entry = self._entries[value]
        if not isinstance(entry, list):
            return
        nbits = self._row_count()
        cutoff = max(1, int(self.sparsity_threshold * max(1, nbits)))
        if len(entry) >= cutoff:
            self._entries[value] = BitVector.from_indices(entry, nbits)

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        self._discard(old, row_id)
        if new is not None:
            entry = self._entries.get(new)
            if entry is None:
                self._entries[new] = [row_id]
            elif isinstance(entry, BitVector):
                entry[row_id] = True
            else:
                entry.append(row_id)
                entry.sort()
                self._maybe_promote(new)
        self.stats.maintenance_ops += 1

    def on_delete(self, row_id: int) -> None:
        value = self.table.column(self.column_name)[row_id]
        self._discard(value, row_id)
        self.stats.maintenance_ops += 1

    def _discard(self, value: Any, row_id: int) -> None:
        if value is None:
            return
        entry = self._entries.get(value)
        if entry is None:
            return
        if isinstance(entry, BitVector):
            entry[row_id] = False
        elif row_id in entry:
            entry.remove(row_id)
