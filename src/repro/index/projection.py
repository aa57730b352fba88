"""Projection index (O'Neil & Quass; Section 4 of the paper).

A materialisation of the column's values in tuple-id order — the
paper notes it is an encoded bitmap index whose mapping is the
identity on internal codes, stored *horizontally* instead of
vertically.  Every lookup scans the projection; the cost is the
number of stored rows checked (pages, at the storage level).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bitmap.bitvector import BitVector
from repro.errors import UnsupportedPredicateError
from repro.index.base import Index, LookupCost
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.table.table import Table

#: Assumed bytes per stored value (fixed-width attribute).
VALUE_BYTES = 4


class ProjectionIndex(Index):
    """Positional copy of a column, scanned on every lookup."""

    kind = "projection"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        page_size: int = PAGE_SIZE_DEFAULT,
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        self.page_size = page_size
        self._values: List[Any] = []
        self._build()

    def _build(self) -> None:
        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        for row_id in range(len(self.table)):
            value = None if row_id in void else column[row_id]
            self._values.append(value)

    # ------------------------------------------------------------------
    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        if not isinstance(predicate, (Equals, InList, Range, IsNull)):
            raise UnsupportedPredicateError(
                f"unsupported predicate {predicate}"
            )
        nbits = self._row_count()
        result = BitVector(nbits)
        void = self.table.void_rows()
        for row_id, value in enumerate(self._values):
            cost.rows_checked += 1
            if row_id in void:
                continue
            if isinstance(predicate, IsNull):
                hit = value is None
            else:
                hit = value is not None and predicate.matches(
                    {self.column_name: value}
                )
            if hit:
                result[row_id] = True
        return result

    def value_at(self, row_id: int) -> Any:
        """Positional read — the projection index's native operation."""
        return self._values[row_id]

    def nbytes(self) -> int:
        return len(self._values) * VALUE_BYTES

    def pages(self) -> int:
        """Pages a full scan reads."""
        return -(-self.nbytes() // self.page_size)

    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        self._values.append(row.get(self.column_name))
        self.stats.maintenance_ops += 1

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        self._values[row_id] = new
        self.stats.maintenance_ops += 1

    def on_delete(self, row_id: int) -> None:
        self._values[row_id] = None
        self.stats.maintenance_ops += 1
