"""Range-based bitmap index (Wu & Yu; Section 4 of the paper).

Partitions a high-cardinality (possibly skewed) domain into buckets
of roughly equal population and keeps one *simple* bitmap per bucket.
A range query reads the bitmaps of fully covered buckets and, for the
partially covered edge buckets, must verify candidate rows against
the base data — the "candidate check" cost the encoded bitmap index
avoids.  The paper contrasts this distribution-driven partitioning
with its own predicate-driven range encoding.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.bitmap.bitvector import BitVector
from repro.errors import (
    IndexBuildError,
    InvalidArgumentError,
    UnsupportedPredicateError,
)
from repro.index.base import Index, LookupCost
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.table.table import Table


class RangeBitmapIndex(Index):
    """Equal-population bucket bitmaps over an ordered domain."""

    kind = "range-bitmap"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        buckets: int = 16,
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        if buckets < 1:
            raise InvalidArgumentError(f"buckets must be >= 1, got {buckets}")
        self.bucket_target = buckets
        self._boundaries: List[Any] = []  # upper bound per bucket (incl.)
        self._vectors: List[BitVector] = []
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        live_values = [
            (column[row_id], row_id)
            for row_id in range(len(self.table))
            if row_id not in void and column[row_id] is not None
        ]
        if not live_values:
            raise IndexBuildError(
                f"column {self.column_name!r} has no indexable values"
            )
        live_values.sort(key=lambda pair: pair[0])
        buckets = min(self.bucket_target, len(live_values))
        per_bucket = -(-len(live_values) // buckets)

        nbits = len(self.table)
        start = 0
        while start < len(live_values):
            end = min(start + per_bucket, len(live_values))
            # Never split rows sharing one value across buckets.
            while (
                end < len(live_values)
                and live_values[end][0] == live_values[end - 1][0]
            ):
                end += 1
            vector = BitVector(nbits)
            for _, row_id in live_values[start:end]:
                vector[row_id] = True
            self._vectors.append(vector)
            self._boundaries.append(live_values[end - 1][0])
            start = end

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        return len(self._vectors)

    def bucket_bounds(self) -> List[Tuple[Any, Any]]:
        """(low, high] bounds per bucket (low of first is open)."""
        bounds = []
        previous = None
        for upper in self._boundaries:
            bounds.append((previous, upper))
            previous = upper
        return bounds

    def nbytes(self) -> int:
        per_vector = BitVector(self._row_count()).nbytes()
        return per_vector * len(self._vectors)

    # ------------------------------------------------------------------
    def _bucket_of(self, value: Any) -> int:
        for i, upper in enumerate(self._boundaries):
            if value <= upper:
                return i
        return len(self._boundaries) - 1

    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        nbits = self._row_count()
        if isinstance(predicate, Equals):
            predicate = Range(
                predicate.column, predicate.value, predicate.value
            )
        if isinstance(predicate, InList):
            result = BitVector(nbits)
            for value in predicate.values:
                result |= self._lookup(
                    Range(self.column_name, value, value), cost
                )
            return result
        if isinstance(predicate, IsNull):
            raise UnsupportedPredicateError(
                "range-based bitmaps do not index NULLs"
            )
        if not isinstance(predicate, Range):
            raise UnsupportedPredicateError(
                f"unsupported predicate {predicate}"
            )

        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        result = BitVector(nbits)
        for i, vector in enumerate(self._vectors):
            low, high = self._bucket_range(i)
            coverage = self._coverage(predicate, low, high)
            if coverage == "none":
                continue
            cost.vectors_accessed += 1
            if coverage == "full":
                result |= vector
            else:
                # Edge bucket: candidate rows must be checked against
                # the base table.
                for row_id in vector.indices():
                    row_id = int(row_id)
                    cost.rows_checked += 1
                    if row_id in void:
                        continue
                    value = column[row_id]
                    if value is not None and predicate.matches(
                        {self.column_name: value}
                    ):
                        result[row_id] = True
        return result

    def _bucket_range(self, i: int) -> Tuple[Any, Any]:
        low = self._boundaries[i - 1] if i > 0 else None
        return low, self._boundaries[i]

    def _coverage(self, predicate: Range, low: Any, high: Any) -> str:
        """Classify a bucket as fully/partially/not covered.

        The bucket holds values ``v`` with ``low < v <= high`` (``low``
        is ``None`` for the first bucket, meaning unbounded below).
        """
        # Disjoint below: every bucket value <= high < predicate range.
        if predicate.low is not None:
            if high < predicate.low or (
                high == predicate.low and not predicate.low_inclusive
            ):
                return "none"
        # Disjoint above: every bucket value > low >= predicate range.
        if predicate.high is not None and low is not None:
            if low >= predicate.high:
                return "none"
        # Full coverage: every possible bucket value satisfies both
        # bounds.  Bucket values are > low, so plow <= low suffices on
        # the lower side regardless of inclusiveness.
        lower_ok = predicate.low is None or (
            low is not None and predicate.low <= low
        )
        upper_ok = predicate.high is None or (
            high <= predicate.high
            if predicate.high_inclusive
            else high < predicate.high
        )
        if lower_ok and upper_ok:
            return "full"
        return "partial"

    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        value = row.get(self.column_name)
        nbits = row_id + 1
        for vector in self._vectors:
            vector.resize(nbits)
        if value is not None:
            bucket = self._bucket_of(value)
            self._vectors[bucket][row_id] = True
        self.stats.maintenance_ops += 1

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        if old is not None:
            self._vectors[self._bucket_of(old)][row_id] = False
        if new is not None:
            self._vectors[self._bucket_of(new)][row_id] = True
        self.stats.maintenance_ops += 1

    def on_delete(self, row_id: int) -> None:
        value = self.table.column(self.column_name)[row_id]
        if value is not None:
            self._vectors[self._bucket_of(value)][row_id] = False
        self.stats.maintenance_ops += 1
