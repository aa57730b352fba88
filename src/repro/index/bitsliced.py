"""Bit-sliced index (O'Neil & Quass; Section 4 of the paper).

The paper observes that a bit-sliced index *is* an encoded bitmap
index whose mapping is the total-order preserving identity on the
fixed-point representation.  This subclass builds exactly that
mapping and adds the O'Neil–Quass range algorithm, which evaluates
``A <= c`` directly on the slices with one pass from the most
significant slice down — no IN-list rewrite, at the cost of touching
(up to) all ``k`` slices.
"""

from __future__ import annotations

from typing import Optional

from repro.bitmap.bitvector import BitVector
from repro.encoding.total_order import bit_slice_encoding
from repro.index.base import LookupCost
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Predicate, Range
from repro.table.table import Table


class BitSlicedIndex(EncodedBitmapIndex):
    """Encoded bitmap index with the bit-slice (order) encoding."""

    kind = "bit-sliced"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        use_slice_algorithm: bool = True,
    ) -> None:
        column = table.column(column_name)
        mapping = bit_slice_encoding(
            column.distinct_values(), reserve_void_zero=True
        )
        self.use_slice_algorithm = use_slice_algorithm
        super().__init__(
            table,
            column_name,
            encoding=mapping,
            registry=registry,
            void_mode="encode",
            null_mode="vector" if column.has_nulls() else "encode",
        )

    # ------------------------------------------------------------------
    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        if isinstance(predicate, Range) and self.use_slice_algorithm:
            return self._slice_range(predicate, cost)
        return super()._lookup(predicate, cost)

    # ------------------------------------------------------------------
    def _slice_range(self, predicate: Range, cost: LookupCost) -> BitVector:
        """O'Neil–Quass comparison on slices: ``low <= code <= high``.

        Codes preserve the value order, so the range maps to a code
        interval; the comparison walks slices from MSB to LSB keeping
        ``lt``/``gt``/``eq`` state vectors.
        """
        low_code = self._bound_code(predicate, is_low=True)
        high_code = self._bound_code(predicate, is_low=False)
        nbits = self._row_count()
        if low_code is None or high_code is None or low_code > high_code:
            return BitVector(nbits)

        # Every slice is touched at most once across both comparisons
        # and the void exclusion; footnote 4 counts distinct vectors.
        cost.vectors_accessed += self.width
        result = self._compare_leq(high_code)
        if low_code > 0:
            result = result.andnot(self._compare_leq(low_code - 1))
        # Codes 0 (void) and the null code are below every live code
        # because bit_slice_encoding reserves 0 and assigns values from
        # 1 upward, so low_code >= 1 already excludes them.
        return result

    def _bound_code(self, predicate: Range, is_low: bool) -> Optional[int]:
        """Tightest code bound for one side of the range."""
        domain = sorted(self._mapping.domain())
        if not domain:
            return None
        if is_low:
            if predicate.low is None:
                return self._mapping.encode(domain[0])
            candidates = [
                value
                for value in domain
                if (
                    value >= predicate.low
                    if predicate.low_inclusive
                    else value > predicate.low
                )
            ]
            if not candidates:
                return None
            return self._mapping.encode(candidates[0])
        if predicate.high is None:
            return self._mapping.encode(domain[-1])
        candidates = [
            value
            for value in domain
            if (
                value <= predicate.high
                if predicate.high_inclusive
                else value < predicate.high
            )
        ]
        if not candidates:
            return None
        return self._mapping.encode(candidates[-1])

    def _compare_leq(self, bound: int) -> BitVector:
        """Vector of rows whose code is <= ``bound`` (excluding code 0).

        Classic bit-sliced comparison: starting from the MSB slice,
        ``lt`` accumulates rows already strictly below the bound and
        ``eq`` tracks rows still equal on the prefix.
        """
        nbits = self._row_count()
        slices = [self.vector(i) for i in range(self.width)]
        lt = BitVector(nbits)
        eq = BitVector.ones(nbits)
        for i in range(self.width - 1, -1, -1):
            slice_i = slices[i]
            if (bound >> i) & 1:
                lt |= eq.andnot(slice_i)
                eq &= slice_i
            else:
                eq = eq.andnot(slice_i)
        result = lt | eq
        # Exclude void code 0 (all slices zero): any row with some bit
        # set survives; rows with code 0 must be cleared.
        nonzero = BitVector(nbits)
        for slice_i in slices:
            nonzero |= slice_i
        return result & nonzero
