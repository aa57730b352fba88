"""Bitmapped join index (O'Neil & Graefe; Section 4 of the paper).

A join index pre-computes the join between a fact table and a
dimension: for each dimension row, a bitmap over the fact table marks
the matching fact rows.  A selection on any dimension attribute is
evaluated on the (small) dimension table, then the qualifying
dimension rows' fact bitmaps are OR-ed — a star join without touching
the fact table's columns.

To keep the vector count logarithmic (the whole point of the paper),
the fact-side bitmaps are stored as an *encoded* bitmap index over
the fact table's foreign key; the join index contributes the
dimension-side evaluation and the mapping from dimension rows to key
values.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, List, Optional

from repro.bitmap.bitvector import BitVector
from repro.encoding.mapping import MappingTable
from repro.errors import SchemaError
from repro.index.base import (
    IndexStatistics,
    LookupCost,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import InList, Predicate
from repro.table.table import Table


class BitmapJoinIndex:
    """Join index between a fact foreign key and a dimension table.

    Parameters
    ----------
    fact, fact_column:
        The fact table and its foreign-key column.
    dimension, dimension_key:
        The dimension table and its key column.
    encoding:
        Optional encoding for the fact-side encoded bitmap index
        (e.g. a hierarchy encoding over the dimension keys).
    """

    kind = "bitmap-join"

    def __init__(
        self,
        fact: Table,
        fact_column: str,
        dimension: Table,
        dimension_key: str,
        *,
        encoding: Optional[MappingTable] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if dimension_key not in dimension:
            raise SchemaError(
                f"dimension {dimension.name!r} has no column "
                f"{dimension_key!r}"
            )
        self.fact = fact
        self.fact_column = fact_column
        self.dimension = dimension
        self.dimension_key = dimension_key
        self.fact_index = EncodedBitmapIndex(
            fact, fact_column, encoding=encoding, registry=registry
        )
        #: Guards stats and last-lookup trace state shared across
        #: worker threads (see docs/concurrency.md).
        self._lock = threading.RLock()
        self.stats = IndexStatistics()
        self.last_cost = LookupCost()

    # ------------------------------------------------------------------
    def join_keys(self, dimension_predicate: Predicate) -> List[Hashable]:
        """Dimension keys whose rows satisfy the predicate.

        Evaluated by scanning the dimension — dimensions are small by
        star-schema design; the fact side never pays.
        """
        keys: List[Hashable] = []
        checked = 0
        for row in self.dimension.scan():
            checked += 1
            if dimension_predicate.matches(row):
                keys.append(row[self.dimension_key])
        with self._lock:
            self.last_cost = LookupCost(rows_checked=checked)
        return keys

    def lookup(self, dimension_predicate: Predicate) -> BitVector:
        """Fact rows joining dimension rows that satisfy the predicate.

        The dimension scan produces the qualifying key IN-list; the
        encoded bitmap index on the fact's foreign key evaluates it
        with the usual logical reduction.
        """
        keys = self.join_keys(dimension_predicate)
        dimension_cost = self.last_cost
        if not keys:
            result = BitVector(len(self.fact))
            with self._lock:
                self.stats.record(dimension_cost)
            return result
        result = self.fact_index.lookup(
            InList(self.fact_column, keys)
        )
        cost = LookupCost(
            vectors_accessed=(
                self.fact_index.last_cost.vectors_accessed
            ),
            rows_checked=dimension_cost.rows_checked,
        )
        with self._lock:
            self.last_cost = cost
            self.stats.record(cost)
        return result

    def join_rows(
        self, dimension_predicate: Predicate
    ) -> List[Dict[str, Any]]:
        """Materialised star join: fact rows + their dimension row."""
        dim_by_key: Dict[Hashable, Dict[str, Any]] = {}
        for row in self.dimension.scan():
            if dimension_predicate.matches(row):
                dim_by_key[row[self.dimension_key]] = row
        vector = self.lookup(dimension_predicate)
        joined = []
        for row_id in vector.indices():
            fact_row = self.fact.row(int(row_id))
            dim_row = dim_by_key.get(fact_row[self.fact_column])
            if dim_row is None:
                continue
            combined = dict(fact_row)
            combined.update(
                {
                    f"{self.dimension.name}.{name}": value
                    for name, value in dim_row.items()
                }
            )
            joined.append(combined)
        return joined

    def nbytes(self) -> int:
        return self.fact_index.nbytes()

    def __repr__(self) -> str:
        return (
            f"BitmapJoinIndex({self.fact.name}.{self.fact_column} -> "
            f"{self.dimension.name}.{self.dimension_key})"
        )
