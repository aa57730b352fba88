"""Group-set index over multiple attributes (Section 4 of the paper).

A group-set index serves GROUP BY: it must select the rows of any
combination of grouping values.  Simple bitmaps need one vector per
combination (the paper's example: cardinalities 100 x 200 x 500 give
10^7 vectors); the encoded construction keeps one encoded bitmap
index per attribute and evaluates a combination as the AND of the
per-attribute retrieval expressions — ``ceil(log2 100) +
ceil(log2 200) + ceil(log2 500) = 7 + 8 + 9 = 24`` vectors in total
(the paper rounds its example to 20).

With hierarchy encodings on the member indexes, group sets over
hierarchy levels are computed at run time — the dynamic group-set
capability Section 4 highlights.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bitmap.bitvector import BitVector
from repro.encoding.mapping import MappingTable
from repro.errors import IndexBuildError
from repro.index.base import (
    IndexStatistics,
    LookupCost,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Equals, InList
from repro.table.table import Table


class GroupSetIndex:
    """Encoded bitmap indexes over the grouping attributes.

    Parameters
    ----------
    table:
        The fact table.
    column_names:
        Grouping attributes, in GROUP BY order.
    encodings:
        Optional per-column :class:`MappingTable` overrides (e.g.
        hierarchy encodings).
    """

    kind = "group-set"

    def __init__(
        self,
        table: Table,
        column_names: Sequence[str],
        *,
        encodings: Optional[Dict[str, MappingTable]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not column_names:
            raise IndexBuildError("group-set index needs >= 1 column")
        self.table = table
        self.column_names = list(column_names)
        encodings = encodings or {}
        self.members: Dict[str, EncodedBitmapIndex] = {
            name: EncodedBitmapIndex(
                table,
                name,
                encoding=encodings.get(name),
                registry=registry,
            )
            for name in self.column_names
        }
        self.stats = IndexStatistics()
        self.last_cost = LookupCost()

    # ------------------------------------------------------------------
    @property
    def vector_count(self) -> int:
        """Total bitmap vectors kept — sum of ceil(log2 m_i)."""
        return sum(index.width for index in self.members.values())

    @staticmethod
    def simple_vector_count(cardinalities: Sequence[int]) -> int:
        """Vectors a simple group-set bitmap index would need.

        One per combination: the product of the cardinalities — the
        paper's 10^7 example.
        """
        product = 1
        for m in cardinalities:
            product *= m
        return product

    def nbytes(self) -> int:
        return sum(index.nbytes() for index in self.members.values())

    # ------------------------------------------------------------------
    def group_vector(self, combination: Dict[str, Any]) -> BitVector:
        """Rows matching one grouping combination (AND of members)."""
        cost = LookupCost()
        result: Optional[BitVector] = None
        for name, value in combination.items():
            index = self.members[name]
            vector = index.lookup(Equals(name, value))
            cost.vectors_accessed += index.last_cost.vectors_accessed
            result = vector if result is None else (result & vector)
        if result is None:
            result = BitVector(len(self.table))
        self.last_cost = cost
        self.stats.record(cost)
        return result

    def groups(self) -> Iterator[Tuple[Tuple[Any, ...], BitVector]]:
        """Enumerate non-empty groups present in the data.

        Scans once to find the occurring combinations (the paper's
        density point: only ~10% of the cross product may be
        meaningful), then yields each with its row vector.
        """
        occurring: Dict[Tuple[Any, ...], List[int]] = {}
        columns = [self.table.column(name) for name in self.column_names]
        void = self.table.void_rows()
        for row_id in range(len(self.table)):
            if row_id in void:
                continue
            key = tuple(column[row_id] for column in columns)
            occurring.setdefault(key, []).append(row_id)
        nbits = len(self.table)
        for key in sorted(occurring, key=str):
            yield key, BitVector.from_indices(occurring[key], nbits)

    def group_by(
        self, aggregate_column: Optional[str] = None
    ) -> Dict[Tuple[Any, ...], float]:
        """COUNT(*) (or SUM(aggregate_column)) per group."""
        results: Dict[Tuple[Any, ...], float] = {}
        aggregate = (
            self.table.column(aggregate_column)
            if aggregate_column is not None
            else None
        )
        for key, vector in self.groups():
            if aggregate is None:
                results[key] = float(vector.count())
            else:
                total = 0.0
                for row_id in vector.indices():
                    value = aggregate[int(row_id)]
                    if value is not None:
                        total += value
                results[key] = total
        return results

    def rollup_group_by(
        self,
        column_name: str,
        hierarchy,
        level: str,
        aggregate_column: Optional[str] = None,
    ) -> Dict[Any, float]:
        """GROUP BY a *hierarchy level* computed at run time.

        Section 4: "if hierarchy encoding is applied, groupset indexes
        can be dynamically calculated at run-time".  For each element
        of ``level`` the member IN-list selects rows through the
        (ideally hierarchy-encoded) member index; COUNT(*) or
        SUM(aggregate_column) is computed per element without any
        precomputed group-set.

        With m:N hierarchies an element's groups may overlap (the
        paper's branches 3 and 4 belong to companies a *and* d), so
        the per-element results may sum to more than the table total.
        """
        from repro.query.predicates import InList

        index = self.members[column_name]
        aggregate = (
            self.table.column(aggregate_column)
            if aggregate_column is not None
            else None
        )
        results: Dict[Any, float] = {}
        for element in hierarchy.elements(level):
            members = sorted(
                hierarchy.base_members(level, element), key=str
            )
            vector = index.lookup(InList(column_name, members))
            if aggregate is None:
                results[element] = float(vector.count())
            else:
                total = 0.0
                for row_id in vector.indices():
                    value = aggregate[int(row_id)]
                    if value is not None:
                        total += value
                results[element] = total
        return results

    def __repr__(self) -> str:
        return (
            f"GroupSetIndex(columns={self.column_names}, "
            f"vectors={self.vector_count})"
        )
