"""A partitioned index: one child index per row-range partition.

``PartitionedIndex`` conforms to :class:`repro.index.base.Index`, so a
catalog/planner that knows nothing about partitioning can still pick
it and call ``lookup``.  Internally it fans each lookup out to the
per-partition child indexes (built by a caller-supplied factory —
encoded bitmap by default) and concatenates the word-aligned partition
result vectors.

The children are also registered in each partition's own catalog, so
the partition-parallel executor can plan *per partition* and the
partition tables notify their child index directly on appends,
updates and deletes — the global index needs no maintenance hooks of
its own.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence, cast

from repro.bitmap.bitvector import BitVector
from repro.index.base import Index, LookupCost
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.obs.metrics import get_registry
from repro.query.predicates import Predicate
from repro.shard.partition import PartitionedTable
from repro.table.table import Table

#: Builds one child index for a partition table.
IndexFactory = Callable[[Table, str], Index]


def _default_factory(table: Table, column_name: str) -> Index:
    return EncodedBitmapIndex(table, column_name)


class PartitionedIndex(Index):
    """Per-partition child indexes behind the common ``Index`` surface.

    Parameters
    ----------
    table, column_name:
        The partitioned table and the indexed column.
    factory:
        Keyword-only; builds each partition's child index from
        ``(partition_table, column_name)``.  Defaults to a plain
        :class:`~repro.index.encoded_bitmap.EncodedBitmapIndex` —
        note each child derives its mapping from the *partition's*
        local domain, so ``k`` can differ between partitions.
    """

    kind = "partitioned"

    _degraded_flag: bool

    def __init__(
        self,
        table: PartitionedTable,
        column_name: str,
        *,
        factory: Optional[IndexFactory] = None,
    ) -> None:
        # The base class only reads the Table surface PartitionedTable
        # duck-types (void_rows/column/len), hence the cast.
        super().__init__(cast(Table, table), column_name)
        self.partitioned_table = table
        build = factory if factory is not None else _default_factory
        self._children: List[Index] = []
        for partition in table.partitions:
            child = build(partition.table, column_name)
            partition.catalog.register_index(child)
            self._children.append(child)

    # ------------------------------------------------------------------
    @property
    def children(self) -> List[Index]:
        return list(self._children)

    def child(self, partition_id: int) -> Index:
        return self._children[partition_id]

    # ------------------------------------------------------------------
    # degraded status aggregates over the children: one failed
    # partition degrades the whole index (the planner must not trust a
    # partially wrong answer), but fsck/repair work per child.
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        flag = getattr(self, "_degraded_flag", False)
        children = getattr(self, "_children", ())
        return bool(flag) or any(child.degraded for child in children)

    @degraded.setter
    def degraded(self, value: bool) -> None:
        self._degraded_flag = bool(value)

    # ------------------------------------------------------------------
    def lookup(self, predicate: Predicate) -> BitVector:
        """Fan the lookup out to every child and concatenate.

        Child costs (vectors accessed, rows checked) sum into
        ``last_cost``; the merged vector is word-aligned
        concatenation, so no bits are shifted.
        """
        with self._lock:
            self.last_touched = ()
            self.last_reduction = None
            self.last_cache_hit = None
        cost = LookupCost()
        vectors: List[BitVector] = []
        # Children take their own locks (and publish their own
        # metrics), so the fan-out runs outside this index's lock.
        for child in self._children:
            vectors.append(child.lookup(predicate))
            child_cost = child.last_cost
            cost.vectors_accessed += child_cost.vectors_accessed
            cost.node_accesses += child_cost.node_accesses
            cost.rows_checked += child_cost.rows_checked
        result = BitVector.concat(vectors)
        with self._lock:
            self.last_cost = cost
            self.stats.record(cost)
        # The children already published the per-lookup index.*
        # counters; only the fan-out itself is new information.
        get_registry().counter("shard.index_lookups").inc()
        return result

    # ------------------------------------------------------------------
    def supports(self, predicate: Predicate) -> bool:
        return all(
            child.supports(predicate) for child in self._children
        )

    def nbytes(self) -> int:
        return sum(child.nbytes() for child in self._children)

    def explain_predicate(self, predicate: Predicate) -> Optional[object]:
        """Representative reduction (from the first child) for EXPLAIN;
        per-partition detail comes from
        :meth:`repro.shard.executor.ParallelExecutor.explain`."""
        explain = getattr(self._children[0], "explain_predicate", None)
        if explain is None:
            return None
        return explain(predicate)

    @property
    def width(self) -> Optional[int]:
        """Max child width ``k`` (children may disagree — local domains)."""
        widths = [
            getattr(child, "width", None) for child in self._children
        ]
        known = [w for w in widths if isinstance(w, int)]
        return max(known) if known else None

    # ------------------------------------------------------------------
    # maintenance: partition tables notify the children directly, so
    # the global-level hooks are deliberate no-ops.
    # ------------------------------------------------------------------
    def on_append_rows(
        self, first_row_id: int, columns: Mapping[str, Sequence[Any]]
    ) -> None:
        return None

    def on_update(
        self, row_id: int, column_name: str, old: Any, new: Any
    ) -> None:
        return None

    def on_delete(self, row_id: int) -> None:
        return None
