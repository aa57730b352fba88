"""Paged B+tree index — the OLTP comparator of Section 2.1.

A real B+tree: internal nodes route by key, leaves hold value-lists
(lists of tuple-ids) and are chained for range scans.  Every node
occupies one simulated page, so the index's space is
``page_count * page_size`` and every traversal step is a counted node
access — giving the paper's space formula ``~1.44 n / M * p`` and the
``O(n log_M m)`` build behaviour something measurable to land on.

With the default 4 KiB page and 8-byte routing entries the fanout is
M = 512, the exact parameters of the paper's break-even analysis
(bitmaps win space iff m < 11.52 p / M = 93).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

from repro.bitmap.bitvector import BitVector
from repro.errors import UnsupportedPredicateError
from repro.index.base import Index, LookupCost
from repro.obs.metrics import MetricsRegistry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.storage.pager import Pager
from repro.storage.stats import IOStatistics
from repro.table.table import Table

#: Bytes per routing entry (key + child pointer), per the paper's
#: Section 2.1 parameters (page 4K, degree 512).
ROUTING_ENTRY_BYTES = 8
#: Bytes per leaf entry (key + tuple-id).
LEAF_ENTRY_BYTES = 8


def _leaf_entry_count(node: "_Node") -> int:
    """Total (key, tuple-id) pairs stored in a leaf."""
    return sum(len(entry) for entry in node.entries)


class _Node:
    """One B+tree node, pinned to a simulated page."""

    __slots__ = ("page_id", "is_leaf", "keys", "children", "entries", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: List[Any] = []
        # internal: child page ids (len(keys) + 1)
        self.children: List[int] = []
        # leaf: row-id lists parallel to keys
        self.entries: List[List[int]] = []
        self.next_leaf: Optional[int] = None


class BPlusTreeIndex(Index):
    """B+tree over one column, with value-list leaves."""

    kind = "btree"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        registry: Optional[MetricsRegistry] = None,
        page_size: int = PAGE_SIZE_DEFAULT,
        fanout: Optional[int] = None,
        stats_io: Optional[IOStatistics] = None,
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        self.page_size = page_size
        self.fanout = (
            fanout
            if fanout is not None
            else max(4, page_size // ROUTING_ENTRY_BYTES)
        )
        self.leaf_capacity = max(4, page_size // LEAF_ENTRY_BYTES)
        self.pager = Pager(page_size=page_size, stats=stats_io)
        self._nodes: Dict[int, _Node] = {}
        self._root_id = self._new_node(is_leaf=True).page_id
        self._height = 1
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        for row_id in range(len(self.table)):
            if row_id in void:
                continue
            value = column[row_id]
            if value is None:
                continue
            self._insert(value, row_id)

    def _new_node(self, is_leaf: bool) -> _Node:
        page = self.pager.allocate()
        node = _Node(page.page_id, is_leaf)
        self._nodes[page.page_id] = node
        return node

    def _fetch(self, page_id: int, cost: Optional[LookupCost]) -> _Node:
        # The private pager is shared by every worker thread running a
        # lookup on this index: its physical read mutates the page
        # image and the I/O counters, so it runs under the index lock.
        # The pager is a simulated in-memory disk — holding the lock
        # across its "I/O" costs memory-copy time only (EBI303 is
        # suppressed for the same reason as in the buffer pool).
        with self._lock:
            self.pager.read(page_id)  # ebilint: disable=EBI303
        if cost is not None:
            cost.node_accesses += 1
        return self._nodes[page_id]

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def _insert(self, key: Any, row_id: int) -> None:
        split = self._insert_into(self._root_id, key, row_id)
        if split is not None:
            sep_key, right_id = split
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root_id, right_id]
            self._root_id = new_root.page_id
            self._height += 1

    def _insert_into(
        self, page_id: int, key: Any, row_id: int
    ) -> Optional[Tuple[Any, int]]:
        node = self._nodes[page_id]
        if node.is_leaf:
            return self._insert_leaf(node, key, row_id)
        pos = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[pos], key, row_id)
        if split is None:
            return None
        sep_key, right_id = split
        node.keys.insert(pos, sep_key)
        node.children.insert(pos + 1, right_id)
        if len(node.children) <= self.fanout:
            return None
        return self._split_internal(node)

    def _insert_leaf(
        self, node: _Node, key: Any, row_id: int
    ) -> Optional[Tuple[Any, int]]:
        pos = bisect.bisect_left(node.keys, key)
        if pos < len(node.keys) and node.keys[pos] == key:
            bisect.insort(node.entries[pos], row_id)
        else:
            node.keys.insert(pos, key)
            node.entries.insert(pos, [row_id])
        # A leaf entry is one (key, tuple-id) pair of 8 bytes — the
        # space unit behind the paper's 1.44 n/M * p estimate.  A leaf
        # holding a single oversized value-list cannot split; its
        # overflow is charged in nbytes().
        if (
            _leaf_entry_count(node) <= self.leaf_capacity
            or len(node.keys) < 2
        ):
            return None
        return self._split_leaf(node)

    def _split_leaf(self, node: _Node) -> Tuple[Any, int]:
        # Split at the key boundary closest to half the entry mass.
        target = _leaf_entry_count(node) // 2
        running = 0
        mid = len(node.keys) // 2
        for i, entry in enumerate(node.entries):
            running += len(entry)
            if running >= target:
                mid = max(1, min(i + 1, len(node.keys) - 1))
                break
        right = self._new_node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.entries = node.entries[mid:]
        node.keys = node.keys[:mid]
        node.entries = node.entries[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right.page_id
        return right.keys[0], right.page_id

    def _split_internal(self, node: _Node) -> Tuple[Any, int]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = self._new_node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right.page_id

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _descend_to_leaf(self, key: Any, cost: LookupCost) -> _Node:
        node = self._fetch(self._root_id, cost)
        while not node.is_leaf:
            pos = bisect.bisect_right(node.keys, key)
            node = self._fetch(node.children[pos], cost)
        return node

    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        nbits = self._row_count()
        result = BitVector(nbits)
        if isinstance(predicate, Equals):
            for row_id in self._search_eq(predicate.value, cost):
                result[row_id] = True
            return result
        if isinstance(predicate, InList):
            for value in predicate.values:
                for row_id in self._search_eq(value, cost):
                    result[row_id] = True
            return result
        if isinstance(predicate, Range):
            for row_id in self._search_range(predicate, cost):
                result[row_id] = True
            return result
        if isinstance(predicate, IsNull):
            # B-trees do not index NULLs; fall back to a column scan.
            column = self.table.column(self.column_name)
            void = self.table.void_rows()
            for row_id in range(nbits):
                if row_id not in void and column[row_id] is None:
                    result[row_id] = True
            cost.rows_checked += nbits
            return result
        raise UnsupportedPredicateError(f"unsupported predicate {predicate}")

    def _search_eq(self, key: Any, cost: LookupCost) -> List[int]:
        leaf = self._descend_to_leaf(key, cost)
        pos = bisect.bisect_left(leaf.keys, key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return list(leaf.entries[pos])
        return []

    def _search_range(
        self, predicate: Range, cost: LookupCost
    ) -> List[int]:
        rows: List[int] = []
        if predicate.low is not None:
            leaf = self._descend_to_leaf(predicate.low, cost)
        else:
            leaf = self._leftmost_leaf(cost)
        while leaf is not None:
            for key, entry in zip(leaf.keys, leaf.entries):
                if predicate.matches({predicate.column: key}):
                    rows.extend(entry)
                elif predicate.high is not None and key > predicate.high:
                    return rows
            if leaf.next_leaf is None:
                break
            leaf = self._fetch(leaf.next_leaf, cost)
        return rows

    def _leftmost_leaf(self, cost: LookupCost) -> _Node:
        node = self._fetch(self._root_id, cost)
        while not node.is_leaf:
            node = self._fetch(node.children[0], cost)
        return node

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self._height

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def nbytes(self) -> int:
        """Space charge: one page per node plus leaf overflow pages.

        A leaf whose value-lists exceed one page spills the excess
        into overflow pages; this keeps the measure aligned with the
        paper's per-tuple leaf cost while still charging whole pages.
        """
        overflow_pages = 0
        for node in self._nodes.values():
            if not node.is_leaf:
                continue
            entry_bytes = _leaf_entry_count(node) * LEAF_ENTRY_BYTES
            if entry_bytes > self.page_size:
                extra = entry_bytes - self.page_size
                overflow_pages += -(-extra // self.page_size)
        return (self.node_count + overflow_pages) * self.page_size

    def keys(self) -> List[Any]:
        """All keys in order (leaf chain walk, uncounted)."""
        result: List[Any] = []
        node = self._nodes[self._root_id]
        while not node.is_leaf:
            node = self._nodes[node.children[0]]
        while True:
            result.extend(node.keys)
            if node.next_leaf is None:
                return result
            node = self._nodes[node.next_leaf]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        value = row.get(self.column_name)
        if value is not None:
            self._insert(value, row_id)
        self.stats.maintenance_ops += self._height

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        if old is not None:
            self._remove(old, row_id)
        if new is not None:
            self._insert(new, row_id)
        self.stats.maintenance_ops += 2 * self._height

    def on_delete(self, row_id: int) -> None:
        value = self.table.column(self.column_name)[row_id]
        if value is not None:
            self._remove(value, row_id)
        self.stats.maintenance_ops += self._height

    def _remove(self, key: Any, row_id: int) -> None:
        """Remove one (key, row) pair; no rebalancing (DW append-mostly)."""
        node = self._nodes[self._root_id]
        while not node.is_leaf:
            pos = bisect.bisect_right(node.keys, key)
            node = self._nodes[node.children[pos]]
        pos = bisect.bisect_left(node.keys, key)
        if pos < len(node.keys) and node.keys[pos] == key:
            entry = node.entries[pos]
            if row_id in entry:
                entry.remove(row_id)
