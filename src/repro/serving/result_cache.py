"""Result cache keyed on *reduced* retrieval expressions.

The reduction layer already proves that many syntactically different
predicates retrieve the same rows: every leaf reduces to a set of
matched codes over the column's mapping, and the mapping is bijective,
so *the set of matched domain values* identifies the retrieval
function exactly (Section 2.1's ``f_a``, extended over value sets).
This cache canonicalises predicates the same way — each leaf becomes
its sorted matched-value set over the index mapping's domain plus a
null-match flag — so ``Equals("c", "a") OR Equals("c", "b")``,
``InList("c", ["b", "a"])`` and a ``Range`` spanning exactly
``{a, b}`` all share one cache entry.

A key binds ``(table, data epoch, published watermark, canonical
expression)``.  The epoch is the database's per-table mutation
counter, bumped by every mutation path (append / update / delete /
compact / reorder and index DDL), so any write moves subsequent
queries to fresh keys and stale entries age out of the LRU; the
watermark additionally separates snapshot universes within one epoch.
Entries store the merged vector, cost and flags — everything a
:class:`~repro.query.executor.QueryResult` needs to be reconstructed
bit-identically (rows *and* ``c_e``), which
``tests/test_serving.py`` proves across all five mutation paths.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, List, Optional, Tuple

from repro.cache import LRUCache
from repro.errors import InvalidArgumentError
from repro.index.base import LookupCost
from repro.query.executor import QueryResult
from repro.query.predicates import (
    AndPredicate,
    IsNull,
    NotPredicate,
    OrPredicate,
    Predicate,
)

#: Default entry budget: result vectors are word-packed and cheap, so
#: a serving tier can afford a deep cache.
DEFAULT_CAPACITY = 256

CacheKey = Tuple[Hashable, ...]


def _sort_token(value: Any) -> Tuple[str, str]:
    """Total order over mixed-type domain values."""
    return (type(value).__name__, repr(value))


def _domain_for(
    catalog: Any, table_name: str, column: str
) -> Optional[List[Any]]:
    """The union of mapping domains the column's indexes know.

    Every partition child contributes its partition-local domain.
    ``None`` when no index on the column exposes a mapping — the
    caller falls back to the structural key.
    """
    values: List[Any] = []
    seen = set()
    found = False
    for index in catalog.indexes_on(table_name, column):
        for child in index.children:
            mapping = getattr(child, "mapping", None)
            if mapping is None or not hasattr(mapping, "domain"):
                continue
            found = True
            for value in mapping.domain():
                if value not in seen:
                    seen.add(value)
                    values.append(value)
    return values if found else None


def _canonical_leaf(
    predicate: Predicate, catalog: Any, table_name: str
) -> Hashable:
    columns = predicate.columns()
    if len(columns) != 1:
        return ("structural", predicate)
    (column,) = columns
    domain = _domain_for(catalog, table_name, column)
    if domain is None:
        return ("structural", predicate)
    matched: List[Any] = []
    for value in domain:
        try:
            if predicate.matches({column: value}):
                matched.append(value)
        except TypeError:
            # Mixed-type comparison (e.g. a Range over a column whose
            # partition-union domain spans types): that value cannot
            # match.
            continue
    matches_null = isinstance(predicate, IsNull)
    return (
        "leaf",
        column,
        tuple(sorted(matched, key=_sort_token)),
        matches_null,
    )


def _merge_same_column(
    children: List[Hashable], *, union: bool
) -> Optional[Hashable]:
    """Collapse AND/OR over same-column leaves into one leaf.

    ``Equals OR Equals`` unions the matched sets (so it keys like the
    equivalent ``InList``); AND intersects.  Returns ``None`` when the
    children are not all value-set leaves on one column — the caller
    keeps the structural frozenset form.
    """
    if not children:
        return None
    if len(children) == 1:
        # AND/OR of a single operand is that operand.
        return children[0]
    leaves = []
    for child in children:
        if not (isinstance(child, tuple) and child and child[0] == "leaf"):
            return None
        leaves.append(child)
    column = leaves[0][1]
    if any(leaf[1] != column for leaf in leaves[1:]):
        return None
    sets = [set(leaf[2]) for leaf in leaves]
    nulls = [leaf[3] for leaf in leaves]
    if union:
        merged = set().union(*sets)
        matches_null = any(nulls)
    else:
        merged = set.intersection(*sets)
        matches_null = all(nulls)
    return (
        "leaf",
        column,
        tuple(sorted(merged, key=_sort_token)),
        matches_null,
    )


def canonical_expression(
    predicate: Predicate, catalog: Any, table_name: str
) -> Hashable:
    """The predicate's retrieval-equivalence class, as a hashable key.

    AND/OR collapse to *frozensets* of child keys (commutative,
    idempotent — ``a AND b`` and ``b AND a AND a`` share an entry);
    NOT wraps its child; leaves canonicalise to matched-value sets
    (module docstring).  Predicates the canonicaliser cannot decompose
    fall back to their own (frozen, hashable) structure — correct,
    merely less sharing.
    """
    if isinstance(predicate, (AndPredicate, OrPredicate)):
        union = isinstance(predicate, OrPredicate)
        children = [
            canonical_expression(op, catalog, table_name)
            for op in predicate.operands
        ]
        merged = _merge_same_column(children, union=union)
        if merged is not None:
            return merged
        return ("or" if union else "and", frozenset(children))
    if isinstance(predicate, NotPredicate):
        return (
            "not",
            canonical_expression(predicate.operand, catalog, table_name),
        )
    return _canonical_leaf(predicate, catalog, table_name)


def cache_key(
    catalog: Any,
    table_name: str,
    predicate: Predicate,
    *,
    epoch: int,
    published: int,
) -> Optional[CacheKey]:
    """The full cache key, or ``None`` when the predicate cannot be
    hashed at all (an unhashable custom predicate type)."""
    try:
        expr = canonical_expression(predicate, catalog, table_name)
        hash(expr)
    except TypeError:
        return None
    return (table_name, epoch, published, expr)


class _Entry:
    """Frozen copy of a result's cache-relevant state."""

    __slots__ = ("words", "nbits", "cost", "used_scan", "degraded")

    def __init__(self, result: QueryResult) -> None:
        self.words = result.vector.words.copy()
        self.nbits = len(result.vector)
        self.cost = LookupCost(
            vectors_accessed=result.cost.vectors_accessed,
            node_accesses=result.cost.node_accesses,
            rows_checked=result.cost.rows_checked,
        )
        self.used_scan = result.used_scan
        self.degraded = result.degraded


class ResultCache:
    """Thread-safe LRU of canonicalised query results.

    Parameters (keyword-only)
    -------------------------
    capacity:
        Maximum entries (LRU eviction beyond it).
    metrics_prefix:
        Metrics namespace; hit/miss/eviction counters publish to the
        calling thread's registry as ``<prefix>.hits`` etc.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        metrics_prefix: str = "serving.result_cache",
    ) -> None:
        if capacity < 1:
            raise InvalidArgumentError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self._entries: LRUCache[CacheKey, _Entry] = LRUCache(
            capacity, metrics_prefix=metrics_prefix
        )
        self._lock = threading.Lock()
        #: Monotonic fill counter, exposed for stampede accounting.
        self._fills = 0

    # ------------------------------------------------------------------
    def lookup(self, key: CacheKey) -> Optional[QueryResult]:
        """A fresh :class:`QueryResult` for ``key``, or ``None``.

        Every hit materialises its own vector copy — callers may
        mutate result vectors in place, and a shared copy would let
        one caller corrupt another's answer.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        from repro.bitmap.bitvector import BitVector

        vector = BitVector(entry.nbits)
        vector.words[:] = entry.words
        return QueryResult(
            vector=vector,
            cost=LookupCost(
                vectors_accessed=entry.cost.vectors_accessed,
                node_accesses=entry.cost.node_accesses,
                rows_checked=entry.cost.rows_checked,
            ),
            used_scan=entry.used_scan,
            degraded=entry.degraded,
            cached=True,
        )

    def store(self, key: CacheKey, result: QueryResult) -> None:
        """Freeze ``result`` under ``key`` (latest write wins)."""
        entry = _Entry(result)
        with self._lock:
            self._fills += 1
        self._entries.put(key, entry)

    def fills(self) -> int:
        with self._lock:
            return self._fills

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses


def results_identical(
    left: QueryResult, right: QueryResult
) -> bool:
    """Bit-identity check the serving tests and bench assert on:
    same rows (word arrays compare equal) *and* same ``c_e``."""
    return bool(
        len(left.vector) == len(right.vector)
        and left.vector.words.tobytes() == right.vector.words.tobytes()
        and left.cost.vectors_accessed == right.cost.vectors_accessed
    )


__all__ = [
    "DEFAULT_CAPACITY",
    "ResultCache",
    "cache_key",
    "canonical_expression",
    "results_identical",
]
