"""Plan execution.

Executes a :class:`~repro.query.planner.Plan` by evaluating each leaf
through its chosen index and combining result bit vectors with the
predicate tree's Boolean structure.  Falls back to a table scan when
the planner said so.  The result carries both the selected rows and
the aggregate access cost, so benches can compare plans by the
paper's cost unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.errors import QueryError
from repro.index.base import LookupCost
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    QueryTrace,
    StageTimer,
    StageTiming,
    VectorAccess,
)
from repro.query.planner import AccessStep, Plan, Planner
from repro.query.snapshot import bounded_rows
from repro.query.predicates import (
    AndPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
)
from repro.table.catalog import Catalog
from repro.table.table import Table


@dataclass
class QueryResult:
    """Rows selected by a query plus its cost and observability data."""

    vector: BitVector
    cost: LookupCost = field(default_factory=LookupCost)
    used_scan: bool = False
    #: True when the scan happened because every supporting index
    #: failed fsck (see :mod:`repro.index.verify`) — accounting for
    #: graceful degradation rather than a missing index.
    degraded: bool = False
    #: Per-query metric delta (counters that moved while this query
    #: ran): evaluator vector reads, buffer-pool hits/misses, retries…
    #: Names are cataloged in ``docs/observability.md``.
    metrics: Dict[str, Union[int, float]] = field(default_factory=dict)
    #: Per-query trace, present when the query ran with ``trace=True``.
    trace: Optional[QueryTrace] = None
    #: True when the rows and cost came out of the database's result
    #: cache instead of being executed (``QueryOptions.use_cache``).
    cached: bool = False
    #: Tenant the query was accounted to, when one was supplied.
    tenant: Optional[str] = None
    #: Wall-clock seconds the call took end to end (0.0 when the
    #: entry point predates the serving tier and never timed itself).
    wall_seconds: float = 0.0

    def row_ids(self) -> np.ndarray:
        """Selected row ids: a fresh, ascending int64 array.

        The array shares no memory with :attr:`vector` (nor with a
        result-cache entry), so callers may write to it freely.
        """
        return self.vector.indices()

    def count(self) -> int:
        return self.vector.count()


class Executor:
    """Evaluates predicates against tables via planned index access.

    Parameters
    ----------
    catalog:
        Table/index registry the planner consults.
    registry:
        Optional metrics registry for per-query scoping; defaults to
        the process-wide registry
        (:func:`repro.obs.metrics.get_registry`), resolved at each
        query so a later :func:`~repro.obs.metrics.set_registry` takes
        effect.

    Example (doctest)::

        >>> from repro.index.encoded_bitmap import EncodedBitmapIndex
        >>> from repro.query.predicates import InList
        >>> from repro.table.catalog import Catalog
        >>> from repro.table.table import Table
        >>> table = Table("T", ["A"])
        >>> for value in ["a", "b", "c", "b", "a", "c"]:
        ...     _ = table.append({"A": value})
        >>> catalog = Catalog()
        >>> _ = catalog.register_table(table)
        >>> _ = catalog.register_index(EncodedBitmapIndex(table, "A"))
        >>> result = Executor(catalog).select(
        ...     table, InList("A", ["a", "b"]), trace=True
        ... )
        >>> result.row_ids()
        array([0, 1, 3, 4])
        >>> result.cost.vectors_accessed  # Theorem 2.1 mapping: XOR
        2
        >>> result.trace.vector_reads()
        2
    """

    def __init__(
        self,
        catalog: Catalog,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.catalog = catalog
        self.planner = Planner(catalog)
        self.registry = registry

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # ------------------------------------------------------------------
    def select(
        self,
        table: Table,
        predicate: Predicate,
        trace: bool = False,
    ) -> QueryResult:
        """Plan and execute a selection on one table.

        With ``trace=True`` the result carries a
        :class:`~repro.obs.trace.QueryTrace` including the planning
        stage's wall/CPU time.
        """
        wall = time.perf_counter()
        cpu = time.process_time()
        plan = self.planner.plan(table, predicate)
        plan_timing = StageTiming(
            name="plan",
            wall_seconds=time.perf_counter() - wall,
            cpu_seconds=time.process_time() - cpu,
        )
        result = self.execute(plan, trace=trace)
        if result.trace is not None:
            result.trace.stages.insert(0, plan_timing)
        return result

    def execute(
        self,
        plan: Plan,
        trace: bool = False,
    ) -> QueryResult:
        """Execute a prepared plan.

        Every execution is wrapped in a metrics scope: the counters
        that moved (evaluator reads, pool hits, retries, …) land in
        ``QueryResult.metrics`` as a per-query snapshot, while the
        process-lifetime totals keep accumulating in the registry.
        """
        registry = self._registry()
        registry.counter("query.queries").inc()
        scope = registry.scoped()
        trace_obj = (
            QueryTrace(plan_text=plan.describe()) if trace else None
        )
        with StageTimer(trace_obj, "execute"):
            if plan.fallback_scan:
                registry.counter("query.scans").inc()
                if plan.degraded_columns:
                    registry.counter("query.degraded_scans").inc()
                result = self._scan(plan.table, plan.predicate)
                result.degraded = bool(plan.degraded_columns)
                if trace_obj is not None:
                    trace_obj.used_scan = True
                    trace_obj.degraded = result.degraded
            else:
                lookup = {
                    id(step.predicate): step for step in plan.steps
                }
                cost = LookupCost()
                vector = self._evaluate(
                    plan.table, plan.predicate, lookup, cost, trace_obj
                )
                result = QueryResult(vector=vector, cost=cost)
        result.metrics = scope.finish()
        if trace_obj is not None:
            trace_obj.metrics = result.metrics
            result.trace = trace_obj
        return result

    # ------------------------------------------------------------------
    def _evaluate(
        self,
        table: Table,
        predicate: Predicate,
        lookup: Dict[int, Any],
        cost: LookupCost,
        trace: Optional[QueryTrace] = None,
    ) -> BitVector:
        if isinstance(predicate, AndPredicate):
            result = self._evaluate(
                table, predicate.operands[0], lookup, cost, trace
            )
            for operand in predicate.operands[1:]:
                result &= self._evaluate(
                    table, operand, lookup, cost, trace
                )
            return result
        if isinstance(predicate, OrPredicate):
            result = self._evaluate(
                table, predicate.operands[0], lookup, cost, trace
            )
            for operand in predicate.operands[1:]:
                result |= self._evaluate(
                    table, operand, lookup, cost, trace
                )
            return result
        if isinstance(predicate, NotPredicate):
            inner = self._evaluate(
                table, predicate.operand, lookup, cost, trace
            )
            result = ~inner
            for row_id in table.void_rows():
                # A row voided after the inner vector was sized
                # (concurrent ingest) lies beyond it; the snapshot
                # clamp in Index.lookup already excluded it.
                if row_id < len(result):
                    result[row_id] = False
            return result
        step = lookup.get(id(predicate))
        if step is None:
            raise QueryError(f"no access step for predicate {predicate}")
        if step.shared is None:
            vector = step.index.lookup(predicate)
        else:
            vector = step.index.lookup(predicate, shared=step.shared)
        step_cost = step.index.last_cost
        cost.vectors_accessed += step_cost.vectors_accessed
        cost.node_accesses += step_cost.node_accesses
        cost.rows_checked += step_cost.rows_checked
        if trace is not None:
            trace.accesses.append(_access_event(step, step_cost))
        return vector

    # ------------------------------------------------------------------
    # aggregate pushdown
    # ------------------------------------------------------------------
    def aggregate(
        self,
        table: Table,
        function: str,
        column: str,
        predicate: Optional[Predicate] = None,
    ) -> float:
        """Evaluate an aggregate, pushing it down to an index if one
        on ``column`` supports index-only evaluation.

        Supported functions: ``count``, ``sum``, ``avg``, ``median``.
        Falls back to a scan when no suitable index exists.
        """
        function = function.lower()
        if function not in ("count", "sum", "avg", "median"):
            raise QueryError(f"unsupported aggregate {function!r}")

        selection: Optional[BitVector] = None
        if predicate is not None:
            selection = self.select(table, predicate).vector

        index = self._aggregate_index(table, column)
        if index is not None:
            return self._aggregate_via_index(
                index, function, selection
            )
        return self._aggregate_via_scan(
            table, function, column, predicate
        )

    def _aggregate_index(self, table: Table, column: str):
        from repro.index.encoded_bitmap import EncodedBitmapIndex

        for index in self.catalog.indexes_on(table.name, column):
            if isinstance(index, EncodedBitmapIndex):
                return index
        return None

    def _aggregate_via_index(self, index, function, selection):
        from repro.aggregate.counts import count as agg_count
        from repro.aggregate.quantiles import median as agg_median
        from repro.aggregate.sums import (
            average_encoded,
            sum_encoded,
        )

        if function == "count":
            if selection is None:
                return float(agg_count(index))
            domain = index.mapping.domain()
            if not domain:
                return 0.0
            from repro.query.predicates import InList

            live = index.lookup(InList(index.column_name, domain))
            return float((live & selection).count())
        if function == "sum":
            return sum_encoded(index, selection)
        if function == "avg":
            return average_encoded(index, selection)
        return float(agg_median(index, selection))

    def _aggregate_via_scan(self, table, function, column, predicate):
        values = [
            row[column]
            for row in table.scan()
            if (predicate is None or predicate.matches(row))
            and row[column] is not None
        ]
        if function == "count":
            return float(len(values))
        if not values:
            if function == "sum":
                return 0.0
            raise QueryError(
                f"{function} over an empty selection"
            )
        if function == "sum":
            return float(sum(values))
        if function == "avg":
            return float(sum(values)) / len(values)
        ordered = sorted(values)
        return float(ordered[(len(ordered) - 1) // 2])

    def _scan(self, table: Table, predicate: Predicate) -> QueryResult:
        # Honour a pinned snapshot (repro.query.snapshot) so a scan
        # inside an execute_many batch covers the same row universe as
        # the index lookups next to it.
        limit = bounded_rows(table)
        vector = BitVector(limit)
        cost = LookupCost()
        for row_id in range(limit):
            if table.is_void(row_id):
                continue
            cost.rows_checked += 1
            if predicate.matches(table.row(row_id)):
                vector[row_id] = True
        self._registry().counter("query.scan_rows_checked").inc(
            cost.rows_checked
        )
        return QueryResult(vector=vector, cost=cost, used_scan=True)


def _access_event(step: AccessStep, step_cost: LookupCost) -> VectorAccess:
    """Build the trace record for one executed access step.

    Reads the ``last_*`` trace attributes the index just filled in
    (reduced expression, distinct vectors touched, reduction-cache
    hit) and derives, per vector, the reduced-DNF terms it appears in
    — the "why" of every read.
    """
    index = step.index
    reduction = getattr(index, "last_reduction", None)
    roles: Dict[int, List[str]] = {}
    reduced_text: Optional[str] = None
    if reduction is not None:
        reduced_text = reduction.to_string()
        for term in reduction.terms:
            text = term.to_string()
            for i in term.variables():
                roles.setdefault(i, []).append(text)
    return VectorAccess(
        index_kind=getattr(index, "kind", "abstract"),
        column=index.column_name,
        predicate=str(step.predicate),
        vectors=tuple(getattr(index, "last_touched", ())),
        width=getattr(index, "width", None),
        reduced=reduced_text,
        cache_hit=getattr(index, "last_cache_hit", None),
        vectors_accessed=step_cost.vectors_accessed,
        node_accesses=step_cost.node_accesses,
        rows_checked=step_cost.rows_checked,
        estimated_cost=step.estimated_cost,
        roles={i: tuple(terms) for i, terms in roles.items()},
    )
