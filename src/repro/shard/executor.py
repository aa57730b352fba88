"""Partition-parallel query execution with deterministic merging.

Each partition is one unit of work: a worker thread plans and
evaluates the predicate against the partition's own catalog (so the
reduced retrieval expression uses the partition-local mapping), under
a *private* metrics registry installed via
:func:`repro.obs.metrics.use_registry` — concurrent partitions never
touch a shared counter.  The numpy word-packed AND/OR/popcount and
whole-column comparisons release the GIL, which is where thread
parallelism pays on multi-core hosts.

Merging is deterministic by construction, not by scheduling luck:
partition results are combined in partition-id order regardless of
completion order — result vectors by word-aligned concatenation,
costs by summation, per-partition metric deltas by
:func:`repro.obs.metrics.merge_metric_deltas`.  Running with one
worker or eight therefore produces bit-identical rows, counts, and
aggregated metrics (the property ``tests/test_shard.py`` pins down).

``execute_many`` is the batch API: all of a batch's predicates are
evaluated partition by partition, sharing one column-array cache per
partition, so the vector-scan fallback converts each column once.

Compiled-kernel and reduction reuse across partitions is free: the
reduction cache (:mod:`repro.boolean.reduction`) and the compile cache
(:mod:`repro.kernels.compiler`) are process-wide and thread-safe, so
when partitions are built over one *shared* mapping (identical codes),
the first partition to see a predicate shape pays Quine–McCluskey and
kernel compilation once and the other N-1 partitions hit the caches —
watch ``boolean.reduction_cache.hits`` and
``kernels.compile_cache.hits`` in the merged metrics.  Partition-local
mappings (the :class:`~repro.shard.index.PartitionedIndex` default)
produce different codes per partition and therefore different cache
keys; supply a shared-mapping factory to unlock the sharing.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.bitmap.bitvector import BitVector
from repro.errors import InvalidArgumentError, QueryTimeoutError
from repro.index.base import LookupCost
from repro.obs.metrics import (
    MetricsRegistry,
    MetricValue,
    get_registry,
    merge_metric_deltas,
    use_registry,
)
from repro.obs.trace import QueryTrace, StageTiming
from repro.query.executor import Executor, QueryResult
from repro.query.options import (
    DEFAULT_OPTIONS,
    QueryOptions,
    check_deadline,
    start_deadline,
)
from repro.query.predicates import Predicate
from repro.query.snapshot import bounded_rows, pinned_rows
from repro.shard.partition import Partition, PartitionedTable
from repro.shard.scan import ColumnArrayCache, try_vector_scan

if TYPE_CHECKING:
    from repro.shard.residency import ResidencyManager

#: Default worker-thread count (matches the default partition count).
DEFAULT_WORKERS = 4


@dataclass(slots=True)
class PartitionSlice:
    """What one partition contributed to one merged query."""

    partition_id: int
    rows: int
    cost: LookupCost
    metrics: Dict[str, MetricValue]
    wall_seconds: float
    used_scan: bool
    degraded: bool
    #: True when the fallback scan ran as whole-column numpy
    #: comparisons instead of the per-row Python loop.
    vector_scan: bool


@dataclass
class PartitionedQueryResult(QueryResult):
    """A merged query result plus its per-partition breakdown."""

    partitions: List[PartitionSlice] = field(default_factory=list)
    workers: int = 1


@dataclass(slots=True)
class _PartitionRecord:
    """Raw per-(partition, query) outcome before merging."""

    result: QueryResult
    wall_seconds: float
    vector_scan: bool


class ParallelExecutor:
    """Evaluates predicates over a :class:`PartitionedTable` in parallel.

    Parameters
    ----------
    table:
        The partitioned table; each partition's catalog must hold the
        indexes to use (see
        :class:`repro.shard.index.PartitionedIndex`, whose children
        self-register there).
    workers:
        Keyword-only default worker-thread count;
        ``QueryOptions.workers`` overrides it per call.  One worker executes partitions inline on the
        calling thread — the baseline the determinism tests compare
        against.
    registry:
        Keyword-only metrics registry receiving the merged counters;
        defaults to the calling thread's current registry at each call.
    residency:
        Keyword-only optional
        :class:`~repro.shard.residency.ResidencyManager`.  When set,
        every partition is acquired through it before evaluation
        (fault-in + LRU budget enforcement) and the streaming path
        prefetches the *next* partition's plane file while the current
        one evaluates — the out-of-core pipeline of
        ``docs/out_of_core.md``.
    """

    def __init__(
        self,
        table: PartitionedTable,
        *,
        workers: int = DEFAULT_WORKERS,
        registry: Optional[MetricsRegistry] = None,
        residency: Optional["ResidencyManager"] = None,
    ) -> None:
        if workers < 1:
            raise InvalidArgumentError(
                f"worker count must be >= 1, got {workers}"
            )
        self.table = table  # ebi: shared-readonly
        self.workers = workers  # ebi: shared-readonly
        self.registry = registry  # ebi: shared-readonly
        self.residency = residency  # ebi: shared-readonly

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self,
        predicate: Predicate,
        options: Optional[QueryOptions] = None,
    ) -> PartitionedQueryResult:
        """Evaluate one predicate across every partition and merge."""
        return self.execute_many([predicate], options)[0]

    def execute_many(
        self,
        predicates: Sequence[Predicate],
        options: Optional[QueryOptions] = None,
    ) -> List[PartitionedQueryResult]:
        """Evaluate a batch of predicates partition by partition.

        Every worker task covers *all* predicates for one partition,
        sharing a column-array cache across the batch; results merge
        per query in partition-id order.

        ``options`` selects the worker count, snapshot pin, timeout
        and prefetch.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        predicates = list(predicates)
        if not predicates:
            return []
        nworkers = self.workers if opts.workers is None else opts.workers
        trace = opts.trace
        deadline = start_deadline(opts)
        registry = self._registry()
        wall = time.perf_counter()
        cpu = time.process_time()

        partitions = self.table.partitions
        if nworkers == 1:
            # Streaming pipeline: while partition i evaluates on this
            # thread, a helper warms partition i+1's spilled plane
            # file (double buffering — fault-in I/O overlaps kernel
            # time instead of serialising with it).  A no-op without a
            # residency manager or when everything is resident.
            outcomes = []
            prefetcher: Optional[threading.Thread] = None
            for position, partition in enumerate(partitions):
                check_deadline(deadline, opts)
                prefetcher = (
                    self._start_prefetch(partitions, position + 1)
                    if opts.prefetch
                    else None
                )
                outcomes.append(
                    self._run_partition(
                        partition,
                        predicates,
                        trace,
                        snapshot_rows=opts.snapshot_rows,
                    )
                )
                if prefetcher is not None:
                    prefetcher.join()
        else:
            outcomes = self._run_threaded(
                partitions, predicates, trace, nworkers, opts, deadline
            )

        results = self._merge(
            predicates, partitions, outcomes, nworkers, trace
        )
        elapsed = time.perf_counter() - wall
        for result in results:
            result.wall_seconds = elapsed
            result.tenant = opts.tenant
        if trace:
            timing = StageTiming(
                name="execute",
                wall_seconds=elapsed,
                cpu_seconds=time.process_time() - cpu,
            )
            for result in results:
                if result.trace is not None:
                    result.trace.stages.append(timing)

        self._publish(registry, predicates, outcomes)
        return results

    def _run_threaded(
        self,
        partitions: Sequence[Partition],
        predicates: Sequence[Predicate],
        trace: bool,
        nworkers: int,
        opts: QueryOptions,
        deadline: Optional[float],
    ) -> List[Tuple[List["_PartitionRecord"], Dict[str, MetricValue]]]:
        """Fan partitions out to a thread pool, honouring the deadline.

        On timeout the pool is shut down without waiting (in-flight
        partitions are abandoned, queued ones cancelled) and
        :class:`~repro.errors.QueryTimeoutError` is raised — no partial
        result escapes.
        """
        pool = ThreadPoolExecutor(max_workers=nworkers)
        try:
            futures: List[Future[Any]] = [
                pool.submit(
                    self._run_partition,
                    partition,
                    predicates,
                    trace,
                    snapshot_rows=opts.snapshot_rows,
                )
                for partition in partitions
            ]
            outcomes = []
            for future in futures:
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                try:
                    outcomes.append(future.result(timeout=remaining))
                except FuturesTimeout:
                    raise QueryTimeoutError(
                        f"query exceeded its "
                        f"{opts.timeout_seconds}s deadline while "
                        f"awaiting partition results",
                        timeout_seconds=opts.timeout_seconds or 0.0,
                    ) from None
            return outcomes
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def explain(self, predicate: Predicate) -> str:
        """Partition-aware EXPLAIN: one plan per partition, no reads."""
        lines = [
            "PARTITIONED QUERY PLAN",
            f"  table: {self.table.name} "
            f"({len(self.table.partitions)} partitions, "
            f"workers={self.workers})",
            f"  predicate: {predicate}",
        ]
        for partition in self.table.partitions:
            executor = Executor(partition.catalog)
            plan = executor.planner.plan(partition.table, predicate)
            span = (
                f"rows {partition.offset}.."
                f"{partition.offset + len(partition.table)}"
            )
            lines.append(f"  partition {partition.id} [{span}):")
            lines.extend(
                "    " + line for line in plan.explain().splitlines()
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # per-partition work (runs on a worker thread)
    # ------------------------------------------------------------------
    def _start_prefetch(
        self,
        partitions: Sequence[Partition],
        position: int,
    ) -> Optional[threading.Thread]:
        """Warm the plane file of ``partitions[position]`` off-thread.

        Returns the helper thread (joined after the current partition
        finishes evaluating) or ``None`` when there is nothing to
        prefetch — no residency manager, or no next partition.
        """
        manager = self.residency
        if manager is None or position >= len(partitions):
            return None
        partition_id = partitions[position].id
        thread = threading.Thread(
            target=manager.prefetch,
            args=(partition_id,),
            name=f"ebi-prefetch-{partition_id}",
            daemon=True,
        )
        thread.start()
        return thread

    def _run_partition(
        self,
        partition: Partition,
        predicates: Sequence[Predicate],
        trace: bool,
        *,
        snapshot_rows: Optional[int] = None,
    ) -> Tuple[List[_PartitionRecord], Dict[str, MetricValue]]:
        # Out-of-core hook: fault the partition in (page-accounted)
        # and let the LRU budget spill colder ones before evaluating.
        manager = self.residency
        if manager is not None:
            manager.acquire(partition.id)
        return run_partition_batch(
            partition,
            predicates,
            trace,
            snapshot_rows=snapshot_rows,
        )

    @staticmethod
    def _vector_scan(
        partition: Partition,
        predicate: Predicate,
        arrays: ColumnArrayCache,
        registry: MetricsRegistry,
    ) -> Optional[QueryResult]:
        """Fallback scan as whole-column numpy work, when provably
        equivalent to the row-by-row reference scan."""
        # Counter order mirrors Executor.execute: queries before the
        # scope so per-query metric dicts match the classic path.
        vector = try_vector_scan(partition.table, predicate, arrays)
        if vector is None:
            return None
        limit = bounded_rows(partition.table)
        if len(vector) != limit:
            vector.resize(limit)
        registry.counter("query.queries").inc()
        scope = registry.scoped()
        rows_checked = partition.table.live_count()
        registry.counter("query.scans").inc()
        registry.counter("query.scan_rows_checked").inc(rows_checked)
        registry.counter("shard.vector_scan_rows").inc(rows_checked)
        result = QueryResult(
            vector=vector,
            cost=LookupCost(rows_checked=rows_checked),
            used_scan=True,
        )
        result.metrics = scope.finish()
        return result

    # ------------------------------------------------------------------
    # deterministic merging (partition-id order, always)
    # ------------------------------------------------------------------
    def _merge(
        self,
        predicates: Sequence[Predicate],
        partitions: Sequence[Partition],
        outcomes: Sequence[
            Tuple[List[_PartitionRecord], Dict[str, MetricValue]]
        ],
        nworkers: int,
        trace: bool,
    ) -> List[PartitionedQueryResult]:
        results: List[PartitionedQueryResult] = []
        for q, predicate in enumerate(predicates):
            slices: List[PartitionSlice] = []
            vectors: List[BitVector] = []
            cost = LookupCost()
            for partition, (records, _totals) in zip(
                partitions, outcomes
            ):
                record = records[q]
                part_result = record.result
                vectors.append(part_result.vector)
                cost.vectors_accessed += (
                    part_result.cost.vectors_accessed
                )
                cost.node_accesses += part_result.cost.node_accesses
                cost.rows_checked += part_result.cost.rows_checked
                slices.append(
                    PartitionSlice(
                        partition_id=partition.id,
                        rows=part_result.vector.count(),
                        cost=part_result.cost,
                        metrics=part_result.metrics,
                        wall_seconds=record.wall_seconds,
                        used_scan=part_result.used_scan,
                        degraded=part_result.degraded,
                        vector_scan=record.vector_scan,
                    )
                )
            merged = PartitionedQueryResult(
                vector=BitVector.concat(vectors),
                cost=cost,
                used_scan=any(s.used_scan for s in slices),
                degraded=any(s.degraded for s in slices),
                metrics=merge_metric_deltas(s.metrics for s in slices),
                partitions=slices,
                workers=nworkers,
            )
            if trace:
                merged.trace = self._merge_trace(
                    predicate, partitions, outcomes, q, merged
                )
            results.append(merged)
        return results

    def _merge_trace(
        self,
        predicate: Predicate,
        partitions: Sequence[Partition],
        outcomes: Sequence[
            Tuple[List[_PartitionRecord], Dict[str, MetricValue]]
        ],
        q: int,
        merged: PartitionedQueryResult,
    ) -> QueryTrace:
        plan_text = (
            f"PARTITIONED ({len(partitions)} partitions, "
            f"workers={merged.workers}) WHERE {predicate}"
        )
        trace = QueryTrace(plan_text=plan_text)
        trace.used_scan = merged.used_scan
        trace.degraded = merged.degraded
        trace.metrics = merged.metrics
        for partition, (records, _totals) in zip(partitions, outcomes):
            part_trace = records[q].result.trace
            if part_trace is None:
                continue
            for access in part_trace.accesses:
                access.partition = partition.id
                trace.accesses.append(access)
        return trace

    # ------------------------------------------------------------------
    def _publish(
        self,
        registry: MetricsRegistry,
        predicates: Sequence[Predicate],
        outcomes: Sequence[
            Tuple[List[_PartitionRecord], Dict[str, MetricValue]]
        ],
    ) -> None:
        """Fold the partition-private registries into the caller's.

        Integer (counter) totals are replayed as increments in
        partition order; float-valued entries (gauges, histogram
        extremes) are skipped — last-write/extreme semantics don't
        aggregate meaningfully across partitions.
        """
        totals = merge_metric_deltas(
            snapshot for _records, snapshot in outcomes
        )
        for name, value in totals.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            if name.endswith((".min", ".max")):
                continue
            registry.counter(name).inc(value)
        registry.counter("shard.batches").inc()
        registry.counter("shard.queries").inc(len(predicates))


def run_partition_batch(
    partition: Partition,
    predicates: Sequence[Predicate],
    trace: bool = False,
    *,
    snapshot_rows: Optional[int] = None,
) -> Tuple[List[_PartitionRecord], Dict[str, MetricValue]]:
    """Evaluate a predicate batch against one partition.

    The unit of work one worker thread (or the calling thread, with
    one worker) runs per partition.  Runs under a *private*
    metrics registry (returned as the snapshot half of the result) and
    a pinned row watermark; ``snapshot_rows`` is a caller-supplied pin
    in *global* row ids that clamps the partition to its slice of the
    first ``snapshot_rows`` rows.
    """
    registry = MetricsRegistry()
    records: List[_PartitionRecord] = []
    # Pin the partition's published-row watermark for the whole batch:
    # every predicate sees the same row universe even while a
    # concurrent ingester appends to the tail partition
    # (repro.query.snapshot).
    bound: Optional[int] = None
    if snapshot_rows is not None:
        published = partition.table.published_rows()
        bound = min(max(snapshot_rows - partition.offset, 0), published)
    with use_registry(registry), pinned_rows(partition.table, rows=bound):
        executor = Executor(partition.catalog)
        arrays = ColumnArrayCache(partition.table)
        for predicate in predicates:
            start = time.perf_counter()
            plan = executor.planner.plan(partition.table, predicate)
            result: Optional[QueryResult] = None
            vector_scan = False
            if plan.fallback_scan and not plan.degraded_columns:
                result = ParallelExecutor._vector_scan(
                    partition, predicate, arrays, registry
                )
                vector_scan = result is not None
            if result is None:
                result = executor.execute(plan, trace=trace)
            records.append(
                _PartitionRecord(
                    result=result,
                    wall_seconds=time.perf_counter() - start,
                    vector_scan=vector_scan,
                )
            )
    return records, registry.snapshot()
