"""Partition-parallel query execution with deterministic merging.

A batch (``execute_many``) runs in two steps.

1. **Plan once, on the calling thread.**  Each predicate is planned on
   its *leader*, the first partition whose plan uses an index.  Every
   encoded leaf of that plan then derives its retrieval function once
   (:meth:`~repro.index.encoded_bitmap.EncodedBitmapIndex.share_function`:
   one ``predicate_values``, one reduction, one compile), because the
   paper derives it from the mapping table alone (Section 2).  The
   counters this moves are the predicate's, whatever the worker count.
2. **Evaluate per partition.**  Each partition is one unit of work on
   a worker thread, under a *private* metrics registry installed via
   :func:`repro.obs.metrics.use_registry`, so concurrent partitions
   never touch a shared counter.  A partition *joins* the shared plan
   (:meth:`~repro.query.planner.Planner.rebind`) when its step columns
   have no degraded index and one serving index each, of the leader's
   class, with void/NULL modes and a mapping equal to the leader's
   (fingerprint first, then ``==``, memoised per pair of mapping
   generations: :meth:`~repro.encoding.mapping.MappingTable.same_as`).
   Its steps are rebound to its own indexes, which evaluate the shared
   function and kernel over their own planes and delta.  Each lookup
   checks the mapping again under the index lock with the data
   version, so a mapping that moved after planning derives its own
   function, as an unshared lookup does.  Partitions that do not join
   (diverged mappings, degraded indexes, scan fallbacks) plan
   themselves, as before.  The numpy word-packed AND/OR/popcount and
   whole-column comparisons release the GIL, which is where thread
   parallelism pays on multi-core hosts.

Merging is deterministic by construction, not by scheduling luck:
partition results are combined in partition-id order regardless of
completion order — result vectors by word-aligned concatenation,
costs by summation, the planning counters and per-partition metric
deltas by :func:`repro.obs.metrics.merge_metric_deltas`.  Running with
one worker or eight therefore produces bit-identical rows, counts, and
aggregated metrics (the property ``tests/test_shard.py`` pins down).
``c_e`` stays a per-partition sum, and ``explain`` prints each
partition's plan with whether it joined the shared one.

Every worker task covers all of a batch's predicates for one
partition, sharing one column-array cache, so the vector-scan fallback
converts each column once per partition.
"""

from __future__ import annotations

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
from repro.query.executor import QueryResult
from repro.query.options import (
    DEFAULT_OPTIONS,
    QueryOptions,
    check_deadline,
    start_deadline,
)
from repro.query.planner import Plan, Planner
from repro.query.predicates import Predicate
from repro.query.snapshot import bounded_rows, pinned_rows, snapshot_rows
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
    #: The partition's own result vector (local row ids).
    vector: BitVector
    cost: LookupCost
    metrics: Dict[str, MetricValue]
    wall_seconds: float
    used_scan: bool
    degraded: bool
    #: True when the fallback scan ran as whole-column numpy
    #: comparisons instead of the per-row Python loop.
    vector_scan: bool
    #: True when the partition ran the batch's shared plan for this
    #: query (see the module docstring) instead of planning itself.
    shared_plan: bool = False

    @property
    def rows(self) -> int:
        """Rows the partition selected, counted when asked for."""
        return self.vector.count()


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
    shared_plan: bool


@dataclass(slots=True)
class SharedPlan:
    """One predicate's plan, made once per batch on its leader."""

    plan: Plan
    #: Id of the partition the plan was made on.
    leader: int
    #: Counters that moved while planning (reductions, compiles).
    metrics: Dict[str, MetricValue]


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
        and prefetch.  Without ``snapshot_rows``, a pin the calling
        thread holds on the whole table
        (:func:`~repro.query.snapshot.pinned_rows`) bounds the batch.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        predicates = list(predicates)
        if not predicates:
            return []
        pinned = snapshot_rows(self.table)
        if pinned is not None and opts.snapshot_rows is None:
            opts = opts.replace(snapshot_rows=pinned)
        partitions = self.table.partitions
        nworkers = self._workers(opts)
        trace = opts.trace
        deadline = start_deadline(opts)
        registry = self._registry()
        wall = time.perf_counter()
        cpu = time.process_time() if trace else 0.0

        shared = [self._share(predicate) for predicate in predicates]
        if nworkers == 1:
            # Streaming pipeline: while partition i evaluates on this
            # thread, the residency manager's prefetch worker warms
            # partition i+1's spilled plane file (double buffering —
            # fault-in I/O overlaps kernel time instead of serialising
            # with it).  A no-op without a residency manager or when
            # everything is resident.
            outcomes = []
            for position, partition in enumerate(partitions):
                check_deadline(deadline, opts)
                prefetcher = (
                    self._start_prefetch(partitions, position + 1)
                    if opts.prefetch
                    else None
                )
                outcomes.append(
                    self._run_partition(
                        partition, predicates, opts, shared, deadline
                    )
                )
                if prefetcher is not None:
                    prefetcher.result()
        else:
            outcomes = self._run_threaded(
                partitions, predicates, shared, nworkers, opts, deadline
            )

        results = self._merge(
            predicates, shared, partitions, outcomes, nworkers, trace
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

        self._publish(registry, predicates, shared, outcomes)
        return results

    def _workers(self, opts: QueryOptions) -> int:
        """Threads a call runs on: the requested count, capped at the
        partition count (a thread beyond one per partition idles)."""
        requested = self.workers if opts.workers is None else opts.workers
        return min(requested, len(self.table.partitions))

    def _share(self, predicate: Predicate) -> Optional[SharedPlan]:
        """Plan ``predicate`` on its leader and derive each encoded
        leaf's function once; ``None`` when no partition's index
        serves it.

        Runs under a private registry, whose counters become the
        plan's :attr:`SharedPlan.metrics`.
        """
        registry = MetricsRegistry()
        with use_registry(registry):
            for partition in self.table.partitions:
                plan = partition.executor.planner.plan(
                    partition.table, predicate
                )
                if not plan.fallback_scan:
                    break
                if not plan.degraded_columns:
                    return None  # a column without any index
            else:
                return None
            for step in plan.steps:
                share = getattr(step.index, "share_function", None)
                if share is not None:
                    step.shared = share(step.predicate)
        return SharedPlan(plan, partition.id, registry.snapshot())

    def _run_threaded(
        self,
        partitions: Sequence[Partition],
        predicates: Sequence[Predicate],
        shared: Sequence[Optional[SharedPlan]],
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
                    opts,
                    shared,
                    deadline,
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
        """Partition-aware EXPLAIN: one plan per partition, no reads.

        Each partition's block says whether it would run the shared
        plan (``plan: shared``) or plan itself, and why
        (``plan: own (reason)``).
        """
        shared = self._share(predicate)
        lines = [
            "PARTITIONED QUERY PLAN",
            f"  table: {self.table.name} "
            f"({_partitions(len(self.table.partitions))}, "
            f"workers={self._workers(DEFAULT_OPTIONS)})",
            f"  predicate: {predicate}",
            "  shared plan: "
            + ("none" if shared is None else f"made on #{shared.leader}"),
        ]
        for partition in self.table.partitions:
            planner = partition.executor.planner
            plan, reason = _bind(planner, partition, shared)
            if plan is None:
                plan = planner.plan(partition.table, predicate)
            span = (
                f"rows {partition.offset}.."
                f"{partition.offset + len(partition.table)}"
            )
            lines.append(f"  partition {partition.id} [{span}):")
            lines.append(
                "    plan: " + ("shared" if not reason else f"own ({reason})")
            )
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
    ) -> Optional[Future]:
        """Warm the plane file of ``partitions[position]`` off-thread.

        Returns the prefetch's future (awaited after the current
        partition finishes evaluating) or ``None`` when there is
        nothing to prefetch — no residency manager, or no next
        partition.
        """
        manager = self.residency
        if manager is None or position >= len(partitions):
            return None
        return manager.prefetch_async(partitions[position].id)

    def _run_partition(
        self,
        partition: Partition,
        predicates: Sequence[Predicate],
        opts: QueryOptions,
        shared: Sequence[Optional[SharedPlan]],
        deadline: Optional[float],
    ) -> Tuple[List[_PartitionRecord], Dict[str, MetricValue]]:
        # Out-of-core hook: fault the partition in (page-accounted)
        # and let the LRU budget spill colder ones before evaluating.
        manager = self.residency
        if manager is not None:
            manager.acquire(partition.id)
        return run_partition_batch(
            partition, predicates, opts, shared=shared, deadline=deadline
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
        shared: Sequence[Optional[SharedPlan]],
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
            used_scan = degraded = False
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
                used_scan = used_scan or part_result.used_scan
                degraded = degraded or part_result.degraded
                slices.append(
                    PartitionSlice(
                        partition_id=partition.id,
                        vector=part_result.vector,
                        cost=part_result.cost,
                        metrics=part_result.metrics,
                        wall_seconds=record.wall_seconds,
                        used_scan=part_result.used_scan,
                        degraded=part_result.degraded,
                        vector_scan=record.vector_scan,
                        shared_plan=record.shared_plan,
                    )
                )
            planned = shared[q]
            plan_metrics = {} if planned is None else planned.metrics
            merged = PartitionedQueryResult(
                vector=BitVector.concat(vectors),
                cost=cost,
                used_scan=used_scan,
                degraded=degraded,
                metrics=merge_metric_deltas(
                    [plan_metrics, *(s.metrics for s in slices)]
                ),
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
            f"PARTITIONED ({_partitions(len(partitions))}, "
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
        shared: Sequence[Optional[SharedPlan]],
        outcomes: Sequence[
            Tuple[List[_PartitionRecord], Dict[str, MetricValue]]
        ],
    ) -> None:
        """Fold the planning and partition-private registries into the
        caller's: counter totals are added in partition order
        (:meth:`~repro.obs.metrics.MetricsRegistry.add`)."""
        for plan in shared:
            if plan is not None:
                registry.add(plan.metrics)
        for _records, snapshot in outcomes:
            registry.add(snapshot)
        joined = sum(
            record.shared_plan for records, _ in outcomes for record in records
        )
        if joined:
            registry.counter("shard.shared_plan_partitions").inc(joined)
        registry.counter("shard.batches").inc()
        registry.counter("shard.queries").inc(len(predicates))


def _partitions(count: int) -> str:
    return f"{count} partition" + ("" if count == 1 else "s")


def _bind(
    planner: Planner, partition: Partition, shared: Optional[SharedPlan]
) -> Tuple[Optional[Plan], str]:
    """The shared plan bound to ``partition`` (and ``""``), or ``None``
    and why the partition plans itself.  The leader runs the plan it
    was made on as is."""
    if shared is None:
        return None, "no index plan to share"
    if shared.leader == partition.id:
        return shared.plan, ""
    return planner.rebind(shared.plan, partition.table)


def run_partition_batch(
    partition: Partition,
    predicates: Sequence[Predicate],
    options: QueryOptions = DEFAULT_OPTIONS,
    *,
    shared: Optional[Sequence[Optional[SharedPlan]]] = None,
    deadline: Optional[float] = None,
) -> Tuple[List[_PartitionRecord], Dict[str, MetricValue]]:
    """Evaluate a predicate batch against one partition.

    The unit of work one worker thread (or the calling thread, with
    one worker) runs per partition.  Runs under a *private*
    metrics registry (returned as the snapshot half of the result) and
    a pinned row watermark; ``options.snapshot_rows`` is a
    caller-supplied pin in *global* row ids that clamps the partition
    to its slice of the first ``snapshot_rows`` rows.  ``shared`` holds
    the batch's shared plans, one per predicate; without them every
    predicate is planned against the partition's own catalog.
    ``deadline`` (from :func:`~repro.query.options.start_deadline`) is
    checked before every predicate.
    """
    trace = options.trace
    registry = MetricsRegistry()
    records: List[_PartitionRecord] = []
    # Pin the partition's published-row watermark for the whole batch:
    # every predicate sees the same row universe even while a
    # concurrent ingester appends to the tail partition
    # (repro.query.snapshot).
    bound: Optional[int] = None
    if options.snapshot_rows is not None:
        published = partition.table.published_rows()
        bound = min(
            max(options.snapshot_rows - partition.offset, 0), published
        )
    with use_registry(registry), pinned_rows(partition.table, rows=bound):
        executor = partition.executor
        arrays = ColumnArrayCache(partition.table)
        for q, predicate in enumerate(predicates):
            check_deadline(deadline, options)
            start = time.perf_counter()
            plan: Optional[Plan] = None
            if shared is not None:
                plan, _reason = _bind(executor.planner, partition, shared[q])
            joined = plan is not None
            if plan is None:
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
                    shared_plan=joined,
                )
            )
    return records, registry.snapshot()
