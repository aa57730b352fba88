"""Long-lived query server over a :class:`repro.Database`.

The server is a classic bounded-queue worker pool with admission
control in front of it:

1. :meth:`Server.submit` resolves the request's tenant against the
   :class:`~repro.serving.quotas.QuotaManager` (a quota breach fails
   fast, before the request can consume queue capacity), then
   enqueues it under the configured admission policy
   (:mod:`repro.serving.queue`).
2. Worker threads pop requests, enforce the end-to-end deadline
   (queue wait counts against it), and run them through
   ``Database.query`` — which means every serving request gets the
   result cache, the partition executor, and the paper's cost
   accounting for free.
3. Latency (submit → answer, in seconds) is recorded per tenant; the
   p50/p99 summaries in :meth:`Server.stats` are what the ``serving``
   bench publishes.

Metric accounting follows the executor's discipline: each worker
installs a *private* registry per request and the delta is merged
into the server's tally under the stats lock afterwards — worker
threads never race on shared counters, and no registry callback ever
happens under a lock (EBI303).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.errors import (
    InvalidArgumentError,
    QueryTimeoutError,
    RequestTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.obs.metrics import (
    MetricsRegistry,
    MetricValue,
    merge_metric_deltas,
    use_registry,
)
from repro.query.executor import QueryResult
from repro.query.options import DEFAULT_OPTIONS, QueryOptions
from repro.query.predicates import Predicate
from repro.serving.queue import BoundedRequestQueue
from repro.serving.quotas import QuotaManager

#: Percentiles reported by :meth:`Server.stats` (and the bench).
LATENCY_PERCENTILES = (50.0, 99.0)

#: Per-tenant latency samples retained (oldest evicted beyond it).
MAX_LATENCY_SAMPLES = 100_000


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank) of ``values``.

    >>> percentile([5.0, 1.0, 3.0], 50.0)
    3.0
    >>> percentile([1.0, 2.0], 99.0)
    2.0
    """
    if not values:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise InvalidArgumentError(
            f"percentile must be in (0, 100], got {q}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Request:
    """One in-flight query: a small future the caller waits on."""

    __slots__ = (
        "table_name",
        "predicate",
        "options",
        "tenant",
        "submitted_at",
        "deadline",
        "_done",
        "_lock",
        "_result",
        "_error",
    )

    def __init__(
        self,
        table_name: str,
        predicate: Predicate,
        options: QueryOptions,
        tenant: str,
        deadline: Optional[float],
    ) -> None:
        self.table_name = table_name  # ebi: shared-readonly
        self.predicate = predicate  # ebi: shared-readonly
        self.options = options  # ebi: shared-readonly
        self.tenant = tenant  # ebi: shared-readonly
        self.submitted_at = time.monotonic()  # ebi: shared-readonly
        self.deadline = deadline  # ebi: shared-readonly
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None

    # -- fulfilment (exactly one of these, exactly once) ---------------
    def fulfil(self, result: QueryResult) -> None:
        with self._lock:
            self._result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
        self._done.set()

    # -- caller side ---------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until the request is answered; re-raise its failure."""
        if not self._done.wait(timeout):
            raise RequestTimeoutError(
                f"no answer within {timeout} seconds"
            )
        with self._lock:
            error = self._error
            result = self._result
        if error is not None:
            raise error
        assert result is not None
        return result


@dataclass
class TenantStats:
    """Per-tenant serving summary (one row of :class:`ServerStats`)."""

    tenant: str
    completed: int = 0
    failed: int = 0
    latency_percentiles: Dict[str, float] = field(default_factory=dict)


@dataclass
class ServerStats:
    """Point-in-time serving summary from :meth:`Server.stats`."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    timed_out: int = 0
    queue_depth: int = 0
    latency_percentiles: Dict[str, float] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    metrics: Dict[str, MetricValue] = field(default_factory=dict)


class Server:
    """Bounded-queue worker pool serving queries from one database.

    Parameters (keyword-only)
    -------------------------
    database:
        The :class:`repro.Database` to serve.
    workers:
        Worker thread count.
    queue_capacity / policy:
        Admission queue size and full-queue policy
        (:data:`repro.serving.queue.POLICIES`).
    quotas:
        Per-tenant ceilings; defaults to an unlimited
        :class:`QuotaManager`.
    default_timeout:
        End-to-end deadline (seconds, queue wait included) applied to
        requests whose options carry no ``timeout_seconds``.
    use_cache:
        When true (the default — the serving tier owns the result
        cache), every admitted request runs with
        ``QueryOptions(use_cache=True)``; run the server with
        ``use_cache=False`` to serve strictly uncached answers.
    """

    def __init__(
        self,
        *,
        database: Any,
        workers: int = 2,
        queue_capacity: int = 64,
        policy: str = "block",
        quotas: Optional[QuotaManager] = None,
        default_timeout: Optional[float] = None,
        use_cache: bool = True,
    ) -> None:
        if workers < 1:
            raise InvalidArgumentError(
                f"workers must be >= 1, got {workers}"
            )
        self.database = database  # ebi: shared-readonly
        self.quotas = quotas or QuotaManager()  # ebi: shared-readonly
        self.default_timeout = default_timeout  # ebi: shared-readonly
        self.use_cache = use_cache  # ebi: shared-readonly
        self._queue: BoundedRequestQueue[Request] = BoundedRequestQueue(
            capacity=queue_capacity, policy=policy
        )  # ebi: shared-readonly
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "shed": 0,
            "timed_out": 0,
        }
        self._latencies: Deque[float] = deque(maxlen=MAX_LATENCY_SAMPLES)
        self._tenant_latencies: Dict[str, Deque[float]] = {}
        self._tenant_counts: Dict[str, Dict[str, int]] = {}
        self._metrics: Dict[str, MetricValue] = {}
        self._closed = False
        self._close_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"serving-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        table_name: str,
        predicate: Predicate,
        *,
        options: Optional[QueryOptions] = None,
    ) -> Request:
        """Admit a query; returns a :class:`Request` to wait on.

        Raises :class:`~repro.errors.QuotaExceededError`,
        :class:`~repro.errors.ServerOverloadedError`,
        :class:`~repro.errors.RequestTimeoutError` or
        :class:`~repro.errors.ServerClosedError` per the admission
        pipeline described in the module docstring.
        """
        opts = options or DEFAULT_OPTIONS
        tenant = self.quotas.acquire(opts.tenant)
        if opts.tenant != tenant:
            opts = opts.replace(tenant=tenant)
        if self.use_cache and not opts.use_cache:
            opts = opts.replace(use_cache=True)
        timeout = (
            opts.timeout_seconds
            if opts.timeout_seconds is not None
            else self.default_timeout
        )
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        request = Request(table_name, predicate, opts, tenant, deadline)
        try:
            shed = self._queue.put(request, timeout=timeout)
        except BaseException:
            self.quotas.release(tenant)
            raise
        self._count("submitted")
        for victim in shed:
            victim.fail(
                ServerOverloadedError("shed by a newer request")
            )
            self.quotas.release(victim.tenant)
            self._count("shed")
            self._count_tenant(victim.tenant, "failed")
        return request

    def query(
        self,
        table_name: str,
        predicate: Predicate,
        *,
        options: Optional[QueryOptions] = None,
    ) -> QueryResult:
        """Submit and wait — the synchronous convenience path."""
        request = self.submit(table_name, predicate, options=options)
        remaining: Optional[float] = None
        if request.deadline is not None:
            remaining = max(
                request.deadline - time.monotonic(), 0.001
            )
        return request.result(remaining)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:  # ebi: worker-entry
        while True:
            try:
                request = self._queue.get()
            except ServerClosedError:
                return
            self._serve(request)

    def _serve(self, request: Request) -> None:
        registry = MetricsRegistry()
        started = time.monotonic()
        result: Optional[QueryResult] = None
        failure: Optional[BaseException] = None
        # The whole request — execution *and* quota release — runs
        # under a private registry, so tenant counters and query
        # metrics land in the per-request delta and merge into the
        # server tally deterministically (no cross-worker counter
        # races on a shared registry).
        with use_registry(registry):
            try:
                if (
                    request.deadline is not None
                    and started >= request.deadline
                ):
                    raise RequestTimeoutError(
                        "deadline expired while queued"
                    )
                opts = request.options
                if request.deadline is not None:
                    opts = opts.replace(
                        timeout_seconds=request.deadline - started
                    )
                result = self.database.query(
                    request.table_name, request.predicate, opts
                )
            except BaseException as error:
                failure = error
            finally:
                self.quotas.release(request.tenant)
        if failure is not None:
            request.fail(failure)
            self._record(request, registry=registry, error=failure)
        else:
            assert result is not None
            request.fulfil(result)
            self._record(request, registry=registry)

    def _record(
        self,
        request: Request,
        *,
        registry: Optional[MetricsRegistry] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        latency = time.monotonic() - request.submitted_at
        delta = registry.snapshot() if registry is not None else {}
        with self._stats_lock:
            if error is None:
                self._counts["completed"] += 1
                self._latencies.append(latency)
                per_tenant = self._tenant_latencies.setdefault(
                    request.tenant,
                    deque(maxlen=MAX_LATENCY_SAMPLES),
                )
                per_tenant.append(latency)
                self._tenant_count_locked(request.tenant, "completed")
            else:
                self._counts["failed"] += 1
                if isinstance(
                    error, (RequestTimeoutError, QueryTimeoutError)
                ):
                    self._counts["timed_out"] += 1
                self._tenant_count_locked(request.tenant, "failed")
            if delta:
                self._metrics = merge_metric_deltas(
                    [self._metrics, delta]
                )

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        with self._stats_lock:
            self._counts[key] += 1

    def _count_tenant(self, tenant: str, key: str) -> None:
        with self._stats_lock:
            self._tenant_count_locked(tenant, key)

    def _tenant_count_locked(self, tenant: str, key: str) -> None:
        counts = self._tenant_counts.setdefault(
            tenant, {"completed": 0, "failed": 0}
        )
        counts[key] += 1

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        """A consistent snapshot of counts, latencies and metrics."""
        with self._stats_lock:
            counts = dict(self._counts)
            latencies = list(self._latencies)
            tenant_latencies = {
                tenant: list(samples)
                for tenant, samples in self._tenant_latencies.items()
            }
            tenant_counts = {
                tenant: dict(values)
                for tenant, values in self._tenant_counts.items()
            }
            metrics = dict(self._metrics)
        tenants: Dict[str, TenantStats] = {}
        names = set(tenant_latencies) | set(tenant_counts)
        for tenant in sorted(names):
            samples = tenant_latencies.get(tenant, [])
            values = tenant_counts.get(tenant, {})
            tenants[tenant] = TenantStats(
                tenant=tenant,
                completed=values.get("completed", 0),
                failed=values.get("failed", 0),
                latency_percentiles={
                    f"p{q:g}": percentile(samples, q)
                    for q in LATENCY_PERCENTILES
                },
            )
        return ServerStats(
            submitted=counts["submitted"],
            completed=counts["completed"],
            failed=counts["failed"],
            shed=counts["shed"],
            timed_out=counts["timed_out"],
            queue_depth=len(self._queue),
            latency_percentiles={
                f"p{q:g}": percentile(latencies, q)
                for q in LATENCY_PERCENTILES
            },
            tenants=tenants,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admissions, fail queued work, join the workers."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        drained = self._queue.close()
        for request in drained:
            request.fail(ServerClosedError("server closed"))
            self.quotas.release(request.tenant)
            self._count_tenant(request.tenant, "failed")
            self._count("failed")
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "LATENCY_PERCENTILES",
    "Request",
    "Server",
    "ServerStats",
    "TenantStats",
    "percentile",
]
