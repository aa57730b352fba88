"""Unified metrics registry: counters, gauges and histograms.

One registry unifies the accounting that used to be scattered across
the read path — evaluator vector reads, pager physical I/O, buffer
pool hits/misses/evictions, retry attempts — so a query (or a bench)
can snapshot *everything* at once and report a single delta.

Design constraints, in priority order:

1. **Cheap when off.**  :data:`NULL_REGISTRY` hands out no-op
   instruments so instrumented code pays one attribute lookup and an
   empty call.  Hot loops (the evaluator's per-vector accesses) are
   *never* instrumented per event; they aggregate locally (e.g. in
   :class:`~repro.boolean.evaluator.AccessCounter`) and publish once
   per evaluation.
2. **Hierarchical.**  A registry may have a *parent*; increments
   propagate upward.  Per-pager :class:`~repro.storage.stats.IOStatistics`
   keeps its isolated counters while the process-wide registry (from
   :func:`get_registry`) still sees the totals — which is what makes
   per-query deltas possible without threading a registry through
   every constructor.
3. **Scoped reads.**  :meth:`MetricsRegistry.scoped` snapshots the
   registry and computes the delta later — the per-query metrics
   attached to :class:`~repro.query.executor.QueryResult`.

Example::

    >>> registry = MetricsRegistry()
    >>> reads = registry.counter("evaluator.vector_reads")
    >>> reads.inc()
    >>> reads.inc(2)
    >>> registry.value("evaluator.vector_reads")
    3
    >>> with registry.scoped() as scope:
    ...     reads.inc(5)
    >>> scope.metrics
    {'evaluator.vector_reads': 5}
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.errors import InvalidArgumentError

MetricValue = Union[int, float]


class Counter:
    """A monotonically increasing count.

    When bound to a parent counter (see
    :class:`MetricsRegistry(parent=...) <MetricsRegistry>`) every
    increment also flows upward, so process-lifetime totals and
    isolated sub-registries stay consistent by construction.
    """

    __slots__ = ("name", "value", "_parent")

    def __init__(self, name: str, parent: Optional["Counter"] = None) -> None:
        self.name = name
        self.value: int = 0
        self._parent = parent

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1), propagating to the parent."""
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    def set_raw(self, value: int) -> None:
        """Set the local value *without* parent propagation.

        Used for seeding snapshots and for :meth:`MetricsRegistry.reset`
        — a reset of a sub-registry must not subtract from
        process-lifetime totals.
        """
        self.value = value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins, no parent semantics)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Aggregate distribution summary: count / total / min / max.

    Deliberately bucket-free — the quantities observed here (stage
    wall-clock, retry backoff) are reported as totals and extremes in
    ``BENCH_*.json``; full distributions would bloat the schema for no
    analytical gain.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_parent")

    def __init__(self, name: str, parent: Optional["Histogram"] = None) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._parent = parent

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self._parent is not None:
            self._parent.observe(value)

    def mean(self) -> float:
        """Average observed value (0.0 when nothing was observed)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, total={self.total})"


class MetricsScope:
    """A snapshot-delta window over one registry.

    Usable as a context manager; after exit (or an explicit
    :meth:`finish`) the ``metrics`` attribute holds the flat
    name → value delta, with zero entries dropped.
    """

    __slots__ = ("_registry", "_before", "metrics")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._before = registry.snapshot()
        self.metrics: Dict[str, MetricValue] = {}

    def finish(self) -> Dict[str, MetricValue]:
        """Compute (and remember) the delta since the scope opened."""
        self.metrics = self._registry.delta(self._before)
        return self.metrics

    def __enter__(self) -> "MetricsScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot-delta support.

    Parameters
    ----------
    parent:
        Optional registry that receives every counter increment and
        histogram observation recorded here (gauges stay local —
        "last write wins" has no meaningful aggregate).
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self._parent = parent
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        instrument = self._counters.get(name)
        if instrument is None:
            if not name or name in self._gauges or name in self._histograms:
                self._check_name(name)  # raises
            parent = (
                self._parent.counter(name)
                if self._parent is not None
                else None
            )
            instrument = Counter(name, parent=parent)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on demand)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_name(name)
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_name(name)
            parent = (
                self._parent.histogram(name)
                if self._parent is not None
                else None
            )
            instrument = Histogram(name, parent=parent)
            self._histograms[name] = instrument
        return instrument

    def _check_name(self, name: str) -> None:
        if not name:
            raise InvalidArgumentError("metric name must be non-empty")
        in_counters = name in self._counters
        in_gauges = name in self._gauges
        in_histograms = name in self._histograms
        if in_counters or in_gauges or in_histograms:
            raise InvalidArgumentError(
                f"metric {name!r} already registered with a different kind"
            )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def value(self, name: str) -> MetricValue:
        """Current value of a counter or gauge (0 when absent)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return 0

    def collect(self) -> Dict[str, MetricValue]:
        """Flatten every instrument into a ``name -> value`` mapping.

        Histograms expand into ``<name>.count`` / ``<name>.total`` /
        ``<name>.min`` / ``<name>.max`` entries.
        """
        flat: Dict[str, MetricValue] = {}
        for name, counter in self._counters.items():
            flat[name] = counter.value
        for name, gauge in self._gauges.items():
            flat[name] = gauge.value
        for name, histogram in self._histograms.items():
            flat[f"{name}.count"] = histogram.count
            flat[f"{name}.total"] = histogram.total
            if histogram.minimum is not None:
                flat[f"{name}.min"] = histogram.minimum
            if histogram.maximum is not None:
                flat[f"{name}.max"] = histogram.maximum
        return flat

    def snapshot(self) -> Dict[str, MetricValue]:
        """Alias of :meth:`collect` — a frozen view for later deltas."""
        return self.collect()

    def delta(
        self, before: Mapping[str, MetricValue]
    ) -> Dict[str, MetricValue]:
        """What changed since ``before`` (a :meth:`snapshot`).

        Counters and histogram count/total entries subtract; gauges
        and histogram extremes report their current value.  Zero (or
        unchanged-gauge) entries are dropped so per-query metric dicts
        stay small.
        """
        changed: Dict[str, MetricValue] = {}
        if not self._gauges and not self._histograms:
            # Counters only (every private registry of the query path):
            # plain subtraction.
            for name, counter in self._counters.items():
                diff = counter.value - before.get(name, 0)
                if diff:
                    changed[name] = diff
            return changed
        for name, value in self.collect().items():
            previous = before.get(name, 0)
            if name.endswith((".min", ".max")) or name in self._gauges:
                if value != previous:
                    changed[name] = value
                continue
            diff = value - previous
            if diff:
                changed[name] = diff
        return changed

    def add(self, deltas: Mapping[str, MetricValue]) -> None:
        """Increment counters by the integer entries of ``deltas`` (a
        :meth:`snapshot` or :meth:`delta` of another registry).

        Float entries (gauges, histogram totals) and histogram
        extremes are skipped: last-write and extreme semantics do not
        add up.
        """
        counters = self._counters
        for name, value in deltas.items():
            if type(value) is not int or name.endswith((".min", ".max")):
                continue
            counter = counters.get(name)
            if counter is None:
                counter = self.counter(name)
            counter.inc(value)

    def scoped(self) -> MetricsScope:
        """Open a snapshot-delta window (see :class:`MetricsScope`)."""
        return MetricsScope(self)

    def reset(self) -> None:
        """Zero every local instrument.

        Parent registries are untouched: a reset clears *this* window
        of accounting without rewriting process-lifetime history.
        """
        for counter in self._counters.values():
            counter.set_raw(0)
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.count = 0
            histogram.total = 0.0
            histogram.minimum = None
            histogram.maximum = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


class NullRegistry(MetricsRegistry):
    """A registry whose instruments do nothing.

    Install it with :func:`set_registry` (or pass it explicitly) to
    strip metric accounting from a hot path; see the overhead bound in
    ``docs/observability.md``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram

    def collect(self) -> Dict[str, MetricValue]:
        return {}


#: Shared process-wide no-op registry.
NULL_REGISTRY = NullRegistry()

#: The process-wide default registry; components fall back to it when
#: no registry is passed explicitly.
_GLOBAL_REGISTRY: MetricsRegistry = MetricsRegistry()

#: Per-thread registry override (see :func:`use_registry`).  The
#: partition-parallel executor installs a private registry in each
#: worker thread so concurrent partitions never interleave increments
#: on the same (non-atomic) :class:`Counter`; the merged per-partition
#: deltas are then summed deterministically in partition order.
_THREAD_LOCAL = threading.local()


def get_registry() -> MetricsRegistry:
    """The current registry: the calling thread's override when one is
    installed (see :func:`use_registry`), else the process-wide default
    (see :func:`set_registry`)."""
    override: Optional[MetricsRegistry] = getattr(
        _THREAD_LOCAL, "registry", None
    )
    if override is not None:
        return override
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide default.

    Returns the previous registry so callers can restore it.  Note
    that sub-registries (e.g. per-pager
    :class:`~repro.storage.stats.IOStatistics`) bind their parent at
    construction time; existing instances keep publishing to the
    registry that was current when they were created.
    """
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


class _RegistryOverride:
    """The context manager :func:`use_registry` returns (a class rather
    than a generator: every partition of every query enters one)."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = getattr(_THREAD_LOCAL, "registry", None)
        _THREAD_LOCAL.registry = self._registry
        return self._registry

    def __exit__(self, *exc_info: object) -> None:
        _THREAD_LOCAL.registry = self._previous


def use_registry(registry: MetricsRegistry) -> _RegistryOverride:
    """Temporarily install ``registry`` for the *calling thread*.

    The override is thread-scoped rather than process-wide so that
    concurrent partition workers (see :mod:`repro.shard.executor`) can
    each account into a private registry without racing on shared
    counters; single-threaded callers observe the same behaviour as
    the old process-wide swap.

    >>> fresh = MetricsRegistry()
    >>> with use_registry(fresh) as registry:
    ...     registry is get_registry()
    True
    """
    return _RegistryOverride(registry)


def merge_metric_deltas(
    deltas: Iterable[Mapping[str, MetricValue]],
) -> Dict[str, MetricValue]:
    """Combine per-partition metric deltas into one deterministic view.

    Counter-style entries sum; histogram extremes (``*.min`` /
    ``*.max``) take the min/max across partitions.  Because the inputs
    are plain dicts merged in the order given (the partition order),
    the result is identical regardless of how many worker threads
    produced them — the determinism contract of the partition-parallel
    executor.

    >>> merge_metric_deltas([{"a": 1}, {"a": 2, "b.min": 0.5}])
    {'a': 3, 'b.min': 0.5}
    """
    merged: Dict[str, MetricValue] = {}
    for delta in deltas:
        for name, value in delta.items():
            if name not in merged:
                merged[name] = value
            elif name.endswith(".min"):
                merged[name] = min(merged[name], value)
            elif name.endswith(".max"):
                merged[name] = max(merged[name], value)
            else:
                merged[name] = merged[name] + value
    return merged
