"""I/O statistics for the simulated disk, backed by the metrics registry.

Counters are deliberately simple — the evaluation shapes in the paper
depend on *counts*, not on a latency model.  ``logical_reads`` counts
every page request, ``physical_reads`` only those that missed the
buffer pool.

Since the observability layer landed, :class:`IOStatistics` is a view
over a private :class:`~repro.obs.metrics.MetricsRegistry` whose
counters propagate to the process-wide registry
(:func:`repro.obs.metrics.get_registry`).  Scoping is therefore
explicit:

* **per-pager window** — this object; :meth:`reset` zeroes it between
  benchmark phases without touching anything else,
* **process-lifetime totals** — the global registry's ``storage.*``
  counters, which every pager feeds,
* **per-query snapshot** — the executor wraps each query in a
  registry scope and attaches the delta to
  :class:`~repro.query.executor.QueryResult`.

Example (doctest)::

    >>> stats = IOStatistics()
    >>> stats.record_logical_read()
    >>> stats.record_logical_read()
    >>> stats.record_physical_read()
    >>> stats.logical_reads, stats.physical_reads
    (2, 1)
    >>> stats.hit_ratio()
    0.5
    >>> stats.reset()
    >>> stats.logical_reads
    0
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry, get_registry

#: Registry namespace for every storage-layer counter.
NAMESPACE = "storage"

_FIELDS = (
    "logical_reads",
    "physical_reads",
    "writes",
    "allocations",
    "evictions",
    "pool_hits",
    "pool_misses",
    "write_backs",
    "checksum_failures",
)


class IOStatistics:
    """Mutable counter block shared by pager and buffer pool.

    Keyword arguments seed initial values (used by :meth:`snapshot`
    and :meth:`__sub__`, which return detached copies); seeding never
    propagates to the parent registry.

    Parameters
    ----------
    registry:
        Optional backing registry.  By default a private registry is
        created whose parent is the process-wide registry, so local
        increments also show up in the global ``storage.*`` totals.
    """

    __slots__ = ("_registry", "_counters")

    def __init__(
        self,
        logical_reads: int = 0,
        physical_reads: int = 0,
        writes: int = 0,
        allocations: int = 0,
        evictions: int = 0,
        pool_hits: int = 0,
        pool_misses: int = 0,
        write_backs: int = 0,
        checksum_failures: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if registry is None:
            registry = MetricsRegistry(parent=get_registry())
        self._registry = registry
        self._counters = {
            name: registry.counter(f"{NAMESPACE}.{name}")
            for name in _FIELDS
        }
        seeds = (
            logical_reads,
            physical_reads,
            writes,
            allocations,
            evictions,
            pool_hits,
            pool_misses,
            write_backs,
            checksum_failures,
        )
        for name, seed in zip(_FIELDS, seeds):
            if seed:
                self._counters[name].set_raw(seed)

    # ------------------------------------------------------------------
    # counter views
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The backing (per-pager) registry."""
        return self._registry

    @property
    def logical_reads(self) -> int:
        return self._counters["logical_reads"].value

    @property
    def physical_reads(self) -> int:
        return self._counters["physical_reads"].value

    @property
    def writes(self) -> int:
        return self._counters["writes"].value

    @property
    def allocations(self) -> int:
        return self._counters["allocations"].value

    @property
    def evictions(self) -> int:
        return self._counters["evictions"].value

    @property
    def pool_hits(self) -> int:
        return self._counters["pool_hits"].value

    @property
    def pool_misses(self) -> int:
        return self._counters["pool_misses"].value

    @property
    def write_backs(self) -> int:
        return self._counters["write_backs"].value

    @property
    def checksum_failures(self) -> int:
        return self._counters["checksum_failures"].value

    # ------------------------------------------------------------------
    # recorders (called from the pager / buffer pool hot paths; the
    # page recorders take a count, so a whole file is one call)
    # ------------------------------------------------------------------
    def record_logical_read(self, count: int = 1) -> None:
        self._counters["logical_reads"].inc(count)

    def record_physical_read(self, count: int = 1) -> None:
        self._counters["physical_reads"].inc(count)

    def record_write(self, count: int = 1) -> None:
        self._counters["writes"].inc(count)

    def record_allocation(self) -> None:
        self._counters["allocations"].inc()

    def record_eviction(self) -> None:
        self._counters["evictions"].inc()

    def record_pool_hit(self, count: int = 1) -> None:
        self._counters["pool_hits"].inc(count)

    def record_pool_miss(self) -> None:
        self._counters["pool_misses"].inc()

    def record_write_back(self) -> None:
        self._counters["write_backs"].inc()

    def record_checksum_failure(self) -> None:
        self._counters["checksum_failures"].inc()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter (used between benchmark phases).

        Only this window is cleared; the process-lifetime totals in
        the global registry are left intact.
        """
        for counter in self._counters.values():
            counter.set_raw(0)

    def hit_ratio(self) -> float:
        """Buffer-pool hit ratio over the recorded window."""
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads

    def as_dict(self) -> Dict[str, int]:
        """Flat ``field -> count`` view (used by bench reports)."""
        return {
            name: counter.value
            for name, counter in self._counters.items()
        }

    def snapshot(self) -> "IOStatistics":
        """A frozen, detached copy of the current counters."""
        return IOStatistics(
            registry=MetricsRegistry(), **self.as_dict()
        )

    def __sub__(self, other: "IOStatistics") -> "IOStatistics":
        mine = self.as_dict()
        theirs = other.as_dict()
        return IOStatistics(
            registry=MetricsRegistry(),
            **{name: mine[name] - theirs[name] for name in _FIELDS},
        )

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={counter.value}"
            for name, counter in self._counters.items()
            if counter.value
        )
        return f"IOStatistics({shown})"
