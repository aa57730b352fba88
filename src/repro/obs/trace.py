"""Per-query tracing: what the executor actually did, and why.

The paper's Section 3 argues about *counts* — how many of the ``k``
encoded vectors a reduced retrieval expression touches (``c_e``)
versus a simple bitmap's one-vector-per-value (``c_s``).  A
:class:`QueryTrace` records those counts as they happen, per access
step: the reduced Boolean expression, which vectors were read and in
which terms they appear, whether the reduction came from the cache,
degraded fallbacks, and wall/CPU time per stage.

Traces are built by :meth:`repro.query.executor.Executor.execute`
when called with ``trace=True`` and surfaced by the ``repro explain``
CLI subcommand.  They deliberately hold only plain strings and
numbers — rendering never re-touches the index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union


@dataclass(slots=True)
class StageTiming:
    """Wall/CPU seconds spent in one named executor stage."""

    name: str
    wall_seconds: float
    cpu_seconds: float

    def describe(self) -> str:
        return (
            f"{self.name}: {self.wall_seconds * 1000:.3f} ms wall, "
            f"{self.cpu_seconds * 1000:.3f} ms cpu"
        )


class StageTimer:
    """Context manager appending a :class:`StageTiming` to a trace.

    >>> trace = QueryTrace(plan_text="SCAN T")
    >>> with StageTimer(trace, "execute"):
    ...     pass
    >>> [stage.name for stage in trace.stages]
    ['execute']
    """

    __slots__ = ("_trace", "_name", "_wall", "_cpu")

    def __init__(self, trace: Optional["QueryTrace"], name: str) -> None:
        self._trace = trace
        self._name = name
        self._wall = 0.0
        self._cpu = 0.0

    def __enter__(self) -> "StageTimer":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._trace is not None:
            self._trace.stages.append(
                StageTiming(
                    name=self._name,
                    wall_seconds=time.perf_counter() - self._wall,
                    cpu_seconds=time.process_time() - self._cpu,
                )
            )


@dataclass(slots=True)
class VectorAccess:
    """One access step: a leaf predicate served by one index.

    ``vectors`` holds the distinct bitmap-vector ids actually read;
    ``roles`` explains *why* each one was touched — the reduced-DNF
    terms it appears in (empty for non-bitmap indexes).
    """

    index_kind: str
    column: str
    predicate: str
    vectors: Tuple[int, ...] = ()
    width: Optional[int] = None
    reduced: Optional[str] = None
    cache_hit: Optional[bool] = None
    vectors_accessed: int = 0
    node_accesses: int = 0
    rows_checked: int = 0
    estimated_cost: Optional[float] = None
    roles: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: Partition id when the access ran inside one partition of a
    #: partition-parallel query (see :mod:`repro.shard.executor`);
    #: ``None`` when a bare :class:`~repro.query.executor.Executor` ran it.
    partition: Optional[int] = None

    def describe(self) -> List[str]:
        where = (
            f" [partition {self.partition}]"
            if self.partition is not None
            else ""
        )
        lines = [
            f"{self.index_kind}({self.column}) <- {self.predicate}{where}"
        ]
        if self.reduced is not None:
            suffix = ""
            if self.cache_hit is not None:
                suffix = (
                    "  [reduction cache hit]"
                    if self.cache_hit
                    else "  [reduced now]"
                )
            lines.append(f"  reduced expression: {self.reduced}{suffix}")
        if self.width is not None:
            lines.append(
                f"  vectors touched: {len(self.vectors)} of k={self.width}"
            )
        for vector_id in self.vectors:
            terms = self.roles.get(vector_id, ())
            why = f" in {', '.join(terms)}" if terms else ""
            lines.append(f"    B{vector_id}{why}")
        counts = [f"vectors={self.vectors_accessed}"]
        if self.node_accesses:
            counts.append(f"nodes={self.node_accesses}")
        if self.rows_checked:
            counts.append(f"rows={self.rows_checked}")
        cost = ", ".join(counts)
        if self.estimated_cost is not None:
            cost += f"  (planner estimate {self.estimated_cost:.1f})"
        lines.append(f"  cost: {cost}")
        return lines


@dataclass(slots=True)
class QueryTrace:
    """Everything observed while executing one query."""

    plan_text: str
    stages: List[StageTiming] = field(default_factory=list)
    accesses: List[VectorAccess] = field(default_factory=list)
    used_scan: bool = False
    degraded: bool = False
    metrics: Dict[str, Union[int, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def vector_reads(self) -> int:
        """Total distinct-vector reads across all access steps.

        This is the measured query cost in the paper's unit — the
        quantity compared against the
        :mod:`repro.analysis.cost_models` predictions.
        """
        return sum(access.vectors_accessed for access in self.accesses)

    def render(self, metrics: Optional[Mapping[str, object]] = None) -> str:
        """Human-readable multi-line trace report."""
        lines = ["TRACE"]
        if self.used_scan:
            label = "degraded fallback" if self.degraded else "fallback"
            lines.append(f"  table scan ({label})")
        for i, access in enumerate(self.accesses, 1):
            head, *rest = access.describe()
            lines.append(f"  step {i}: {head}")
            lines.extend("  " + line for line in rest)
        lines.append(f"  total vector reads: {self.vector_reads()}")
        for stage in self.stages:
            lines.append(f"  stage {stage.describe()}")
        shown = metrics if metrics is not None else self.metrics
        if shown:
            lines.append("  metrics:")
            for name in sorted(shown):
                lines.append(f"    {name} = {shown[name]}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
