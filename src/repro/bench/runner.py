"""Suite runner: executes bench cases and writes ``BENCH_*.json``.

Each case runs inside its own fresh :class:`MetricsRegistry` (installed
process-wide for the duration via
:func:`repro.obs.metrics.use_registry`), so the metric snapshot
serialized next to the measurements is exactly what that case caused —
no bleed between cases and no dependence on whatever ran before.

The emitted file is validated against :mod:`repro.bench.schema`
*before* it is written; the harness never publishes a payload it would
itself reject.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.cases import BenchCase, CaseOutcome, cases_for
from repro.bench.compare import Comparison, deterministic_ok
from repro.bench.schema import SCHEMA_VERSION, assert_valid
from repro.errors import InvalidArgumentError
from repro.obs.metrics import MetricsRegistry, use_registry


@dataclass
class CaseReport:
    """Outcome of one bench case."""

    name: str
    description: str
    comparisons: List[Comparison]
    metrics: Dict[str, Union[int, float]]
    wall_seconds: float
    cpu_seconds: float
    error: Optional[str] = None
    #: Worker-thread counts, for partition-parallel cases (schema v2).
    workers: Optional[Tuple[int, ...]] = None
    #: Overall latency quantiles (name → ms), for serving cases
    #: (schema v3).
    latency_percentiles: Optional[Dict[str, float]] = None
    #: Per-tenant accounting rows, for serving cases (schema v3).
    tenants: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(
            c.ok for c in self.comparisons
        )

    @property
    def deterministic_ok(self) -> bool:
        """``ok`` over the identity and model lines only: the verdict
        that does not depend on the host's speed or load."""
        return self.error is None and deterministic_ok(self.comparisons)

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "description": self.description,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "ok": self.ok,
            "metrics": dict(self.metrics),
            "results": [c.as_dict() for c in self.comparisons],
        }
        if self.workers is not None:
            payload["workers"] = list(self.workers)
        if self.latency_percentiles is not None:
            payload["latency_percentiles"] = dict(
                self.latency_percentiles
            )
        if self.tenants is not None:
            payload["tenants"] = [dict(row) for row in self.tenants]
        return payload


@dataclass
class SuiteReport:
    """Outcome of a whole ``repro bench`` run."""

    suite: str
    quick: bool
    tolerance: float
    cases: List[CaseReport] = field(default_factory=list)
    path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return bool(self.cases) and all(case.ok for case in self.cases)

    @property
    def deterministic_ok(self) -> bool:
        """``ok`` ignoring perf lines (see
        :func:`repro.bench.compare.deterministic_ok`)."""
        return bool(self.cases) and all(
            case.deterministic_ok for case in self.cases
        )

    def as_payload(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "quick": self.quick,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "cases": [case.as_dict() for case in self.cases],
        }

    def render(self) -> str:
        lines = [
            f"bench suite {self.suite!r} "
            f"(tolerance {self.tolerance:.0%}):"
        ]
        for case in self.cases:
            flag = "PASS" if case.ok else "FAIL"
            lines.append(
                f"  [{flag}] {case.name} "
                f"({case.wall_seconds * 1000:.1f} ms) — "
                f"{case.description}"
            )
            if case.error is not None:
                lines.append(f"      error: {case.error}")
            for comparison in case.comparisons:
                marker = "ok " if comparison.ok else "DIV"
                lines.append(f"      {marker} {comparison.describe()}")
        passed = sum(1 for case in self.cases if case.ok)
        lines.append(f"{passed}/{len(self.cases)} cases passed")
        if self.path is not None:
            lines.append(f"wrote {self.path}")
        return "\n".join(lines)


def run_case(case: BenchCase, tolerance: float) -> CaseReport:
    """Run one case under a private registry, timing it."""
    registry = MetricsRegistry()
    error: Optional[str] = None
    outcome = CaseOutcome()
    wall = time.perf_counter()
    cpu = time.process_time()
    with use_registry(registry):
        try:
            returned = case.run(tolerance)
            if isinstance(returned, CaseOutcome):
                outcome = returned
            else:
                outcome = CaseOutcome(comparisons=list(returned))
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            error = f"{type(exc).__name__}: {exc}"
    return CaseReport(
        name=case.name,
        description=case.description,
        comparisons=outcome.comparisons,
        metrics=registry.collect(),
        wall_seconds=time.perf_counter() - wall,
        cpu_seconds=time.process_time() - cpu,
        error=error,
        workers=case.workers,
        latency_percentiles=outcome.latency_percentiles,
        tenants=outcome.tenants,
    )


def run_suite(
    quick: bool = False,
    tolerance: float = 0.25,
    out_dir: Optional[str] = None,
    suite: Optional[str] = None,
    workers: Optional[Sequence[int]] = None,
    only: Optional[Sequence[str]] = None,
    rows: Optional[int] = None,
) -> SuiteReport:
    """Run a suite and write ``BENCH_<suite>.json``.

    ``suite`` defaults to ``smoke`` for quick runs and ``full``
    otherwise; the file lands in ``out_dir`` (default: the current
    working directory, i.e. the repo root when run via ``make`` or
    CI).  ``workers`` overrides the thread counts of the
    partition-parallel case; ``rows`` overrides the row count of
    every row-parameterised case (CLI: ``--rows 1000000`` — pair it
    with ``--suite`` so a sweep writes its own files).  ``only``
    keeps just the cases whose name contains one of the given
    substrings (CLI: ``--case kernel_eval``); pair it with ``suite``
    so the filtered run writes its own file instead of overwriting
    the full suite's.
    """
    if rows is not None and rows < 1:
        raise InvalidArgumentError(
            f"rows override must be >= 1, got {rows}"
        )
    name = suite if suite is not None else ("smoke" if quick else "full")
    report = SuiteReport(suite=name, quick=quick, tolerance=tolerance)
    cases = cases_for(quick, workers=workers, rows=rows)
    if only:
        selected = [
            case
            for case in cases
            if any(token in case.name for token in only)
        ]
        if not selected:
            available = ", ".join(case.name for case in cases)
            raise InvalidArgumentError(
                f"--case {list(only)} matches no bench case; "
                f"available: {available}"
            )
        cases = selected
    for case in cases:
        report.cases.append(run_case(case, tolerance))
    payload = report.as_payload()
    assert_valid(payload)
    directory = out_dir if out_dir is not None else os.getcwd()
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    report.path = path
    return report
