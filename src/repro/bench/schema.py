"""The versioned ``BENCH_*.json`` schema.

Every file the harness emits carries ``schema_version`` so downstream
consumers (CI's ``bench-smoke`` job, regression dashboards) can detect
incompatible layouts instead of silently misreading them.  Validation
is hand-rolled — the container has no ``jsonschema`` — and reports
*all* violations, not just the first.

Layout (version 4)::

    {
      "schema_version": 4,
      "suite": "smoke",
      "quick": true,
      "tolerance": 0.25,
      "ok": true,
      "cases": [
        {
          "name": "fig9_small",
          "description": "...",
          "wall_seconds": 0.012,
          "cpu_seconds": 0.011,
          "ok": true,
          "metrics": {"evaluator.vector_reads": 42, ...},
          "workers": [1, 4],          # optional: parallel cases only
          "latency_percentiles": {    # optional: serving cases only
            "p50_ms": 1.4,
            "p99_ms": 9.8
          },
          "tenants": [                # optional: serving cases only
            {
              "tenant": "tenant-0",
              "completed": 412,
              "failed": 3,
              "p50_ms": 1.3,
              "p99_ms": 10.2
            }
          ],
          "results": [
            {
              "label": "delta=8 measured c_s",
              "unit": "vectors",
              "measured": 8,
              "predicted": 8,
              "mode": "eq",
              "kind": "model",
              "divergence": 0.0,
              "ok": true
            }
          ]
        }
      ]
    }

``mode`` states how ``measured`` relates to ``predicted``: exact
(``eq``), bounded (``le`` / ``ge``) or within relative tolerance
(``approx``).  ``kind`` states what the line checks: a correctness
contract (``identity``), a deterministic model quantity (``model``) or
a host-dependent timing (``perf``).  See :mod:`repro.bench.compare`
for the semantics and ``docs/benchmarks.md`` for the full contract.

Version history: version 2 added the optional per-case ``workers``
key — the thread counts a partition-parallel case ran with.  Version
3 added the optional serving-tier keys: ``latency_percentiles`` (a
string → milliseconds map for the case's overall latency quantiles)
and ``tenants`` (per-tenant accounting rows — tenant id, request
counts, latency quantiles).  Cases without them serialize exactly as
in earlier versions.  Version 4 made every result carry ``kind``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

from repro.errors import BenchSchemaError

SCHEMA_VERSION = 4

COMPARISON_MODES = ("eq", "le", "ge", "approx")

#: What a comparison line checks (see :mod:`repro.bench.compare`).
COMPARISON_KINDS = ("identity", "model", "perf")

_NUMBER: Tuple[type, ...] = (int, float)

_Spec = Dict[str, Union[type, Tuple[type, ...]]]

_TOP_LEVEL_KEYS: _Spec = {
    "schema_version": int,
    "suite": str,
    "quick": bool,
    "tolerance": _NUMBER,
    "ok": bool,
    "cases": list,
}

_CASE_KEYS: _Spec = {
    "name": str,
    "description": str,
    "wall_seconds": _NUMBER,
    "cpu_seconds": _NUMBER,
    "ok": bool,
    "metrics": dict,
    "results": list,
}

#: Keys a case may carry but need not (``workers`` since schema
#: version 2; ``latency_percentiles`` and ``tenants`` since 3).
_CASE_OPTIONAL_KEYS: _Spec = {
    "workers": list,
    "latency_percentiles": dict,
    "tenants": list,
}

_RESULT_KEYS: _Spec = {
    "label": str,
    "unit": str,
    "measured": _NUMBER,
    "predicted": _NUMBER,
    "mode": str,
    "kind": str,
    "divergence": _NUMBER,
    "ok": bool,
}


def _check_keys(
    obj: Dict[str, Any],
    spec: _Spec,
    where: str,
    problems: List[str],
    optional: Union[_Spec, None] = None,
) -> None:
    optional = optional or {}
    for key, expected in spec.items():
        if key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            continue
        _check_type(obj[key], expected, f"{where}.{key}", problems)
    for key, expected in optional.items():
        if key in obj:
            _check_type(obj[key], expected, f"{where}.{key}", problems)
    for key in obj:
        if key not in spec and key not in optional:
            problems.append(f"{where}: unknown key {key!r}")


def _check_type(
    value: Any,
    expected: Union[type, Tuple[type, ...]],
    where: str,
    problems: List[str],
) -> None:
    # bool is an int subclass; don't let it satisfy numeric slots.
    if expected is not bool and isinstance(value, bool):
        problems.append(f"{where}: expected {expected}, got bool")
        return
    if not isinstance(value, expected):
        problems.append(
            f"{where}: expected {expected}, "
            f"got {type(value).__name__}"
        )


def validate_payload(payload: Any) -> List[str]:
    """Return every schema violation in ``payload`` (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    _check_keys(payload, _TOP_LEVEL_KEYS, "payload", problems)
    version = payload.get("schema_version")
    if isinstance(version, int) and version != SCHEMA_VERSION:
        problems.append(
            f"payload.schema_version: expected {SCHEMA_VERSION}, "
            f"got {version}"
        )
    cases = payload.get("cases")
    if not isinstance(cases, list):
        return problems
    if not cases:
        problems.append("payload.cases: must contain at least one case")
    for i, case in enumerate(cases):
        where = f"cases[{i}]"
        if not isinstance(case, dict):
            problems.append(f"{where}: expected object")
            continue
        _check_keys(
            case, _CASE_KEYS, where, problems,
            optional=_CASE_OPTIONAL_KEYS,
        )
        workers = case.get("workers")
        if isinstance(workers, list):
            if not workers:
                problems.append(f"{where}.workers: must not be empty")
            for j, count in enumerate(workers):
                if isinstance(count, bool) or not isinstance(
                    count, int
                ) or count < 1:
                    problems.append(
                        f"{where}.workers[{j}]: expected int >= 1"
                    )
        percentiles = case.get("latency_percentiles")
        if isinstance(percentiles, dict):
            if not percentiles:
                problems.append(
                    f"{where}.latency_percentiles: must not be empty"
                )
            for name, value in percentiles.items():
                if not isinstance(name, str):
                    problems.append(
                        f"{where}.latency_percentiles: non-string key"
                    )
                elif isinstance(value, bool) or not isinstance(
                    value, _NUMBER
                ):
                    problems.append(
                        f"{where}.latency_percentiles[{name!r}]: "
                        "expected number"
                    )
        tenants = case.get("tenants")
        if isinstance(tenants, list):
            if not tenants:
                problems.append(f"{where}.tenants: must not be empty")
            for j, tenant in enumerate(tenants):
                twhere = f"{where}.tenants[{j}]"
                if not isinstance(tenant, dict):
                    problems.append(f"{twhere}: expected object")
                    continue
                if not isinstance(tenant.get("tenant"), str):
                    problems.append(
                        f"{twhere}.tenant: expected string"
                    )
                for name, value in tenant.items():
                    if name == "tenant":
                        continue
                    if isinstance(value, bool) or not isinstance(
                        value, _NUMBER
                    ):
                        problems.append(
                            f"{twhere}[{name!r}]: expected number"
                        )
        metrics = case.get("metrics")
        if isinstance(metrics, dict):
            for name, value in metrics.items():
                if not isinstance(name, str):
                    problems.append(f"{where}.metrics: non-string key")
                elif isinstance(value, bool) or not isinstance(
                    value, _NUMBER
                ):
                    problems.append(
                        f"{where}.metrics[{name!r}]: expected number"
                    )
        results = case.get("results")
        if not isinstance(results, list):
            continue
        if not results:
            problems.append(f"{where}.results: must not be empty")
        for j, result in enumerate(results):
            rwhere = f"{where}.results[{j}]"
            if not isinstance(result, dict):
                problems.append(f"{rwhere}: expected object")
                continue
            _check_keys(result, _RESULT_KEYS, rwhere, problems)
            mode = result.get("mode")
            if isinstance(mode, str) and mode not in COMPARISON_MODES:
                problems.append(
                    f"{rwhere}.mode: {mode!r} not in "
                    f"{COMPARISON_MODES}"
                )
            kind = result.get("kind")
            if isinstance(kind, str) and kind not in COMPARISON_KINDS:
                problems.append(
                    f"{rwhere}.kind: {kind!r} not in "
                    f"{COMPARISON_KINDS}"
                )
    return problems


def assert_valid(payload: Any) -> None:
    """Raise :class:`~repro.errors.BenchSchemaError` when invalid."""
    problems = validate_payload(payload)
    if problems:
        raise BenchSchemaError(
            f"BENCH payload has {len(problems)} schema violation(s): "
            + "; ".join(problems[:5])
            + ("; ..." if len(problems) > 5 else ""),
            violations=problems,
        )
