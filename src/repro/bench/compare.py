"""Measured-vs-predicted comparison for the bench harness.

The paper's value is that its cost models *predict* what a real index
does; every bench case therefore pairs each measurement with the
model's number and one of four relation modes:

* ``eq``     — must match exactly (integer access counts),
* ``le``     — measured must not exceed the prediction (upper bounds
  such as ``c_e_worst``),
* ``ge``     — measured must reach the prediction (lower bounds),
* ``approx`` — relative divergence within the suite tolerance
  (aggregate or noisy quantities).

Each line also states its ``kind`` — what a failure would mean:

* ``identity`` — a correctness contract: a mismatch, failure or error
  count that must be 0, or an exact answer (rows, ``c_e``);
* ``model``    — a deterministic count, size or ratio against the
  paper's cost model or a structural bound;
* ``perf``     — a wall-clock time, throughput or speedup; it depends
  on the host and its load.

Identity and model lines are deterministic for a given seed; perf
lines are not (see :func:`deterministic_ok`).

>>> compare("c_e", measured=1, predicted=1, kind="model").ok
True
>>> compare("c_e", measured=3, predicted=2, mode="le", kind="model").ok
False
>>> compare(
...     "ratio", 0.86, 0.84, mode="approx", tolerance=0.05, kind="perf"
... ).ok
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable

from repro.bench.schema import COMPARISON_KINDS, COMPARISON_MODES
from repro.errors import InvalidArgumentError


@dataclass(frozen=True)
class Comparison:
    """One measured-vs-predicted pairing and its verdict."""

    label: str
    measured: float
    predicted: float
    mode: str
    unit: str
    divergence: float
    ok: bool
    kind: str

    def describe(self) -> str:
        relation = {"eq": "==", "le": "<=", "ge": ">=", "approx": "~"}[
            self.mode
        ]
        status = "ok" if self.ok else "DIVERGENT"
        return (
            f"{self.label}: measured {self.measured:g} "
            f"{relation} predicted {self.predicted:g} {self.unit} "
            f"[{status}, {self.kind}, divergence {self.divergence:.1%}]"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "unit": self.unit,
            "measured": self.measured,
            "predicted": self.predicted,
            "mode": self.mode,
            "kind": self.kind,
            "divergence": self.divergence,
            "ok": self.ok,
        }


def divergence(measured: float, predicted: float) -> float:
    """Relative divergence of a measurement from its prediction."""
    scale = max(abs(predicted), 1.0)
    return abs(measured - predicted) / scale


def compare(
    label: str,
    measured: float,
    predicted: float,
    mode: str = "eq",
    unit: str = "accesses",
    tolerance: float = 0.25,
    *,
    kind: str,
) -> Comparison:
    """Judge one measurement against its model prediction."""
    if mode not in COMPARISON_MODES:
        raise InvalidArgumentError(
            f"mode must be one of {COMPARISON_MODES}, got {mode!r}"
        )
    if kind not in COMPARISON_KINDS:
        raise InvalidArgumentError(
            f"kind must be one of {COMPARISON_KINDS}, got {kind!r}"
        )
    if tolerance < 0:
        raise InvalidArgumentError(
            f"tolerance must be >= 0, got {tolerance}"
        )
    spread = divergence(measured, predicted)
    if mode == "eq":
        ok = measured == predicted
    elif mode == "le":
        ok = measured <= predicted
    elif mode == "ge":
        ok = measured >= predicted
    else:  # approx
        ok = spread <= tolerance
    return Comparison(
        label=label,
        measured=float(measured),
        predicted=float(predicted),
        mode=mode,
        unit=unit,
        divergence=spread,
        ok=ok,
        kind=kind,
    )


def all_ok(comparisons: Iterable[Comparison]) -> bool:
    """True when every comparison held."""
    return all(c.ok for c in comparisons)


def deterministic_ok(comparisons: Iterable[Comparison]) -> bool:
    """True when every identity and model comparison held; perf
    lines, which depend on the host's speed and load, are ignored."""
    return all(c.ok for c in comparisons if c.kind != "perf")
