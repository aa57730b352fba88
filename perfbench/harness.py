"""One benchmark run: set-up, spin, warm-up, timed phase(s), report.

``--trace 0`` reports the end-to-end metrics of an untraced timed
phase.  ``--trace 1`` alternates untraced and traced blocks and
reports the per-layer metrics (:mod:`perfbench.layers`).
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.boolean.reduction import reduction_cache_stats
from repro.kernels.compiler import compile_cache_stats

from perfbench import measure
from perfbench.layers import LAYER_METRICS, layer_metrics
from perfbench.tracer import Tracer, reconcile, self_times
from perfbench.workloads import CLASSES, WORKLOADS, Op, Oracle, Workload

#: End-to-end metrics and their units, in report order.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "setup_rss_mb": "MiB",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "count_p50_ms": "ms",
    "count_p90_ms": "ms",
    "rows_p50_ms": "ms",
    "rows_p90_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "disk_bytes_per_row": "B/row",
}

#: Largest tolerated gap (seconds) between a traced operation's
#: duration and the sum of its blocking-chain self times.
RECONCILE_TOLERANCE_S = 1e-6


class Run:
    """State of one run: the workload, its oracle and the tallies."""

    def __init__(self, workload: Workload, work_dir: str) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.oracle: Optional[Oracle] = None
        self.blocks: Optional[Iterator[List[Op]]] = None
        self.digest = hashlib.sha256()
        self.mixes: List[Tuple[int, ...]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.request = 0
        self.setup_times: List[float] = []
        self.calibrator = measure.Calibrator()
        #: RSS (MiB) with the inputs and the oracle in place, before
        #: the first build: the benchmark's own share, subtracted from
        #: both RSS metrics.
        self.baseline_rss = 0.0
        self.setup_rss = 0.0
        #: Seconds spent checking answers against the oracle.
        self.check_seconds = 0.0

    # -- set-up ------------------------------------------------------------
    def setup(self, builds: int) -> None:
        """Build the database ``builds`` times and keep the last.

        Each build starts from the same heap: the previous database is
        closed, dropped and collected first.
        """
        wl = self.workload
        self.oracle = wl.oracle()
        self.blocks = wl.blocks()
        gc.collect()
        self.baseline_rss = measure.rss_mib()
        db = directory = None
        for i in range(builds):
            if db is not None:
                db.close()
                db = None
                shutil.rmtree(directory, ignore_errors=True)
            gc.collect()
            directory = os.path.join(self.work_dir, f"build{i}")
            db, seconds = wl.build(directory)
            self.setup_times.append(seconds)
        wl.attach(db, directory)
        self.setup_rss = measure.rss_mib() - self.baseline_rss

    def late_builds(self, builds: int) -> None:
        """Time ``builds`` more identical builds after the timed phase,
        each discarded.  Spreading the builds over the run means a slow
        host episode of a few seconds moves only a minority of them."""
        for i in range(builds):
            gc.collect()
            directory = os.path.join(self.work_dir, f"late{i}")
            db, seconds = self.workload.build(directory)
            self.setup_times.append(seconds)
            db.close()
            del db
            shutil.rmtree(directory, ignore_errors=True)

    # -- driving -----------------------------------------------------------
    def next_block(self) -> List[Op]:
        block = next(self.blocks)
        for op in block:
            self.digest.update(op.describe().encode())
        self.mixes.append(tuple(sum(op.cls == c for op in block) for c in CLASSES))
        return block

    def run_op(self, op: Op, tracer: Optional[Tracer] = None) -> Tuple[float, bool, Any]:
        """Time one operation, then check it against the oracle."""
        self.request += 1
        if tracer is not None:
            tracer.begin(self.request, f"op.{op.cls}")
        start = time.perf_counter()
        try:
            answer, result = self.workload.execute(op)
            error = None
        except Exception as exc:  # a refused or failed operation
            answer = result = None
            error = exc
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        self.attempted += 1
        check_start = time.perf_counter()
        ok = error is None and self.oracle.check(op, answer)
        self.check_seconds += time.perf_counter() - check_start
        if not ok:
            self.failed += 1
            if error is None:
                self.mismatches += 1
            if self.failed <= 3:
                detail = (
                    "".join(traceback.format_exception(error))
                    if error is not None
                    else "answer differs from the oracle"
                )
                print(f"failed {op.describe()[:200]}: {detail}", file=sys.stderr)
        return seconds, ok, (answer, result)

    def phase(
        self,
        seconds: float,
        max_blocks: Optional[int],
        on_op: Callable[[Op, Any], None],
        tracer: Optional[Tracer] = None,
    ) -> List[measure.Block]:
        """Run whole blocks until ``seconds`` of program time have
        been measured, or ``max_blocks`` blocks.

        A block's program time is its wall time minus the harness's
        own work inside it (oracle checks and ``on_op`` sampling).  A
        workload with a cycle runs ``seconds / cycle_seconds`` whole
        cycles (at least one) instead, so every run samples the same
        delta-tier states.  With a ``tracer``, odd blocks run traced:
        the wrappers are installed for that block only and every
        original is checked back in place afterwards.
        """
        wl = self.workload
        if max_blocks is None and wl.cycle_blocks > 1:
            max_blocks = wl.cycle_blocks * max(1, round(seconds / wl.cycle_seconds))
        records: List[measure.Block] = []
        self.calibrator.take()
        busy = 0.0
        while True:
            if max_blocks is not None:
                if len(records) >= max_blocks:
                    break
            elif busy >= seconds:
                break
            traced = tracer if tracer is not None and len(records) % 2 else None
            ops = self.next_block()
            if traced is not None:
                traced.install()
            block_ops = []
            harness = -self.check_seconds
            start = time.perf_counter()
            try:
                for op in ops:
                    mark = time.perf_counter()
                    on_op(op, None)
                    harness += time.perf_counter() - mark
                    elapsed, ok, outcome = self.run_op(op, traced)
                    mark = time.perf_counter()
                    on_op(op, outcome)
                    self.calibrator.maybe()
                    harness += time.perf_counter() - mark
                    block_ops.append((op.cls, elapsed, ok))
            finally:
                wall = time.perf_counter() - start
                if traced is not None:
                    traced.uninstall()
                    traced.check_restored()
            program = wall - harness - self.check_seconds
            busy += program
            records.append(
                measure.Block(program, block_ops, self.calibrator.take())
            )
        return records


# ----------------------------------------------------------------------
# exact counts around a phase (public state only)
# ----------------------------------------------------------------------
class PhaseCounts:
    """Deltas of the program's public counters across a phase."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.planes_read = 0
        self.rows_appended = 0
        self._start = self._sample()
        self._os = measure.OsSampler()

    def _sample(self) -> Dict[str, int]:
        wl = self.wl
        red = reduction_cache_stats()
        comp = compile_cache_stats()
        cache = wl.db.result_cache
        residency = wl.residency()
        return {
            "reduce_hits": red[0],
            "reduce_misses": red[1],
            "compile_hits": comp[0],
            "compile_misses": comp[1],
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "faults": residency.get("faults", 0),
            "prefetches": residency.get("prefetches", 0),
            "compactions": sum(ix.compactions for ix in wl.encoded_indexes()),
        }

    def observe(self, op: Op, outcome: Any) -> None:
        """Per-operation tally: planes read by executed (uncached)
        reads, rows acknowledged by writes."""
        if outcome is None:
            return
        answer, result = outcome
        if result is not None and not result.cached:
            self.planes_read += result.cost.vectors_accessed
        if op.cls == "write" and answer is not None:
            self.rows_appended += len(answer)

    def finish(self) -> Dict[str, Any]:
        end = self._sample()
        out: Dict[str, Any] = {k: end[k] - self._start[k] for k in end}
        out.update(self._os.finish())
        out["planes_read"] = self.planes_read
        out["rows_appended"] = self.rows_appended
        out["peak_resident_bytes"] = self.wl.residency().get("peak_resident_bytes", 0)
        out["disk_bytes_per_row"] = self.wl.disk_bytes_per_row()
        return out


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    max_blocks: Optional[int] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(result line, exact counts)``."""
    measure.pin_one_cpu()
    wl = WORKLOADS[name](seed)
    run = Run(wl, work_dir)
    try:
        run.setup(1 if trace else wl.builds - wl.builds // 2)
        measure.spin()
        for _ in range(wl.warmup_blocks):
            for op in run.next_block():
                run.run_op(op)
        if trace:
            metrics, counts = _traced(run, seconds, max_blocks)
        else:
            metrics, counts = _untraced(run, seconds, max_blocks)
        counts["ops_digest"] = run.digest.hexdigest()
        counts["block_mix"] = sorted(set(run.mixes))
    finally:
        wl.close()
    result = {
        "correct": run.mismatches == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, counts


def _untraced(
    run: Run, seconds: float, max_blocks: Optional[int]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    wl = run.workload
    measure.reset_hwm()
    counts = PhaseCounts(wl)
    records = run.phase(seconds, max_blocks, counts.observe)
    peak = measure.hwm_mib()
    exact = counts.finish()
    wl.close()
    run.late_builds(wl.builds // 2)
    values = measure.segment_summary(records, CLASSES, wl.cycle_blocks)
    # The plain wall-clock figures go on the counts line.
    wall = measure.segment_summary(records, CLASSES, wl.cycle_blocks, normalise=False)
    wall["setup_s"] = statistics.median(run.setup_times)
    exact["wall"] = wall
    units = [u for block in records for u in block.calibration]
    exact["calibration_ms"] = 1e3 * statistics.fmean(units)
    # The builds are spread over the run, so the run's host speed
    # scales their median.
    values["setup_s"] = wall["setup_s"] * measure.speed(units)
    values["setup_rss_mb"] = run.setup_rss
    values["peak_rss_mb"] = peak - run.baseline_rss
    values["disk_bytes_per_row"] = exact["disk_bytes_per_row"]
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, exact


def _traced(
    run: Run, seconds: float, max_blocks: Optional[int]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Alternate untraced and traced blocks over one phase, so both
    halves see the same program state; the traced half gives the
    spans, the pair gives ``trace.overhead_ratio``."""
    wl = run.workload
    tracer = Tracer()
    counts = PhaseCounts(wl)
    samples = {"delta_rows": 0.0, "rows_returned": 0.0}

    def on_op(op: Op, outcome: Any) -> None:
        if outcome is None:
            if op.cls != "write":
                samples["delta_rows"] += sum(
                    ix.delta_rows() for ix in wl.encoded_indexes()
                )
            return
        counts.observe(op, outcome)
        if op.cls == "rows" and outcome[0] is not None:
            samples["rows_returned"] += len(outcome[0])

    attempted, failed = run.attempted, run.failed
    records = run.phase(seconds, max_blocks, on_op, tracer=tracer)
    exact = counts.finish()

    selfs = self_times(tracer.spans, tracer.roots)
    gap = reconcile(tracer.spans, tracer.roots, selfs)
    if gap > RECONCILE_TOLERANCE_S:
        raise RuntimeError(f"layer self times miss the traced time by {gap:.3g} s")
    half = max(1, wl.cycle_blocks // 2)
    samples["untraced_ops_per_s"] = measure.segment_summary(
        records[0::2], CLASSES, half
    )["ops_per_s"]
    samples["traced_ops_per_s"] = measure.segment_summary(
        records[1::2], CLASSES, half
    )["ops_per_s"]
    samples["attempted"] = run.attempted - attempted
    samples["failed"] = run.failed - failed
    phase_ops = {cls: 0 for cls in CLASSES}
    for block in records:
        for cls, _seconds, _ok in block.ops:
            phase_ops[cls] += 1
    traced_ops = {root.request: root.name[len("op."):] for root in tracer.roots}
    values = layer_metrics(
        tracer.spans, tracer.roots, selfs, traced_ops, phase_ops, exact, samples
    )
    metrics = {name: _metric(values[name], unit) for name, unit in LAYER_METRICS.items()}
    return metrics, exact
