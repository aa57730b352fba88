"""Per-layer metrics from a traced phase.

Every time is the *self* time of the named span (its duration minus
its blocking children), summed within each operation and averaged
over the operations of the class named in :data:`LAYER_METRICS`.
Summed over all layers, plus ``client.unattributed_ms``, these add up
to the traced end-to-end time of the operations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from perfbench.tracer import Span, blocking_children, overlap

#: name -> (unit, span name, operation classes it is averaged over)
SPAN_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "serving.handoff_ms": ("ms/read", "Server.query", ("count", "rows")),
    "serving.cache_key_ms": ("ms/read", "cache_key", ("count", "rows")),
    "serving.cache_lookup_ms": ("ms/read", "ResultCache.lookup", ("count", "rows")),
    "serving.cache_store_ms": ("ms/read", "ResultCache.store", ("count", "rows")),
    "database.query_self_ms": ("ms/read", "Database.query", ("count", "rows")),
    "query.plan_ms": ("ms/read", "Planner.plan", ("count", "rows")),
    "query.execute_self_ms": ("ms/read", "Executor.execute", ("count", "rows")),
    "query.count_ms": ("ms/read", "QueryResult.count", ("count",)),
    "query.row_ids_ms": ("ms/read", "QueryResult.row_ids", ("rows",)),
    "index.lookup_self_ms": ("ms/read", "Index.lookup", ("count", "rows")),
    "index.reduced_function_self_ms": (
        "ms/read", "EncodedBitmapIndex.reduced_function", ("count", "rows")),
    "boolean.reduce_ms": ("ms/read", "reduce_values", ("count", "rows")),
    "kernels.compile_ms": ("ms/read", "compile_function", ("count", "rows")),
    "kernels.evaluate_ms": ("ms/read", "CompiledKernel.evaluate", ("count", "rows")),
    "shard.execute_many_self_ms": (
        "ms/read", "ParallelExecutor.execute_many", ("count", "rows")),
    "shard.partition_ms": ("ms/read", "run_partition_batch", ("count", "rows")),
    "residency.acquire_ms": ("ms/read", "ResidencyManager.acquire", ("count", "rows")),
    "database.append_self_ms": ("ms/write", "Database.append_rows", ("write",)),
    "table.append_rows_ms": ("ms/write", "Table.append_rows", ("write",)),
    "index.on_append_ms": ("ms/write", "EncodedBitmapIndex.on_append", ("write",)),
    "index.compact_ms": ("ms/write", "EncodedBitmapIndex.compact", ("write",)),
}

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS: Dict[str, str] = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    "serving.cache_hit_ratio": "ratio",
    "serving.failed_ratio": "ratio",
    "query.rows_per_read": "rows",
    "index.delta_rows_mean": "rows",
    "index.compactions": "1/write",
    "boolean.reduce_calls_per_read": "1/read",
    "boolean.reduce_cache_hit_ratio": "ratio",
    "kernels.compile_hit_ratio": "ratio",
    "kernels.planes_read_per_read": "planes",
    "kernels.plane_gb_per_s": "GB/s",
    "residency.prefetch_ms": "ms/read",
    "residency.prefetch_overlap_ratio": "ratio",
    "residency.faults_per_read": "1/read",
    "residency.prefetches_per_read": "1/read",
    "residency.useful_prefetch_ratio": "ratio",
    "residency.peak_resident_mb": "MiB",
    "os.rchar_kb_per_read": "KiB",
    "os.minflt_per_read": "1/read",
    "os.majflt_per_read": "1/read",
    "client.unattributed_ms": "ms/op",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[Span],
    roots: List[Span],
    selfs: Dict[int, float],
    traced_ops: Dict[int, str],
    phase_ops: Dict[str, int],
    counts: Dict[str, Any],
    samples: Dict[str, float],
) -> Dict[str, float]:
    """Compute every :data:`LAYER_METRICS` value.

    Span times are averaged over the traced operations
    (``traced_ops`` maps request id to class); counters and samples
    cover the whole phase and are averaged over ``phase_ops`` (class
    to operation count).  ``counts`` holds the phase's counter deltas
    (``harness.PhaseCounts``), ``samples`` per-operation samples summed
    over the phase.
    """
    n_ops = {cls: 0 for cls in phase_ops}
    for cls in traced_ops.values():
        n_ops[cls] += 1
    traced_reads = n_ops["count"] + n_ops["rows"]
    reads = phase_ops["count"] + phase_ops["rows"]
    writes = phase_ops["write"]

    total: Dict[Tuple[str, str], float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        cls = traced_ops[span.request]
        total[(span.name, cls)] += selfs[id(span)]
        calls[span.name] += 1

    out: Dict[str, float] = {}
    for name, (_unit, span_name, classes) in SPAN_METRICS.items():
        ops = sum(n_ops[c] for c in classes)
        seconds = sum(total[(span_name, c)] for c in classes)
        out[name] = _ratio(seconds * 1e3, ops)

    prefetch = [s for s in spans if s.name == "ResidencyManager.prefetch"]
    children = blocking_children(spans)
    hidden = sum(
        overlap(s, children.get(id(s.parent), ())) for s in prefetch
    )
    busy = sum(s.duration for s in prefetch)
    out["residency.prefetch_ms"] = _ratio(busy * 1e3, traced_reads)
    out["residency.prefetch_overlap_ratio"] = _ratio(hidden, busy)
    out["residency.useful_prefetch_ratio"] = _useful_prefetches(spans)

    evaluated = sum(
        selfs[id(s)] for s in spans if s.name == "CompiledKernel.evaluate"
    )
    moved = sum(
        s.info or 0 for s in spans if s.name == "CompiledKernel.evaluate"
    )
    out["kernels.plane_gb_per_s"] = _ratio(moved / 1e9, evaluated)
    out["boolean.reduce_calls_per_read"] = _ratio(
        calls["reduce_values"], traced_reads
    )

    unattributed = sum(selfs[id(r)] for r in roots)
    traced = sum(r.duration for r in roots)
    out["client.unattributed_ms"] = _ratio(unattributed * 1e3, len(roots))
    out["trace.coverage_ratio"] = 1.0 - _ratio(unattributed, traced)
    out["trace.overhead_ratio"] = _ratio(
        samples["untraced_ops_per_s"], samples["traced_ops_per_s"]
    )

    out["serving.cache_hit_ratio"] = _ratio(
        counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
    )
    out["serving.failed_ratio"] = _ratio(samples["failed"], samples["attempted"])
    out["query.rows_per_read"] = _ratio(samples["rows_returned"], phase_ops["rows"])
    out["index.delta_rows_mean"] = _ratio(samples["delta_rows"], reads)
    out["index.compactions"] = _ratio(counts["compactions"], writes)
    out["boolean.reduce_cache_hit_ratio"] = _ratio(
        counts["reduce_hits"], counts["reduce_hits"] + counts["reduce_misses"]
    )
    out["kernels.compile_hit_ratio"] = _ratio(
        counts["compile_hits"], counts["compile_hits"] + counts["compile_misses"]
    )
    out["kernels.planes_read_per_read"] = _ratio(counts["planes_read"], reads)
    out["residency.faults_per_read"] = _ratio(counts["faults"], reads)
    out["residency.prefetches_per_read"] = _ratio(counts["prefetches"], reads)
    out["residency.peak_resident_mb"] = counts["peak_resident_bytes"] / float(1 << 20)
    out["os.rchar_kb_per_read"] = _ratio(counts["rchar"] / 1024.0, reads)
    out["os.minflt_per_read"] = _ratio(counts["minflt"], reads)
    out["os.majflt_per_read"] = _ratio(counts["majflt"], reads)
    return {name: out[name] for name in LAYER_METRICS}


def _useful_prefetches(spans: List[Span]) -> float:
    """Share of prefetches that read a file and whose partition's next
    acquire was warm (no new fault)."""
    events = sorted(
        (s for s in spans
         if s.name in ("ResidencyManager.prefetch", "ResidencyManager.acquire")
         and s.info is not None),
        key=lambda s: s.start,
    )
    pending: Dict[int, bool] = {}
    useful = issued = 0
    for span in events:
        # prefetch: (partition, read a file); acquire: (partition, faulted)
        partition, happened = span.info
        if span.name == "ResidencyManager.prefetch":
            if happened:
                issued += 1
                pending[partition] = True
        elif pending.pop(partition, False) and not happened:
            useful += 1
    return _ratio(useful, issued)
