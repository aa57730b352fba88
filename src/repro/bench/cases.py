"""Self-contained bench cases behind ``repro bench``.

Each case mirrors one of the pytest benches under ``benchmarks/``
(named in its docstring) but runs without pytest so the harness can
execute it headlessly, pair every measurement with the paper model's
prediction, and serialize the lot into ``BENCH_*.json``.

A case is a plain function ``(tolerance) -> List[Comparison]`` — or,
when it has serving-tier extras to publish (latency percentiles,
per-tenant rows; schema version 3), ``(tolerance) -> CaseOutcome``;
the runner (:mod:`repro.bench.runner`) adds timing and the per-case
metric snapshot around it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.table.table import Table

from repro.analysis.cost_models import (
    c_e_best,
    c_e_worst,
    c_s,
    encoded_sparsity,
    simple_sparsity,
)
from repro.bench.compare import Comparison, compare
from repro.obs.metrics import get_registry
from repro.query.options import QueryOptions


@dataclass
class CaseOutcome:
    """Comparisons plus the optional serving-tier report extras.

    Most cases return a bare comparison list; a case that also has
    latency quantiles or per-tenant accounting to publish (the
    ``latency_percentiles`` / ``tenants`` keys of bench schema
    version 3) returns one of these instead.
    """

    comparisons: List[Comparison] = field(default_factory=list)
    #: Overall latency quantiles, name → milliseconds.
    latency_percentiles: Optional[Dict[str, float]] = None
    #: Per-tenant accounting rows: a ``tenant`` id plus numeric
    #: fields (request counts, latency quantiles).
    tenants: Optional[List[Dict[str, Any]]] = None


@dataclass(frozen=True)
class BenchCase:
    """A named, self-describing harness case."""

    name: str
    description: str
    run: Callable[[float], Union[List[Comparison], CaseOutcome]]
    #: Worker-thread counts a partition-parallel case ran with;
    #: serialized as the case's ``workers`` key (schema version 2).
    workers: Optional[Tuple[int, ...]] = None


def _fig9_table(m: int, n: int, seed: int) -> Table:
    from repro.workload.generators import build_table, uniform_column

    table: Table = build_table(
        f"fig9_m{m}", n, {"v": uniform_column(n, m, seed=seed)}
    )
    return table


def case_reduction(tolerance: float) -> List[Comparison]:
    """Mirrors ``benchmarks/bench_reduction.py``: exact vs greedy vs
    raw-DNF logical reduction on 12 contiguous selections (k = 8), plus
    the wall time of a reduction miss at two serving shapes."""
    from repro.boolean.reduction import minterm_dnf, reduce_values

    width, m, delta = 8, 200, 24
    dont_cares = list(range(m, 1 << width))
    selections = [
        list(range(start, start + delta))
        for start in (0, 16, 40, 77, 100, 131, 150, 176, 60, 88, 5, 123)
    ]
    totals = {"none": 0, "greedy": 0, "exact": 0}
    for codes in selections:
        totals["none"] += minterm_dnf(codes, width).vector_count()
        totals["greedy"] += reduce_values(
            codes, width, dont_cares=dont_cares, exact=False
        ).vector_count()
        totals["exact"] += reduce_values(
            codes, width, dont_cares=dont_cares, exact=True
        ).vector_count()

    # A 64-value column plus void at k = 7 (63 unused codes), IN-lists
    # of 1-4 codes; and 1,000 values plus void at k = 10 (23 unused
    # codes) under 128-code IN-lists, the heavy tail of the cover.
    rng = np.random.default_rng(7)
    small = _reduction_ms(
        [rng.choice(np.arange(1, 65), 1 + i % 4, replace=False) for i in range(64)],
        7,
        range(65, 1 << 7),
        repeats=5,
    )
    wide = _reduction_ms(
        [rng.choice(np.arange(1, 1001), 128, replace=False) for _ in range(64)],
        10,
        range(1001, 1 << 10),
        repeats=3,
    )
    # Only the medians gate; the quartiles and the tail are reported,
    # since one preempted draw moves a max but not a median.
    registry = get_registry()
    for name, times in (("k7_dc63", small), ("k10_in128", wide)):
        q1, q3 = np.percentile(times, [25, 75])
        registry.gauge(f"bench.reduction.{name}.q1_ms").set(float(q1))
        registry.gauge(f"bench.reduction.{name}.q3_ms").set(float(q3))
        registry.gauge(f"bench.reduction.{name}.max_ms").set(float(np.max(times)))
    return [
        compare(
            "raw minterm DNF reads all k vectors",
            totals["none"],
            len(selections) * c_e_worst(m),
            mode="eq",
            unit="vectors",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "exact cover never beats greedy upward",
            totals["exact"],
            totals["greedy"],
            mode="le",
            unit="vectors",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "reduction stays under the worst-case line",
            totals["exact"],
            len(selections) * c_e_worst(m),
            mode="le",
            unit="vectors",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "reduction miss median, k=7 with 63 don't-cares, 1-4 codes",
            float(np.median(small)),
            0.1,
            mode="le",
            unit="ms",
            tolerance=tolerance,
            kind="perf",
        ),
        compare(
            "reduction miss median, k=10 with 23 don't-cares, "
            "64 random 128-code lists",
            float(np.median(wide)),
            5.0,
            mode="le",
            unit="ms",
            tolerance=tolerance,
            kind="perf",
        ),
    ]


def _reduction_ms(
    selections: Sequence[np.ndarray],
    width: int,
    dont_cares: range,
    repeats: int,
) -> np.ndarray:
    """Best-of-``repeats`` wall time in ms of one uncached
    ``reduce_values`` per selection."""
    from repro.boolean.reduction import reduce_values

    times = []
    for selection in selections:
        codes = selection.tolist()
        best = float("inf")
        for _attempt in range(repeats):
            start = time.perf_counter()
            reduce_values(codes, width, dont_cares=dont_cares)
            best = min(best, time.perf_counter() - start)
        times.append(best * 1e3)
    return np.array(times)


def case_fig9_small(tolerance: float) -> List[Comparison]:
    """Mirrors ``benchmarks/bench_fig9.py`` (panel a, |A| = 50): real
    simple + aligned encoded indexes against the c_s / c_e curves."""
    from repro.encoding.mapping import MappingTable
    from repro.index.encoded_bitmap import EncodedBitmapIndex
    from repro.index.simple_bitmap import SimpleBitmapIndex
    from repro.query.predicates import InList

    m = 50
    table = _fig9_table(m, n=1500, seed=1)
    values = sorted(table.column("v").distinct_values())
    simple = SimpleBitmapIndex(table, "v")
    mapping = MappingTable.from_pairs([(v, v) for v in values])
    encoded = EncodedBitmapIndex(
        table, "v", encoding=mapping, void_mode="vector",
        null_mode="vector",
    )
    deltas = [1, 2, 4, 8, 16, 32]
    comparisons: List[Comparison] = []
    total_ce_measured = 0
    total_ce_best = 0
    for delta in deltas:
        selected = values[:delta]
        simple.lookup(InList("v", selected))
        comparisons.append(
            compare(
                f"delta={delta} simple bitmap cost c_s",
                simple.last_cost.vectors_accessed,
                c_s(delta),
                mode="eq",
                unit="vectors",
                tolerance=tolerance,
                kind="model",
            )
        )
        measured_ce = encoded.reduced_function(selected).vector_count()
        total_ce_measured += measured_ce
        total_ce_best += c_e_best(delta, m)
        comparisons.append(
            compare(
                f"delta={delta} encoded cost under worst case",
                measured_ce,
                c_e_worst(m),
                mode="le",
                unit="vectors",
                tolerance=tolerance,
                kind="model",
            )
        )
    comparisons.append(
        compare(
            "aligned encoding tracks best-case curve (total)",
            total_ce_measured,
            total_ce_best,
            mode="approx",
            unit="vectors",
            tolerance=tolerance,
            kind="model",
        )
    )
    return comparisons


def case_table1_example(tolerance: float) -> List[Comparison]:
    """The paper's first worked example through the full query stack:
    traced execution of ``A IN ('a','b')`` must read exactly the
    ``c_e_best(2, 3)`` vectors the model predicts (the reduced
    expression is ``B1'``)."""
    from repro.obs.demo import table1_scenario
    from repro.query.executor import Executor

    scenario = table1_scenario()
    executor = Executor(scenario.catalog)
    result = executor.select(
        scenario.table, scenario.predicate, trace=True
    )
    trace = result.trace
    assert trace is not None and trace.accesses
    measured = len(trace.accesses[0].vectors)
    return [
        compare(
            "traced reduced-expression vector reads = model c_e",
            measured,
            c_e_best(2, 3),
            mode="eq",
            unit="vectors",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "query selects the four a/b rows",
            result.count(),
            4,
            mode="eq",
            unit="rows",
            tolerance=tolerance,
            kind="identity",
        ),
    ]


def case_sparsity(tolerance: float) -> List[Comparison]:
    """Mirrors ``benchmarks/bench_sparsity.py``: measured vector
    sparsity against the Section 3.1 models."""
    from repro.index.encoded_bitmap import EncodedBitmapIndex
    from repro.index.simple_bitmap import SimpleBitmapIndex

    comparisons: List[Comparison] = []
    for m in (16, 64):
        table = _fig9_table(m, n=2000, seed=m)
        simple = SimpleBitmapIndex(table, "v")
        encoded = EncodedBitmapIndex(table, "v")
        comparisons.append(
            compare(
                f"m={m} simple sparsity ~ (m-1)/m",
                simple.average_sparsity(),
                simple_sparsity(m),
                mode="approx",
                unit="fraction",
                tolerance=tolerance,
                kind="model",
            )
        )
        comparisons.append(
            compare(
                f"m={m} encoded sparsity ~ 1/2",
                1.0 - encoded.average_density(),
                encoded_sparsity(),
                mode="approx",
                unit="fraction",
                tolerance=tolerance,
                kind="model",
            )
        )
    return comparisons


def case_page_io(tolerance: float) -> List[Comparison]:
    """Mirrors ``benchmarks/bench_page_io.py``: page-level reads keep
    the encoded advantage, and the buffer pool amortises repeats."""
    from repro.index.paged import (
        PagedEncodedBitmapIndex,
        PagedSimpleBitmapIndex,
    )
    from repro.query.predicates import InList

    m, n, delta = 50, 8000, 16
    table = _fig9_table(m, n=n, seed=21)
    values = sorted(table.column("v").distinct_values())
    # The pool must hold one page per encoded vector (k = 6 at m = 50)
    # for the repeat lookup to be fully amortised.
    simple = PagedSimpleBitmapIndex(
        table, "v", page_size=1024, pool_capacity=16
    )
    encoded = PagedEncodedBitmapIndex(
        table, "v", page_size=1024, pool_capacity=16
    )
    predicate = InList("v", values[:delta])
    simple.store.stats.reset()
    simple.lookup(predicate)
    simple_pages = simple.store.stats.logical_reads
    encoded.store.stats.reset()
    encoded.lookup(predicate)
    encoded_pages = encoded.store.stats.logical_reads
    # Repeat the encoded lookup: pages come back from the pool.
    encoded.store.stats.reset()
    encoded.lookup(predicate)
    repeat_physical = encoded.store.stats.physical_reads
    return [
        compare(
            f"delta={delta} encoded page reads <= simple",
            encoded_pages,
            simple_pages,
            mode="le",
            unit="pages",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "repeat lookup is served from the buffer pool",
            repeat_physical,
            0,
            mode="eq",
            unit="pages",
            tolerance=tolerance,
            kind="model",
        ),
    ]


def case_worst_case(tolerance: float) -> List[Comparison]:
    """Mirrors ``benchmarks/bench_worst_case.py``: the Section 3.2
    area-ratio / savings numbers printed in the paper."""
    from repro.analysis.savings import worst_case_summary

    expectations: List[Tuple[int, float, float]] = [
        (50, 0.84, 0.83),
        (1000, 0.90, 0.90),
    ]
    comparisons: List[Comparison] = []
    for m, area_ratio, best_saving in expectations:
        summary = worst_case_summary(m)
        comparisons.append(
            compare(
                f"m={m} worst-case area ratio",
                round(summary.area_ratio, 2),
                area_ratio,
                mode="eq",
                unit="ratio",
                tolerance=tolerance,
                kind="model",
            )
        )
        comparisons.append(
            compare(
                f"m={m} peak point saving",
                summary.best_saving,
                best_saving,
                mode="ge",
                unit="fraction",
                tolerance=tolerance,
                kind="model",
            )
        )
    return comparisons


def case_parallel_scan(
    tolerance: float,
    *,
    n: int,
    workers: Sequence[int] = (1, 4),
) -> List[Comparison]:
    """Partition-parallel batched scan on an unindexed column.

    The speedup line compares the batched multi-worker partitioned
    scan (whole-column numpy comparisons per partition) against the
    classic single-threaded executor's row-by-row fallback scan on
    the same data — the path every query took before ``repro.shard``
    existed.  The thread-scaling line compares wall time across
    worker counts on the *same* partitioned path; on a single-CPU
    host it only asserts that extra workers do not pathologically
    slow things down (>= 0.5), while the determinism lines assert
    worker count never changes rows, counts, or merged metrics.
    """
    import time

    from repro.query.executor import Executor
    from repro.query.predicates import Equals, InList, Range
    from repro.shard.executor import ParallelExecutor
    from repro.shard.partition import PartitionedTable
    from repro.table.catalog import Catalog

    m = 97
    values = [i % m for i in range(n)]
    plain = Table.from_columns("scan_plain", {"v": values})
    ptable = PartitionedTable.from_columns(
        "scan_part", {"v": values}, partitions=4
    )
    predicates = [
        Range("v", 10, 30),
        Equals("v", 7),
        InList("v", [3, 5, 9, 60]),
        Range("v", 50, 80),
    ]

    catalog = Catalog()
    catalog.register_table(plain)
    classic = Executor(catalog)
    wall = time.perf_counter()
    reference = [classic.select(plain, p) for p in predicates]
    classic_seconds = time.perf_counter() - wall

    counts = sorted(set(workers))
    executor = ParallelExecutor(ptable, workers=max(counts))
    timings = {}
    outcomes = {}
    for count in counts:
        # Best of two runs: the first execution after table build
        # pays allocator/cache warm-up that would skew the ratio.
        best = float("inf")
        for _attempt in range(2):
            wall = time.perf_counter()
            outcomes[count] = executor.execute_many(
                predicates, QueryOptions(workers=count)
            )
            best = min(best, time.perf_counter() - wall)
        timings[count] = best
    low, high = counts[0], counts[-1]

    row_mismatches = sum(
        1
        for a, b in zip(outcomes[low], outcomes[high])
        if not np.array_equal(a.row_ids(), b.row_ids())
    )
    metric_mismatches = sum(
        1
        for a, b in zip(outcomes[low], outcomes[high])
        if a.metrics != b.metrics
    )
    reference_mismatches = sum(
        1
        for ref, res in zip(reference, outcomes[high])
        if not np.array_equal(ref.row_ids(), res.row_ids())
    )
    return [
        compare(
            f"speedup: batched {high}-worker partitioned scan vs "
            "classic row scan",
            classic_seconds / max(timings[high], 1e-9),
            2.0,
            mode="ge",
            unit="ratio",
            tolerance=tolerance,
            kind="perf",
        ),
        compare(
            f"thread scaling: {low}-worker / {high}-worker wall time",
            timings[low] / max(timings[high], 1e-9),
            0.5,
            mode="ge",
            unit="ratio",
            tolerance=tolerance,
            kind="perf",
        ),
        compare(
            "determinism: queries whose rows differ across worker "
            "counts",
            row_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "determinism: queries whose merged metrics differ across "
            "worker counts",
            metric_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "vectorized partition scan matches the classic reference "
            "rows",
            reference_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
    ]


#: Shape of the kernel-ablation bench: a shared global mapping over
#: ``KERNEL_DOMAIN`` values, split across ``KERNEL_PARTITIONS``
#: row-range partitions, queried by ``KERNEL_QUERIES`` distinct
#: IN-lists of ``KERNEL_DELTA`` values each (non-contiguous, so every
#: reduction goes through Quine-McCluskey rather than the interval
#: fast path).
KERNEL_PARTITIONS = 32
KERNEL_DOMAIN = 400
KERNEL_DELTA = 40
KERNEL_QUERIES = 6


def case_kernel_eval(
    tolerance: float,
    *,
    n: int,
    workers: Sequence[int] = (1, 4),
) -> List[Comparison]:
    """Compiled retrieval kernels + cache stack vs the reference walk.

    One partitioned index stack over one shared global mapping
    (compiled word-level kernels, process-wide reduction/compile
    caches) against the Section 3 reference computed directly on its
    children: for every partition, the ``reduce_values`` function of
    the predicate's codes, evaluated by the tree-walking
    ``evaluate_dnf`` over the child's vectors.  The speedup line times
    one *cold* batch of distinct IN-list queries each way at
    ``workers=1`` — every per-index and process-wide cache cleared
    first.  Both sides reduce each predicate once per pass (the kernel
    stack once per batch in its shared plan, the reference through a
    per-pass dict), so the line measures the compiled kernels against
    the tree walk, not the reduction.  Two model lines count the
    shared plan's derivations in one cold batch: one reduced function
    and one compile per predicate for all the partitions.

    The eq-0 lines pin the correctness contract: the kernel stack must
    return the reference's rows with the reference's access
    accounting (the paper's ``c_e``, summed over partitions), and
    must be deterministic across worker counts.  The popcount lines
    bench the word-popcount dispatch (``np.bitwise_count`` or the
    16-bit LUT) against the legacy ``unpackbits`` path on the same
    words.
    """
    import random
    import time

    from repro.bitmap.bitvector import BitVector
    from repro.bitmap.ops import (
        popcount_words,
        popcount_words_unpackbits,
    )
    from repro.boolean.evaluator import AccessCounter, evaluate_dnf
    from repro.boolean.reduction import (
        ReducedFunction,
        clear_reduction_cache,
        reduce_values,
    )
    from repro.encoding.mapping import MappingTable
    from repro.index.encoded_bitmap import EncodedBitmapIndex
    from repro.kernels import clear_compile_cache
    from repro.query.predicates import InList, Predicate
    from repro.shard.executor import ParallelExecutor
    from repro.shard.index import PartitionedIndex
    from repro.shard.partition import PartitionedTable

    values = [(i * 48271) % KERNEL_DOMAIN for i in range(n)]
    # One mapping for every partition: equal mappings let every
    # partition join the batch's shared plan (see repro.shard.executor's
    # module docstring).
    mapping = MappingTable.from_values(
        list(range(KERNEL_DOMAIN)), reserve_void_zero=True
    )
    rng = random.Random(97)
    predicates: List[Predicate] = [
        InList("v", sorted(rng.sample(range(KERNEL_DOMAIN), KERNEL_DELTA)))
        for _ in range(KERNEL_QUERIES)
    ]

    counts = sorted(set(workers))
    low, high = counts[0], counts[-1]
    ptable = PartitionedTable.from_columns(
        "kernel_eval", {"v": values}, partitions=KERNEL_PARTITIONS
    )
    children: List[EncodedBitmapIndex] = PartitionedIndex(
        ptable,
        "v",
        factory=lambda table, column: EncodedBitmapIndex(
            table, column, encoding=mapping
        ),
    ).children  # type: ignore[assignment]
    executor = ParallelExecutor(ptable, workers=high)

    # The reference reduces each distinct code set once per pass, as
    # the kernel stack's shared reduction cache does, so the speedup
    # line times kernels + compile cache against the tree walk, not the
    # reduction.
    reductions: Dict[Tuple[Tuple[int, ...], int], ReducedFunction] = {}

    def reference(predicate: Predicate) -> Tuple[BitVector, int]:
        """Rows and ``c_e`` of ``predicate`` by reduction and tree
        walk, partition by partition."""
        parts: List[BitVector] = []
        c_e = 0
        for child in children:
            codes = tuple(
                sorted(
                    child.mapping.encode(value)
                    for value in child.predicate_values(predicate)
                )
            )
            key = (codes, child.width)
            function = reductions.get(key)
            if function is None:
                function = reduce_values(
                    codes,
                    child.width,
                    dont_cares=child.mapping.dont_cares(),
                    exact=True,
                )
                reductions[key] = function
            counter = AccessCounter()
            parts.append(
                evaluate_dnf(
                    function, child.vector, len(child.table), counter
                )
            )
            c_e += counter.distinct_accesses
        return BitVector.concat(parts), c_e

    def clear_all() -> None:
        reductions.clear()
        for child in children:
            child.clear_caches()
        clear_reduction_cache()
        clear_compile_cache()

    def best_cold_seconds(run: Callable[[], object]) -> float:
        # Best of three fully-cold passes: each starts with every
        # per-index and process-wide cache empty, so a pass measures
        # the whole reduce -> (compile ->) evaluate pipeline, not a
        # warmed-up remnant of the previous one.
        best = float("inf")
        for _attempt in range(3):
            clear_all()
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    tree_seconds = best_cold_seconds(
        lambda: [reference(predicate) for predicate in predicates]
    )
    kernel_seconds = best_cold_seconds(
        lambda: executor.execute_many(predicates, QueryOptions(workers=1))
    )

    # One more cold batch, instrumented: every reduced-function call
    # is a per-index cache hit or miss, and every compile_function call
    # a compile-cache hit or miss, whether or not the work is reused.
    clear_all()
    kernel_high = executor.execute_many(
        predicates, QueryOptions(workers=high)
    )

    def per_predicate(prefix: str) -> float:
        calls = sum(
            result.metrics.get(f"{prefix}{event}", 0)
            for result in kernel_high
            for event in ("hits", "misses")
        )
        return calls / len(predicates)

    reduced_per_predicate = per_predicate("index.reduction_cache_")
    compiled_per_predicate = per_predicate("kernels.compile_cache.")
    # Warm runs for the determinism lines (cache state no longer
    # changes, so only worker count varies between the two).
    kernel_low = executor.execute_many(predicates, QueryOptions(workers=low))
    kernel_high = executor.execute_many(
        predicates, QueryOptions(workers=high)
    )
    references = [reference(predicate) for predicate in predicates]

    tree_row_mismatches = sum(
        1
        for result, (rows, _c_e) in zip(kernel_high, references)
        if not np.array_equal(result.row_ids(), rows.indices())
    )
    tree_ce_mismatches = sum(
        1
        for result, (_rows, c_e) in zip(kernel_high, references)
        if result.cost.vectors_accessed != c_e
    )
    worker_mismatches = sum(
        1
        for a, b in zip(kernel_low, kernel_high)
        if not np.array_equal(a.row_ids(), b.row_ids())
        or a.cost.vectors_accessed != b.cost.vectors_accessed
    )

    # Word-popcount dispatch vs the legacy unpackbits path, same words.
    nwords = 1 << 14 if n < PARALLEL_FULL_ROWS else 1 << 17
    words = np.arange(nwords, dtype=np.uint64)
    words = words * np.uint64(6364136223846793005) + np.uint64(
        1442695040888963407
    )
    words ^= words >> np.uint64(33)

    def best_of(run: Callable[[], int], repeats: int = 3) -> float:
        best = float("inf")
        for _attempt in range(repeats):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    fast_seconds = best_of(lambda: popcount_words(words))
    legacy_seconds = best_of(lambda: popcount_words_unpackbits(words))
    popcount_diff = abs(
        popcount_words(words) - popcount_words_unpackbits(words)
    )

    speedup_target = 5.0 if n >= PARALLEL_FULL_ROWS else 1.5
    return [
        compare(
            "speedup: compiled kernel + cache stack vs tree walk, "
            "cold batch, workers=1",
            tree_seconds / max(kernel_seconds, 1e-9),
            speedup_target,
            mode="ge",
            unit="ratio",
            tolerance=tolerance,
            kind="perf",
        ),
        compare(
            "determinism: queries whose rows differ, kernel vs tree",
            tree_row_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "determinism: queries whose c_e differs, kernel vs tree",
            tree_ce_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            f"determinism: kernel rows/c_e differ between workers="
            f"{low} and workers={high}",
            worker_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            f"shared plan: reductions per predicate in one cold batch "
            f"over {KERNEL_PARTITIONS} partitions",
            reduced_per_predicate,
            1,
            mode="eq",
            unit="reductions",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            f"shared plan: compiles per predicate in one cold batch "
            f"over {KERNEL_PARTITIONS} partitions",
            compiled_per_predicate,
            1,
            mode="eq",
            unit="compiles",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            f"popcount dispatch vs legacy unpackbits on {nwords} words",
            legacy_seconds / max(fast_seconds, 1e-9),
            1.2,
            mode="ge",
            unit="ratio",
            tolerance=tolerance,
            kind="perf",
        ),
        compare(
            "popcount dispatch agrees with the unpackbits reference",
            popcount_diff,
            0,
            mode="eq",
            unit="bits",
            tolerance=tolerance,
            kind="identity",
        ),
    ]


#: Threads / per-thread operations for the cache-contention case.
CONTENTION_THREADS = 4
CONTENTION_ITERATIONS = 36


def case_cache_contention(tolerance: float) -> List[Comparison]:
    """Mirrors ``tests/test_concurrency.py``: N threads hammer the
    process-wide reduction and compile caches through their public
    entry points under the dynamic sanitizer's instrumented locks
    (docs/concurrency.md).

    Every ``reduce_values_cached`` / ``compile_function`` call does
    exactly one ``get`` on its cache, so the hit+miss ledger must
    balance to the operation count; concurrent misses of the same key
    are benign (the factory runs outside the lock) but bounded by
    threads x distinct keys because neither cache evicts at this
    working-set size.  The sanitizer must see an acyclic lock order;
    the contended-acquisition count is recorded as the gauge
    ``bench.contention.lock_waits``.
    """
    from repro.boolean.reduction import (
        clear_reduction_cache,
        reduce_values_cached,
        reduction_cache,
    )
    from repro.kernels.compiler import (
        _compile_cache,
        clear_compile_cache,
        compile_function,
    )
    from repro.lint.sanitizer import (
        LockOrderRecorder,
        instrument,
        make_jitter,
        run_stress,
    )

    threads, iterations = CONTENTION_THREADS, CONTENTION_ITERATIONS
    ops = threads * iterations
    width = 6
    # 12 distinct contiguous selections -> 12 reduction keys and (the
    # reductions being value-distinct) 12 compiled kernels.
    selections = [tuple(range(start, start + 4)) for start in range(12)]

    clear_reduction_cache()
    clear_compile_cache()
    # clear() keeps lifetime hit/miss totals; measure deltas.
    red_hits0, red_misses0 = reduction_cache.hits, reduction_cache.misses
    comp_hits0, comp_misses0 = _compile_cache.hits, _compile_cache.misses

    recorder = LockOrderRecorder()
    jitter = make_jitter(17)
    red_lock = instrument(
        reduction_cache,
        recorder=recorder,
        name="boolean.reduction_cache._lock",
        jitter=jitter,
    )
    comp_lock = instrument(
        _compile_cache,
        recorder=recorder,
        name="kernels.compile_cache._lock",
        jitter=jitter,
    )

    def workload(tid: int, i: int) -> None:
        codes = selections[(tid + i) % len(selections)]
        function = reduce_values_cached(codes, width)
        compile_function(function)

    try:
        report = run_stress(
            workload,
            threads=threads,
            iterations=iterations,
            seed=17,
            recorder=recorder,
        )
    finally:
        # Benches share the process with later cases/tests: put the
        # native locks back so instrumentation does not leak.
        reduction_cache._lock = red_lock._inner
        _compile_cache._lock = comp_lock._inner

    red_gets = (reduction_cache.hits - red_hits0) + (
        reduction_cache.misses - red_misses0
    )
    comp_gets = (_compile_cache.hits - comp_hits0) + (
        _compile_cache.misses - comp_misses0
    )
    red_misses = reduction_cache.misses - red_misses0
    comp_misses = _compile_cache.misses - comp_misses0
    miss_bound = threads * len(selections)
    get_registry().gauge("bench.contention.lock_waits").set(
        float(report.lock_waits)
    )

    return [
        compare(
            f"reduction-cache hit+miss ledger balances over {ops} "
            f"contended gets ({threads} threads)",
            red_gets,
            ops,
            mode="eq",
            unit="gets",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            f"compile-cache hit+miss ledger balances over {ops} "
            f"contended gets ({threads} threads)",
            comp_gets,
            ops,
            mode="eq",
            unit="gets",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "reduction-cache misses bounded by threads x distinct "
            "keys (no eviction, stampede misses only)",
            red_misses,
            miss_bound,
            mode="le",
            unit="misses",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "compile-cache misses bounded by threads x distinct keys",
            comp_misses,
            miss_bound,
            mode="le",
            unit="misses",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "lock-order inversions seen by the sanitizer",
            len(report.inversions),
            0,
            mode="eq",
            unit="pairs",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "worker errors under seeded interleaving",
            len(report.errors),
            0,
            mode="eq",
            unit="errors",
            tolerance=tolerance,
            kind="identity",
        ),
    ]


#: Streaming-ingest shape: a saved base, then WAL-logged append batches
#: small enough to stay inside the delta tier (no plane rebuilds).
INGEST_BASE_ROWS = 512
INGEST_BATCHES = 16
INGEST_BATCH_ROWS = 32
#: Conservative floors/ceilings so the case is a smoke check, not a
#: machine-speed lottery: any working build clears these by far.
INGEST_RATE_FLOOR = 50.0
RECOVERY_SECONDS_CEILING = 30.0


def case_streaming_ingest(tolerance: float) -> List[Comparison]:
    """Mirrors ``tests/test_delta.py`` + ``tests/test_crash_matrix.py``:
    WAL-logged append batches stream into a saved database while the
    encoded index absorbs them in its delta tier (docs/robustness.md).

    Measures ingest throughput (rows/sec through the durable
    log-before-apply path), checks the delta merge stays bit-identical
    — rows *and* ``c_e`` — to a from-scratch rebuild, that streaming
    never triggers a plane rebuild below the compaction threshold, and
    times :meth:`repro.database.Database.recover` replaying the log.
    """
    import shutil
    import tempfile
    import time

    from repro.database import Database
    from repro.index.encoded_bitmap import EncodedBitmapIndex
    from repro.query.predicates import Equals

    values = ["ale", "bock", "cider", "dunkel"]
    base = INGEST_BASE_ROWS
    batches, batch = INGEST_BATCHES, INGEST_BATCH_ROWS
    ingested = batches * batch
    directory = tempfile.mkdtemp(prefix="ebi_bench_ingest_")
    try:
        db = Database()
        db.create_table(
            "sales",
            {"product": [values[i % 4] for i in range(base)]},
        )
        db.create_index("sales", "product")
        db.save(directory)
        # The table has one partition; its child is the index.
        index = db.catalog.indexes_on("sales", "product")[0].child(0)
        index.lookup(Equals("product", values[0]))  # warm the planes
        rebuilds_before = index.plane_rebuilds

        started = time.perf_counter()
        for b in range(batches):
            db.append_rows(
                "sales",
                [
                    {"product": values[(b + i) % 4]}
                    for i in range(batch)
                ],
            )
        ingest_seconds = time.perf_counter() - started
        rate = ingested / max(ingest_seconds, 1e-9)
        rebuilds_during = index.plane_rebuilds - rebuilds_before

        rebuilt = EncodedBitmapIndex(
            index.table, "product", encoding=index.mapping
        )
        row_mismatches = 0
        cost_mismatches = 0
        for value in values:
            expected = rebuilt.lookup(Equals("product", value))
            actual = index.lookup(Equals("product", value))
            if list(actual) != list(expected):
                row_mismatches += 1
            if (
                index.last_cost.vectors_accessed
                != rebuilt.last_cost.vectors_accessed
            ):
                cost_mismatches += 1

        started = time.perf_counter()
        recovered = Database.recover(directory)
        recovery_seconds = time.perf_counter() - started
        recovered_rows = len(recovered.table("sales"))
        fsck_failures = sum(
            0 if report.ok else 1
            for report in recovered.fsck().values()
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return [
        compare(
            f"durable ingest throughput over {ingested} rows in "
            f"{batches} WAL-logged batches (measured, floor trivially "
            "holds)",
            rate,
            INGEST_RATE_FLOOR,
            mode="ge",
            unit="rows/s",
            tolerance=tolerance,
            kind="perf",
        ),
        compare(
            "plane rebuilds while streaming below the compaction "
            "threshold (delta tier absorbs every batch)",
            rebuilds_during,
            0,
            mode="eq",
            unit="rebuilds",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "domain values whose delta-merged rows differ from a "
            "from-scratch rebuild",
            row_mismatches,
            0,
            mode="eq",
            unit="values",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "domain values whose c_e differs from a from-scratch "
            "rebuild (the delta must not change what a query is "
            "charged)",
            cost_mismatches,
            0,
            mode="eq",
            unit="values",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "rows present after WAL replay (base + every acked batch)",
            recovered_rows,
            base + ingested,
            mode="eq",
            unit="rows",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "fsck failures on the recovered database",
            fsck_failures,
            0,
            mode="eq",
            unit="indexes",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "recovery wall time (measured; generous ceiling)",
            recovery_seconds,
            RECOVERY_SECONDS_CEILING,
            mode="le",
            unit="seconds",
            tolerance=tolerance,
            kind="perf",
        ),
    ]


#: Compression-frontier shape: a Zipf-skewed fact column over
#: ``COMPRESSION_DOMAIN`` values plus a low-cardinality secondary
#: column (so ``hist``'s ascending-cardinality priority picks a
#: different primary sort column than ``lex``'s caller order),
#: queried by ``COMPRESSION_QUERIES`` IN-lists of
#: ``COMPRESSION_DELTA`` values each.
COMPRESSION_DOMAIN = 64
COMPRESSION_SECONDARY = 8
COMPRESSION_DELTA = 8
COMPRESSION_QUERIES = 4
#: Acceptance floor: the best sorted ordering must at least halve the
#: word-aligned footprint of the unordered layout.
COMPRESSION_RATIO_FLOOR = 2.0
#: Worst case for word-aligned runs over incompressible planes:
#: alternating fill/literal segments cost one header word per literal
#: word, 1.5x the packed bytes — even the unordered layout must stay
#: inside this envelope.
COMPRESSION_WAH_ENVELOPE = 1.5


def case_compression(tolerance: float, *, n: int) -> List[Comparison]:
    """Space x speed frontier of word-aligned run compression under
    build-time row reordering (docs/compression.md).

    For each ordering in :data:`repro.shard.reorder.ORDERINGS` the
    case physically permutes a copy of the same two-column table
    (:func:`~repro.shard.reorder.row_permutation` +
    :meth:`~repro.table.table.Table.apply_permutation`), builds a
    packed encoded index over it, snapshots the planes into a
    :class:`~repro.kernels.runs.CompressedPlaneSet`, and reports the
    frontier: compressed plane bytes against the packed baseline,
    page reads charged per distinct plane a query batch touches (a
    negated literal reads the same plane), and the wall time
    of the run-kernel query batch (gauges
    ``compression.bench.batch_seconds.<ordering>`` and
    ``compression.bench.batch_seconds.packed``).

    The eq-0 lines pin the compressed-execution contract: one
    compiled kernel must return identical rows and identical access
    accounting (the paper's ``c_e``) on packed planes, on word-aligned
    runs, and through the ``evaluate_dnf`` tree walk — and, mapped
    back through each permutation, every ordering must select the
    same original rows.
    """
    import random
    import time

    from repro.boolean.evaluator import AccessCounter, evaluate_dnf
    from repro.encoding.mapping import MappingTable
    from repro.index.encoded_bitmap import EncodedBitmapIndex
    from repro.kernels.compiler import CompiledKernel, compile_function
    from repro.kernels.runs import CompressedPlaneSet
    from repro.shard.reorder import ORDERINGS, row_permutation
    from repro.storage.page import PAGE_SIZE_DEFAULT
    from repro.table.table import Table
    from repro.workload.generators import uniform_column, zipf_column

    mapping = MappingTable.from_values(
        list(range(COMPRESSION_DOMAIN)), reserve_void_zero=True
    )
    fact = zipf_column(n, COMPRESSION_DOMAIN, seed=31)
    secondary = uniform_column(n, COMPRESSION_SECONDARY, seed=32)
    rng = random.Random(53)
    selections = [
        sorted(rng.sample(range(COMPRESSION_DOMAIN), COMPRESSION_DELTA))
        for _ in range(COMPRESSION_QUERIES)
    ]

    def page_count(nbytes: int) -> int:
        return -(-nbytes // PAGE_SIZE_DEFAULT)

    plane_bytes: Dict[str, int] = {}
    batch_pages: Dict[str, int] = {}
    batch_seconds: Dict[str, float] = {}
    row_mismatches = 0
    ce_mismatches = 0
    cross_mismatches = 0
    packed_plane_bytes = 0
    packed_batch_pages = 0
    baseline_rows: List[np.ndarray] = []

    def batch_time(
        kernels: Sequence[Tuple[object, CompiledKernel]], planes: object
    ) -> float:
        best = float("inf")
        for _attempt in range(3):
            start = time.perf_counter()
            for _fn, kernel in kernels:
                kernel.evaluate(planes)  # type: ignore[arg-type]
            best = min(best, time.perf_counter() - start)
        return best

    for ordering in ORDERINGS:
        table = Table.from_columns(
            f"compression_{ordering}", {"v": fact, "w": secondary}
        )
        perm = row_permutation(table, ["v", "w"], ordering)
        if ordering != "unordered":
            table.apply_permutation(perm)
        perm_array = np.asarray(perm, dtype=np.int64)
        index = EncodedBitmapIndex(table, "v", encoding=mapping)
        packed = index.planes()
        runs = CompressedPlaneSet.from_vectors(
            [index.vector(i) for i in range(index.width)], len(table)
        )
        plane_bytes[ordering] = runs.nbytes()
        packed_plane_bytes = runs.packed_nbytes()
        per_plane_packed = runs.nwords * 8

        kernels = [
            (fn, compile_function(fn))
            for fn in (
                index.reduced_function(values) for values in selections
            )
        ]

        ordering_pages = 0
        packed_pages = 0
        for qi, (fn, kernel) in enumerate(kernels):
            counter_packed = AccessCounter()
            rows_packed = kernel.evaluate(packed, counter_packed)
            counter_runs = AccessCounter()
            rows_runs = kernel.evaluate(runs, counter_runs)
            counter_tree = AccessCounter()
            rows_tree = evaluate_dnf(
                fn, index.vector, len(table), counter_tree
            )
            if not (rows_packed == rows_runs and rows_packed == rows_tree):
                row_mismatches += 1
            if (
                counter_packed.distinct_accesses
                != counter_runs.distinct_accesses
                or counter_packed.distinct_accesses
                != counter_tree.distinct_accesses
                or counter_packed.reads != counter_runs.reads
                or counter_packed.reads != counter_tree.reads
            ):
                ce_mismatches += 1
            for i in counter_runs.touched:
                ordering_pages += page_count(runs.plane(i).nbytes())
                packed_pages += page_count(per_plane_packed)
            selected = np.nonzero(rows_runs.to_mask())[0]
            original = np.sort(perm_array[selected])
            if ordering == "unordered":
                baseline_rows.append(original)
            elif not np.array_equal(original, baseline_rows[qi]):
                cross_mismatches += 1
        batch_pages[ordering] = ordering_pages
        batch_seconds[ordering] = batch_time(kernels, runs)
        if ordering == "unordered":
            packed_batch_pages = packed_pages
            batch_seconds["packed"] = batch_time(kernels, packed)

    sorted_orderings = [o for o in ORDERINGS if o != "unordered"]
    best = min(sorted_orderings, key=lambda o: plane_bytes[o])
    ratio = plane_bytes["unordered"] / max(plane_bytes[best], 1)
    registry = get_registry()
    for name, seconds in batch_seconds.items():
        registry.gauge(f"compression.bench.batch_seconds.{name}").set(
            seconds
        )

    comparisons: List[Comparison] = []
    for ordering in ORDERINGS:
        if ordering == "unordered":
            label = (
                "unordered: compressed plane bytes stay inside the "
                "word-aligned worst-case envelope"
            )
            predicted = COMPRESSION_WAH_ENVELOPE * packed_plane_bytes
        else:
            label = (
                f"{ordering}: compressed plane bytes vs the packed "
                "baseline"
            )
            predicted = float(packed_plane_bytes)
        comparisons.append(
            compare(
                label,
                plane_bytes[ordering],
                predicted,
                mode="le",
                unit="bytes",
                tolerance=tolerance,
                kind="model",
            )
        )
    comparisons.extend(
        [
            compare(
                f"run compression: unordered bytes / {best} bytes",
                ratio,
                COMPRESSION_RATIO_FLOOR,
                mode="ge",
                unit="ratio",
                tolerance=tolerance,
                kind="model",
            ),
            compare(
                "rows: ordering x query runs where compressed kernel, "
                "packed kernel and tree walk disagree",
                row_mismatches,
                0,
                mode="eq",
                unit="queries",
                tolerance=tolerance,
                kind="identity",
            ),
            compare(
                "c_e: ordering x query runs where the three paths' "
                "access accounting disagrees",
                ce_mismatches,
                0,
                mode="eq",
                unit="queries",
                tolerance=tolerance,
                kind="identity",
            ),
            compare(
                "orderings x queries whose permutation-mapped rows "
                "differ from the unordered baseline",
                cross_mismatches,
                0,
                mode="eq",
                unit="queries",
                tolerance=tolerance,
                kind="identity",
            ),
            compare(
                f"page reads: {best} compressed batch vs packed planes",
                batch_pages[best],
                packed_batch_pages,
                mode="le",
                unit="pages",
                tolerance=tolerance,
                kind="model",
            ),
        ]
    )
    return comparisons


# ---------------------------------------------------------------------------
# serving tier: result cache + multi-tenant zipf workload
# ---------------------------------------------------------------------------

#: Reads measured per execution path in the CPU-bound mix.
SERVING_READS = 120

#: Operations driven through the :class:`repro.serving.Server` for the
#: latency/throughput segment (reads and cache-invalidating appends).
SERVING_SERVED_OPS = 400

#: Repeats per path; the best wall time is kept (scheduler noise).
SERVING_REPEATS = 3


def case_serving(tolerance: float, *, rows: int) -> CaseOutcome:
    """The serving tier end to end (docs/serving.md).

    Three segments over one zipf-skewed multi-tenant workload
    (:class:`repro.serving.workload.SyntheticWorkload`):

    1. **Bit-identity** — the result cache's warm hits must answer
       bit-identically (rows *and* ``c_e``) to uncached execution.
    2. **CPU-bound mix** — single-query throughput of the uncached
       thread pool vs the result cache; the cached path must beat
       the thread baseline.
    3. **Served workload** — the same mix driven through a live
       :class:`repro.serving.Server` (reads submitted per tenant,
       appends invalidating the cache mid-stream); queries/sec plus
       p50/p99 latency land in the report's serving keys.
    """
    from repro.database import Database
    from repro.serving.server import Server
    from repro.serving.workload import ReadOp, SyntheticWorkload

    workload = SyntheticWorkload(
        seed=11, tenants=4, rows=rows, partitions=4
    )
    db = Database()
    workload.build(db)
    table = workload.TABLE
    reads = [
        op
        for op in workload.operations(4 * SERVING_READS)
        if isinstance(op, ReadOp)
    ][:SERVING_READS]
    predicates = [op.predicate for op in reads]

    thread_opts = QueryOptions(workers=4, use_cache=False)
    cached_opts = QueryOptions(workers=4, use_cache=True)
    comparisons: List[Comparison] = []
    try:
        # -- segment 1: bit-identity ------------------------------------
        uncached = [db.query(table, p, thread_opts) for p in predicates]
        for p in predicates:  # cold pass fills the cache
            db.query(table, p, cached_opts)
        warm = [db.query(table, p, cached_opts) for p in predicates]
        row_mismatches = sum(
            1
            for u, w in zip(uncached, warm)
            if len(u.vector) != len(w.vector)
            or u.vector.words.tobytes() != w.vector.words.tobytes()
        )
        ce_mismatches = sum(
            1
            for u, w in zip(uncached, warm)
            if u.cost.vectors_accessed != w.cost.vectors_accessed
        )
        cache_misses = sum(1 for w in warm if not w.cached)
        comparisons.extend(
            [
                compare(
                    "cached vs uncached row mismatches",
                    row_mismatches,
                    0,
                    unit="queries",
                    tolerance=tolerance,
                    kind="identity",
                ),
                compare(
                    "cached vs uncached c_e mismatches",
                    ce_mismatches,
                    0,
                    unit="queries",
                    tolerance=tolerance,
                    kind="identity",
                ),
                compare(
                    "warm queries not served from cache",
                    cache_misses,
                    0,
                    unit="queries",
                    tolerance=tolerance,
                    kind="identity",
                ),
            ]
        )

        # -- segment 2: CPU-bound single-query mix ----------------------
        def loop_wall(opts: QueryOptions) -> float:
            start = time.perf_counter()
            for p in predicates:
                db.query(table, p, opts)
            return time.perf_counter() - start

        walls: Dict[str, float] = {}
        for label, opts in (
            ("thread", thread_opts),
            ("cached", cached_opts),
        ):
            best = loop_wall(opts)
            for _ in range(SERVING_REPEATS - 1):
                best = min(best, loop_wall(opts))
            walls[label] = best
        qps = {
            label: SERVING_READS / wall for label, wall in walls.items()
        }
        comparisons.append(
            compare(
                "result-cache q/s vs uncached thread q/s",
                qps["cached"],
                qps["thread"],
                mode="ge",
                unit="q/s",
                tolerance=tolerance,
                kind="perf",
            )
        )

        # -- segment 3: served zipf multi-tenant read/write -------------
        operations = list(workload.operations(SERVING_SERVED_OPS))
        served_reads = sum(
            1 for op in operations if isinstance(op, ReadOp)
        )
        with Server(
            database=db,
            workers=2,
            queue_capacity=64,
            policy="block",
            default_timeout=120.0,
        ) as server:
            pending = []
            start = time.perf_counter()
            for op in operations:
                if isinstance(op, ReadOp):
                    pending.append(
                        server.submit(
                            table,
                            op.predicate,
                            options=QueryOptions(tenant=op.tenant),
                        )
                    )
                else:
                    db.append(table, op.row)
            for request in pending:
                request.result(timeout=120.0)
            served_wall = time.perf_counter() - start
            stats = server.stats()
        served_qps = stats.completed / max(served_wall, 1e-9)
        comparisons.extend(
            [
                compare(
                    "served requests completed",
                    stats.completed,
                    served_reads,
                    unit="requests",
                    tolerance=tolerance,
                    kind="identity",
                ),
                compare(
                    "served requests failed",
                    stats.failed,
                    0,
                    unit="requests",
                    tolerance=tolerance,
                    kind="identity",
                ),
            ]
        )
        registry = get_registry()
        registry.gauge("serving.bench.thread_qps").set(qps["thread"])
        registry.gauge("serving.bench.cached_qps").set(qps["cached"])
        registry.gauge("serving.bench.served_qps").set(served_qps)
        latency = {
            f"{name}_ms": value * 1000.0
            for name, value in stats.latency_percentiles.items()
        }
        tenants = [
            {
                "tenant": row.tenant,
                "completed": row.completed,
                "failed": row.failed,
                **{
                    f"{name}_ms": value * 1000.0
                    for name, value in row.latency_percentiles.items()
                },
            }
            for row in stats.tenants.values()
        ]
        return CaseOutcome(
            comparisons=comparisons,
            latency_percentiles=latency,
            tenants=tenants,
        )
    finally:
        db.close()


# ---------------------------------------------------------------------------
# out-of-core scale: memory-mapped planes + partition spill/eviction
# ---------------------------------------------------------------------------

#: Shape of the out-of-core scale bench (docs/out_of_core.md): a
#: uniform fact column over ``SCALE_DOMAIN`` values in
#: ``SCALE_PARTITIONS`` row-range partitions, queried by
#: ``SCALE_QUERIES`` IN-lists of ``SCALE_DELTA`` values each, under a
#: residency budget of ``SCALE_BUDGET_FRACTION`` of the total packed
#: plane bytes — low enough that the serial streaming pass must cycle
#: every partition through spill/fault each query.
SCALE_DOMAIN = 64
SCALE_PARTITIONS = 16
SCALE_DELTA = 8
SCALE_QUERIES = 4
SCALE_BUDGET_FRACTION = 0.25
#: Acceptance ceiling: the high-water mark of resident plane bytes
#: must stay at or below this fraction of the fully-resident
#: footprint, or the bench is not actually out-of-core.
SCALE_PEAK_FRACTION = 0.5


def case_scale(tolerance: float, *, rows: int) -> List[Comparison]:
    """Out-of-core streaming execution at scale (docs/out_of_core.md).

    Two databases over the same ``rows``-row partitioned fact table:
    a fully-resident reference (no memory budget) and an out-of-core
    stack whose :class:`~repro.shard.residency.ResidencyManager`
    budget is :data:`SCALE_BUDGET_FRACTION` of the total packed plane
    bytes, forcing the serial streaming executor to spill cold
    partitions to CRC-headered plane files, fault them back as
    ``mmap``-backed :class:`~repro.kernels.mapped.MappedPlaneSet`
    snapshots, and prefetch the next partition while the current one
    evaluates.

    The strict lines pin the out-of-core contract: peak resident
    plane bytes at or below :data:`SCALE_PEAK_FRACTION` of the
    fully-resident footprint; measured physical page reads inside the
    Section 3 model envelope (at least ``c_e_best`` plane-row pages
    per fault, at most whole-file pages per fault + prefetch); and
    bit-identical rows *and* ``c_e`` against the fully-resident path.
    Streaming throughput (rows/sec through the spill/fault cycle) and
    process peak RSS land as gauges.
    """
    import resource
    import time

    from repro.database import Database
    from repro.query.predicates import InList
    from repro.shard.index import PartitionedIndex
    from repro.storage.page import PAGE_SIZE_DEFAULT

    n = rows
    values = [(i * 48271) % SCALE_DOMAIN for i in range(n)]
    selections = [
        sorted(
            ((q * 13 + j * 5) % SCALE_DOMAIN)
            for j in range(SCALE_DELTA)
        )
        for q in range(SCALE_QUERIES)
    ]
    predicates = [InList("v", selected) for selected in selections]
    opts = QueryOptions(workers=1)

    def build(budget: Optional[int]) -> Database:
        db = Database(memory_budget_bytes=budget)
        db.create_table(
            "scale", {"v": values}, partitions=SCALE_PARTITIONS
        )
        db.create_index("scale", "v")
        return db

    def pages(nbytes: int) -> int:
        return -(-nbytes // PAGE_SIZE_DEFAULT)

    reference = build(None)
    try:
        index = reference.catalog.indexes_on("scale", "v")[0]
        assert isinstance(index, PartitionedIndex)
        child_bytes = [
            child.planes().matrix.nbytes for child in index.children
        ]
        total_plane_bytes = sum(child_bytes)
        child_words = [
            child.planes().nwords for child in index.children
        ]
        expected = [
            reference.query("scale", p, opts) for p in predicates
        ]

        budget = max(
            1, int(total_plane_bytes * SCALE_BUDGET_FRACTION)
        )
        streaming = build(budget)
        try:
            # Untimed warm pass: builds the dense planes, then cycles
            # them through the first spill wave.  The timed pass below
            # measures steady-state streaming: LRU fault-in + prefetch
            # against plane files, not first-touch index construction.
            for p in predicates:
                streaming.query("scale", p, opts)
            start = time.perf_counter()
            measured = [
                streaming.query("scale", p, opts) for p in predicates
            ]
            wall = time.perf_counter() - start
            report = streaming.residency_report("scale") or {}
        finally:
            streaming.close()
    finally:
        reference.close()

    rate = (n * SCALE_QUERIES) / max(wall, 1e-9)
    row_mismatches = sum(
        1
        for e, m in zip(expected, measured)
        if not np.array_equal(e.row_ids(), m.row_ids())
    )
    ce_mismatches = sum(
        1
        for e, m in zip(expected, measured)
        if e.cost.vectors_accessed != m.cost.vectors_accessed
    )

    faults = report.get("faults", 0)
    prefetches = report.get("prefetches", 0)
    physical = report.get("page_reads_physical", 0)
    # Section 3 envelope, page-granular: a fault serves at least one
    # query's best-case plane reads (c_e_best plane rows), and fault +
    # prefetch each touch at most a whole plane file.
    row_pages_min = min(pages(nwords * 8) for nwords in child_words)
    file_pages_max = max(pages(nbytes) for nbytes in child_bytes)
    model_floor = faults * c_e_best(SCALE_DELTA, SCALE_DOMAIN) * (
        row_pages_min
    )
    model_ceiling = (faults + prefetches) * file_pages_max

    registry = get_registry()
    registry.gauge("scale.bench.rows_per_sec").set(rate)
    registry.gauge("scale.bench.wall_seconds").set(wall)
    registry.gauge("scale.bench.rows").set(float(n))
    registry.gauge("scale.bench.peak_rss_bytes").set(
        float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
    )
    for name, value in report.items():
        registry.gauge(f"scale.residency.{name}").set(float(value))

    return [
        compare(
            "out-of-core engaged: partitions spilled to plane files",
            report.get("spills", 0),
            1,
            mode="ge",
            unit="spills",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "streaming pipeline engaged: next-partition prefetches",
            prefetches,
            1,
            mode="ge",
            unit="prefetches",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            f"peak resident plane bytes <= "
            f"{SCALE_PEAK_FRACTION:.0%} of the fully-resident "
            "footprint",
            report.get("peak_resident_bytes", 0),
            SCALE_PEAK_FRACTION * total_plane_bytes,
            mode="le",
            unit="bytes",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "page reads >= Section 3 floor (c_e_best plane-row pages "
            "per fault)",
            physical,
            model_floor,
            mode="ge",
            unit="pages",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "page reads <= whole-file pages per fault + prefetch",
            physical,
            model_ceiling,
            mode="le",
            unit="pages",
            tolerance=tolerance,
            kind="model",
        ),
        compare(
            "rows: queries where streaming differs from "
            "fully-resident",
            row_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
        compare(
            "c_e: queries where streaming access accounting differs "
            "from fully-resident",
            ce_mismatches,
            0,
            mode="eq",
            unit="queries",
            tolerance=tolerance,
            kind="identity",
        ),
    ]


QUICK_CASES: List[BenchCase] = [
    BenchCase(
        name="reduction",
        description=(
            "logical reduction ablation: exact vs greedy vs raw DNF "
            "(bench_reduction.py)"
        ),
        run=case_reduction,
    ),
    BenchCase(
        name="fig9_small",
        description=(
            "Figure 9(a) |A|=50: measured index costs vs c_s/c_e "
            "curves (bench_fig9.py)"
        ),
        run=case_fig9_small,
    ),
    BenchCase(
        name="table1_example",
        description=(
            "paper's worked example end-to-end: traced c_e equals the "
            "model prediction (bench_examples.py)"
        ),
        run=case_table1_example,
    ),
    BenchCase(
        name="cache_contention",
        description=(
            f"{CONTENTION_THREADS} threads hammering the shared "
            "reduction/compile caches under the lock sanitizer "
            "(tests/test_concurrency.py, docs/concurrency.md)"
        ),
        run=case_cache_contention,
    ),
    BenchCase(
        name="streaming_ingest",
        description=(
            f"{INGEST_BATCHES} WAL-logged append batches streaming "
            "into a saved database: ingest rows/sec, delta-merge "
            "bit-identity vs rebuild, recovery time "
            "(docs/robustness.md)"
        ),
        run=case_streaming_ingest,
    ),
]

FULL_CASES: List[BenchCase] = QUICK_CASES + [
    BenchCase(
        name="sparsity",
        description=(
            "Section 3.1 sparsity: (m-1)/m simple vs ~1/2 encoded "
            "(bench_sparsity.py)"
        ),
        run=case_sparsity,
    ),
    BenchCase(
        name="page_io",
        description=(
            "page-level Figure 9 + buffer-pool amortisation "
            "(bench_page_io.py)"
        ),
        run=case_page_io,
    ),
    BenchCase(
        name="worst_case",
        description=(
            "Section 3.2 area ratios and peak savings "
            "(bench_worst_case.py)"
        ),
        run=case_worst_case,
    ),
]


#: Row counts for the partition-parallel scan case per suite flavor.
PARALLEL_SMOKE_ROWS = 65_536
PARALLEL_FULL_ROWS = 1_048_576


def parallel_case(
    quick: bool,
    workers: Optional[Sequence[int]] = None,
    rows: Optional[int] = None,
) -> BenchCase:
    """Build the partition-parallel scan case for a suite flavor."""
    counts: Tuple[int, ...] = tuple(workers) if workers else (1, 4)
    n = (
        rows
        if rows is not None
        else (PARALLEL_SMOKE_ROWS if quick else PARALLEL_FULL_ROWS)
    )
    return BenchCase(
        name="parallel_scan_smoke" if quick else "parallel_scan_1m",
        description=(
            f"partition-parallel batched scan over {n} rows at "
            f"workers={list(counts)} vs the classic executor scan "
            "(docs/partitioning.md)"
        ),
        run=lambda tolerance: case_parallel_scan(
            tolerance, n=n, workers=counts
        ),
        workers=counts,
    )


def kernel_case(
    quick: bool,
    workers: Optional[Sequence[int]] = None,
    rows: Optional[int] = None,
) -> BenchCase:
    """Build the compiled-kernel ablation case for a suite flavor."""
    counts: Tuple[int, ...] = tuple(workers) if workers else (1, 4)
    n = (
        rows
        if rows is not None
        else (PARALLEL_SMOKE_ROWS if quick else PARALLEL_FULL_ROWS)
    )
    return BenchCase(
        name="kernel_eval_smoke" if quick else "kernel_eval_1m",
        description=(
            f"compiled retrieval kernels + reduction/compile caches vs "
            f"one reduction per predicate + evaluate_dnf over {n} rows in "
            f"{KERNEL_PARTITIONS} partitions (docs/performance.md)"
        ),
        run=lambda tolerance: case_kernel_eval(
            tolerance, n=n, workers=counts
        ),
        workers=counts,
    )


def compression_case(
    quick: bool, rows: Optional[int] = None
) -> BenchCase:
    """Build the compression-frontier case for a suite flavor."""
    n = (
        rows
        if rows is not None
        else (PARALLEL_SMOKE_ROWS if quick else PARALLEL_FULL_ROWS)
    )
    return BenchCase(
        name="compression_smoke" if quick else "compression_1m",
        description=(
            f"row-reordering x word-aligned run compression frontier "
            f"over {n} rows: bytes, page reads and run-kernel wall "
            "time across "
            "{unordered, lex, gray, hist} (docs/compression.md)"
        ),
        run=lambda tolerance: case_compression(tolerance, n=n),
    )


#: Row counts for the serving case per suite flavor.  Small tables
#: keep per-query compute sub-millisecond, which is the serving
#: regime: fixed per-call overhead (thread-pool creation on the
#: thread baseline) decides the ranking.
SERVING_SMOKE_ROWS = 20_480
SERVING_FULL_ROWS = 65_536


def serving_case(
    quick: bool, rows: Optional[int] = None
) -> BenchCase:
    """Build the serving-tier case for a suite flavor."""
    n = (
        rows
        if rows is not None
        else (SERVING_SMOKE_ROWS if quick else SERVING_FULL_ROWS)
    )
    return BenchCase(
        name="serving_smoke" if quick else "serving_64k",
        description=(
            f"query-serving tier over {n} rows: result-cache "
            "throughput vs the uncached thread pool, "
            "bit-identity (rows and c_e), and served qps/p50/p99 "
            "under a zipf multi-tenant read/write workload "
            "(docs/serving.md)"
        ),
        run=lambda tolerance: case_serving(tolerance, rows=n),
    )


#: Row counts for the out-of-core scale case per suite flavor.  The
#: full flavor crosses 10M rows (the ISSUE scale target; stream it
#: with ``--rows`` for larger sweeps), the smoke flavor keeps CI under
#: a few seconds while still forcing spill/fault cycles.
SCALE_SMOKE_ROWS = 262_144
SCALE_FULL_ROWS = 10_485_760


def scale_case(quick: bool, rows: Optional[int] = None) -> BenchCase:
    """Build the out-of-core scale case for a suite flavor."""
    n = (
        rows
        if rows is not None
        else (SCALE_SMOKE_ROWS if quick else SCALE_FULL_ROWS)
    )
    return BenchCase(
        name="scale_smoke" if quick else "scale_10m",
        description=(
            f"out-of-core streaming scan over {n} rows in "
            f"{SCALE_PARTITIONS} partitions under a "
            f"{SCALE_BUDGET_FRACTION:.0%} plane-byte residency "
            "budget: spill/fault page accounting vs the Section 3 "
            "envelope, peak resident bytes, and bit-identity vs the "
            "fully-resident path (docs/out_of_core.md)"
        ),
        run=lambda tolerance: case_scale(tolerance, rows=n),
    )


def cases_for(
    quick: bool,
    workers: Optional[Sequence[int]] = None,
    rows: Optional[int] = None,
) -> List[BenchCase]:
    """The case list for a suite flavor.

    ``workers`` overrides the thread counts of the partition-parallel
    and kernel-ablation cases (CLI: ``repro bench --workers 1,4``);
    ``rows`` overrides the row count of every row-parameterised case
    (CLI: ``repro bench --rows 1000000``).
    """
    cases = list(QUICK_CASES if quick else FULL_CASES)
    cases.append(parallel_case(quick, workers, rows))
    cases.append(kernel_case(quick, workers, rows))
    cases.append(compression_case(quick, rows))
    cases.append(serving_case(quick, rows))
    cases.append(scale_case(quick, rows))
    return cases
