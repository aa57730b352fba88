"""Ablation — logical reduction strategies (Section 3.2's 'Logical
Reduction' discussion).

The paper notes exact reduction is exponential but worthwhile because
it is a one-time cost per predefined predicate.  This bench compares
three strategies on the same selections:

* none       — evaluate the raw minterm DNF (worst case, k vectors),
* greedy     — QM primes + greedy cover,
* exact      — QM primes + Petrick minimal cover,

reporting vectors accessed and reduction wall-clock.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_table
from repro.boolean.reduction import minterm_dnf, reduce_values

WIDTH = 8
M = 200  # codes 0..199, 56 don't-cares


def _selections(seed=0, count=12, delta=24):
    rng = random.Random(seed)
    selections = []
    for _ in range(count):
        start = rng.randint(0, M - delta)
        selections.append(list(range(start, start + delta)))
    return selections


class TestReductionAblation:
    def test_strategy_comparison(self, benchmark):
        selections = _selections()
        dont_cares = list(range(M, 1 << WIDTH))

        def run():
            results = {}
            for name in ("none", "greedy", "exact"):
                started = time.perf_counter()
                vectors = 0
                for codes in selections:
                    if name == "none":
                        function = minterm_dnf(codes, WIDTH)
                    else:
                        function = reduce_values(
                            codes, WIDTH, dont_cares=dont_cares,
                            exact=(name == "exact"),
                        )
                    vectors += function.vector_count()
                results[name] = (
                    vectors, time.perf_counter() - started
                )
            return results

        results = benchmark.pedantic(run, iterations=1, rounds=1)
        print_table(
            f"Reduction ablation: 12 selections of width 24, k = {WIDTH}",
            ["strategy", "total vectors", "reduction time (s)"],
            [
                (name, vectors, f"{seconds:.4f}")
                for name, (vectors, seconds) in results.items()
            ],
        )
        assert results["exact"][0] <= results["greedy"][0]
        assert results["greedy"][0] <= results["none"][0]
        # reduction must actually help on contiguous ranges
        assert results["exact"][0] < results["none"][0]

    def test_semantics_identical_across_strategies(self):
        dont_cares = list(range(M, 1 << WIDTH))
        for codes in _selections(seed=3, count=4):
            exact = reduce_values(
                codes, WIDTH, dont_cares=dont_cares, exact=True
            )
            greedy = reduce_values(
                codes, WIDTH, dont_cares=dont_cares, exact=False
            )
            for value in range(M):  # only real codes matter
                assert exact.evaluate_value(value) == (value in codes)
                assert greedy.evaluate_value(value) == (value in codes)

    def test_reduction_is_one_time_cost(self, benchmark):
        """Reductions are cached per predicate by the index; repeat
        lookups skip the QM pass entirely."""
        from repro.index.encoded_bitmap import EncodedBitmapIndex
        from repro.query.predicates import InList
        from repro.workload.generators import build_table, uniform_column

        n = 2000
        table = build_table(
            "t", n, {"v": uniform_column(n, M, seed=1)}
        )
        index = EncodedBitmapIndex(table, "v")
        predicate = InList("v", list(range(40, 72)))
        index.lookup(predicate)  # pays the reduction once

        result = benchmark(index.lookup, predicate)
        assert result.count() > 0


class TestIntervalFastPath:
    """The O(k) binary interval decomposition vs QM on contiguous
    selections (the fast path the encoded index takes automatically
    above its threshold)."""

    def test_interval_vs_qm(self, benchmark):
        import time

        from repro.boolean.intervals import reduce_interval

        width = 10
        cases = [(0, 511), (100, 611), (37, 1000), (512, 1023)]

        def run():
            rows = []
            for lo, hi in cases:
                started = time.perf_counter()
                fast = reduce_interval(lo, hi, width)
                fast_time = time.perf_counter() - started
                started = time.perf_counter()
                exact = reduce_values(range(lo, hi + 1), width)
                qm_time = time.perf_counter() - started
                rows.append(
                    (f"[{lo},{hi}]", fast.vector_count(),
                     exact.vector_count(),
                     f"{fast_time*1000:.2f}", f"{qm_time*1000:.1f}")
                )
            return rows

        rows = benchmark.pedantic(run, iterations=1, rounds=1)
        from benchmarks.conftest import print_table

        print_table(
            "Interval fast path vs Quine-McCluskey (k = 10)",
            ["interval", "fast vectors", "QM vectors",
             "fast ms", "QM ms"],
            rows,
        )
        for _, fast_vecs, qm_vecs, _, _ in rows:
            # distinct variables never exceed k for either method
            assert fast_vecs <= width
            assert qm_vecs <= width
