"""Ablation — how much the encoding choice matters (Theorems 2.2/2.3).

Fixes a predicate workload and compares the total vectors accessed
under four encodings of the same domain:

* well-defined (our heuristic search),
* sequential (values in order — the paper's default construction),
* bit-slice / total-order,
* random (adversarial baseline).

The paper's Section 3.2 estimates the well-defined benefit at 10-16%
on average and up to 83-90% for specific selections.
"""

from __future__ import annotations

import random

from benchmarks.conftest import print_table
from repro.encoding.heuristics import (
    encode_for_predicates,
    encoding_cost,
    random_encoding,
    sequential_encoding,
)
from repro.encoding.total_order import bit_slice_encoding

DOMAIN = list(range(64))


def _workload(seed=0, count=10):
    """Contiguous IN-lists of mixed widths, some aligned."""
    rng = random.Random(seed)
    predicates = []
    for width in (4, 4, 8, 8, 16, 16, 32, 2, 2, 6)[:count]:
        start = rng.randint(0, len(DOMAIN) - width)
        predicates.append(DOMAIN[start : start + width])
    return predicates


class TestEncodingAblation:
    def test_four_encodings(self, benchmark):
        predicates = _workload()

        def build_all():
            return {
                "well-defined (heuristic)": encode_for_predicates(
                    DOMAIN, predicates, reserve_void_zero=False,
                    seed=0,
                ),
                "sequential": sequential_encoding(
                    DOMAIN, reserve_void_zero=False
                ),
                "bit-slice (order)": bit_slice_encoding(DOMAIN),
                "random": random_encoding(
                    DOMAIN, seed=99, reserve_void_zero=False
                ),
            }

        encodings = benchmark.pedantic(
            build_all, iterations=1, rounds=1
        )
        rows = []
        costs = {}
        for name, mapping in encodings.items():
            cost = encoding_cost(mapping, predicates)
            costs[name] = cost
            rows.append((name, f"{cost:.0f}"))
        worst_case = 6.0 * len(predicates)  # k = 6 for |A| = 64
        rows.append(("worst case (k per query)", f"{worst_case:.0f}"))
        print_table(
            "Encoding ablation: total vectors over 10 range selections",
            ["encoding", "total vectors accessed"],
            rows,
        )
        assert costs["well-defined (heuristic)"] <= costs["sequential"]
        assert costs["well-defined (heuristic)"] <= costs["random"]
        assert costs["well-defined (heuristic)"] < worst_case

    def test_saving_magnitude(self):
        """The heuristic's saving vs the worst case lands in the
        ballpark the paper derives (>= 10%)."""
        predicates = _workload()
        tuned = encode_for_predicates(
            DOMAIN, predicates, reserve_void_zero=False, seed=0
        )
        cost = encoding_cost(tuned, predicates)
        worst = 6.0 * len(predicates)
        saving = 1 - cost / worst
        print(f"\nwell-defined saving vs worst case: {saving:.1%} "
              "(paper: 10-16% average, more for aligned selections)")
        assert saving >= 0.10

    def test_aligned_selection_peak_saving(self):
        """delta = 32 of 64 values: the aligned selection reduces to
        a single vector — the 83%-style peak saving."""
        predicates = [DOMAIN[:32]]
        tuned = encode_for_predicates(
            DOMAIN, predicates, reserve_void_zero=False, seed=0
        )
        cost = encoding_cost(tuned, predicates)
        assert cost == 1.0  # 1 - 1/6 = 83% saving vs worst case
