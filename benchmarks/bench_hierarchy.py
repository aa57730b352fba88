"""Section 2.3 / Figure 5 — hierarchy encoding.

Rebuilds the paper's SALESPOINT hierarchy (12 branches, 5 companies,
3 alliances with m:N membership), derives a hierarchy encoding, and
measures vectors accessed for every hierarchy-element selection —
the paper's Figure 5(b) achieves 1 vector for ``alliance = X``.
Compares against a sequential (naive) encoding.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.encoding.heuristics import encoding_cost, sequential_encoding
from repro.encoding.hierarchy import Hierarchy, hierarchy_encoding
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import InList
from repro.table.table import Table
from repro.workload.generators import uniform_column

COMPANIES = {
    "a": [1, 2, 3, 4], "b": [5, 6], "c": [7, 8],
    "d": [3, 4, 9, 10], "e": [9, 10, 11, 12],
}
ALLIANCES = {"X": ["a", "b", "c"], "Y": ["c", "d"], "Z": ["d", "e"]}

#: The paper's hand-crafted Figure 5(b) mapping.
FIG5B = {
    1: 0b0000, 2: 0b0001, 3: 0b0100, 4: 0b0101,
    5: 0b0010, 6: 0b0011, 7: 0b0110, 8: 0b0111,
    9: 0b1100, 10: 0b1101, 11: 0b1111, 12: 0b1110,
}


@pytest.fixture(scope="module")
def salespoint():
    return Hierarchy(
        range(1, 13), {"company": COMPANIES, "alliance": ALLIANCES}
    )


class TestFigure5:
    def test_paper_mapping_costs(self, salespoint):
        """Replay the paper's own Figure 5(b) mapping and report the
        vectors accessed per hierarchy element."""
        from repro.boolean.reduction import reduce_values

        dont_cares = [
            c for c in range(16) if c not in FIG5B.values()
        ]
        rows = []
        for level in salespoint.level_names:
            for element in salespoint.elements(level):
                members = sorted(
                    salespoint.base_members(level, element)
                )
                codes = [FIG5B[b] for b in members]
                reduced = reduce_values(codes, 4, dont_cares=dont_cares)
                rows.append(
                    (f"{level}={element}", len(members),
                     reduced.vector_count(), reduced.to_string())
                )
        print_table(
            "Figure 5(b): the paper's hierarchy encoding",
            ["selection", "|members|", "vectors", "retrieval fn"],
            rows,
        )
        cost_by_selection = {row[0]: row[2] for row in rows}
        # the paper's headline: alliance = X reads ONE vector
        assert cost_by_selection["alliance=X"] == 1

    def test_heuristic_vs_sequential(self, salespoint, benchmark):
        predicates = salespoint.selection_predicates()

        def search():
            return hierarchy_encoding(salespoint, seed=0)

        tuned = benchmark.pedantic(search, iterations=1, rounds=1)
        naive = sequential_encoding(
            range(1, 13), reserve_void_zero=False
        )
        tuned_cost = encoding_cost(tuned, predicates)
        naive_cost = encoding_cost(naive, predicates)
        fig5b_cost = sum(
            r for r in _fig5b_costs(salespoint)
        )
        print_table(
            "Hierarchy encoding quality (total vectors over all "
            "8 hierarchy selections)",
            ["encoding", "total vectors"],
            [
                ("paper Figure 5(b)", fig5b_cost),
                ("our heuristic", f"{tuned_cost:.0f}"),
                ("sequential (naive)", f"{naive_cost:.0f}"),
            ],
        )
        assert tuned_cost <= naive_cost


def _fig5b_costs(salespoint):
    from repro.boolean.reduction import reduce_values

    dont_cares = [c for c in range(16) if c not in FIG5B.values()]
    for level in salespoint.level_names:
        for element in salespoint.elements(level):
            members = sorted(salespoint.base_members(level, element))
            codes = [FIG5B[b] for b in members]
            yield reduce_values(
                codes, 4, dont_cares=dont_cares
            ).vector_count()


class TestRollupLatency:
    def test_rollup_query_wallclock(self, salespoint, benchmark):
        """Time an actual roll-up selection over a fact table indexed
        with the hierarchy encoding."""
        n = 5000
        table = Table("sales", ["branch"])
        for value in uniform_column(n, 12, seed=3, base=1):
            table.append({"branch": value})
        mapping = hierarchy_encoding(salespoint, seed=0)
        index = EncodedBitmapIndex(
            table, "branch", encoding=mapping, void_mode="vector"
        )
        members = sorted(salespoint.base_members("alliance", "X"))
        predicate = InList("branch", members)
        index.lookup(predicate)  # warm cache
        result = benchmark(index.lookup, predicate)
        assert result.count() > 0


class TestOlapSession:
    """A 30-step roll-up/drill-down session (Section 2.3's OLAP
    motivation) served by three encodings of the same dimension."""

    def test_session_cost_comparison(self, salespoint, benchmark):
        import random as _random

        from repro.encoding.heuristics import (
            random_encoding,
            sequential_encoding,
        )
        from repro.workload.olap import (
            generate_session,
            session_predicates,
        )

        table = Table("sales", ["branch"])
        rng = _random.Random(1)
        for _ in range(2000):
            table.append({"branch": rng.randint(1, 12)})

        encodings = {
            "hierarchy (tuned)": hierarchy_encoding(salespoint, seed=0),
            "sequential": sequential_encoding(
                range(1, 13), reserve_void_zero=False
            ),
            "random": random_encoding(
                range(1, 13), seed=55, reserve_void_zero=False
            ),
        }
        session = generate_session(salespoint, "branch", length=30,
                                   seed=3)
        predicates = session_predicates(session)

        def run_all():
            totals = {}
            for name, mapping in encodings.items():
                index = EncodedBitmapIndex(
                    table, "branch", encoding=mapping,
                    void_mode="vector",
                )
                total = 0
                for predicate in predicates:
                    index.lookup(predicate)
                    total += index.last_cost.vectors_accessed
                totals[name] = total
            return totals

        totals = benchmark.pedantic(run_all, iterations=1, rounds=1)
        print_table(
            "30-step OLAP session: total bitmap vectors read",
            ["encoding", "total vectors"],
            sorted(totals.items(), key=lambda kv: kv[1]),
        )
        assert totals["hierarchy (tuned)"] <= totals["random"]
