"""Section 3.2 — the TPC-D motivation and a workload-weighted
comparison.

The paper's argument: 12 of TPC-D's 17 query classes involve range
search, and encoded bitmap indexes win range searches, so they matter
for DW workloads.  This bench prints the classification and then runs
a synthetic TPC-D-like workload against simple bitmap, encoded bitmap
and B-tree indexes, reporting total accesses per index family.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.index.btree import BPlusTreeIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.workload.tpcd import (
    TPCD_QUERY_CLASSES,
    build_tpcd_schema,
    generate_workload,
    range_query_share,
)


class TestRangeShare:
    def test_12_of_17(self):
        ranges, total = range_query_share()
        print(f"\nTPC-D range-search share: {ranges}/{total} "
              "(paper: 12/17)")
        assert (ranges, total) == (12, 17)

    def test_classification_table(self):
        print_table(
            "TPC-D query classes (paper's classification)",
            ["class", "involves range search", "dominant column"],
            [
                (qc.name, "yes" if qc.involves_range else "no",
                 qc.column)
                for qc in TPCD_QUERY_CLASSES
            ],
        )
        assert len(TPCD_QUERY_CLASSES) == 17


@pytest.fixture(scope="module")
def tpcd_setup():
    table = build_tpcd_schema(n=4000, seed=7)
    columns = sorted({qc.column for qc in TPCD_QUERY_CLASSES})
    simple = {c: SimpleBitmapIndex(table, c) for c in columns}
    encoded = {c: EncodedBitmapIndex(table, c) for c in columns}
    btree = {
        c: BPlusTreeIndex(table, c, fanout=32, page_size=256)
        for c in columns
    }
    workload = generate_workload(table, queries_per_class=3, seed=11)
    return table, simple, encoded, btree, workload


def _run(indexes, workload):
    total = 0
    per_class = {}
    for query_class, predicate in workload:
        index = indexes[query_class.column]
        index.lookup(predicate)
        cost = index.last_cost.total_accesses()
        total += cost
        per_class[query_class.name] = (
            per_class.get(query_class.name, 0) + cost
        )
    return total, per_class


class TestWorkloadComparison:
    def test_total_accesses(self, tpcd_setup, benchmark):
        table, simple, encoded, btree, workload = tpcd_setup

        def run_all():
            return (
                _run(simple, workload),
                _run(encoded, workload),
                _run(btree, workload),
            )

        (s_total, s_per), (e_total, e_per), (b_total, b_per) = (
            benchmark.pedantic(run_all, iterations=1, rounds=1)
        )
        print_table(
            "TPC-D-like workload: total index accesses "
            "(51 queries, n = 4000)",
            ["index family", "total accesses"],
            [
                ("simple bitmap", s_total),
                ("encoded bitmap", e_total),
                ("B-tree", b_total),
            ],
        )
        rows = []
        for qc in TPCD_QUERY_CLASSES:
            rows.append(
                (qc.name, "range" if qc.involves_range else "point",
                 s_per.get(qc.name, 0), e_per.get(qc.name, 0),
                 b_per.get(qc.name, 0))
            )
        print_table(
            "Per-class accesses",
            ["class", "kind", "simple", "encoded", "btree"],
            rows,
        )
        # The paper's claim: encoded wins the workload because ranges
        # dominate.
        assert e_total < s_total

    def test_results_agree(self, tpcd_setup):
        """All three index families return identical row sets."""
        table, simple, encoded, btree, workload = tpcd_setup
        for query_class, predicate in workload[::5]:
            column = query_class.column
            a = simple[column].lookup(predicate)
            b = encoded[column].lookup(predicate)
            c = btree[column].lookup(predicate)
            assert a == b == c

    def test_point_queries_favor_simple(self, tpcd_setup):
        """The paper concedes single-value selections to simple
        bitmaps (1 vector vs up to k)."""
        table, simple, encoded, btree, workload = tpcd_setup
        point_queries = [
            (qc, p) for qc, p in workload if not qc.involves_range
        ]
        s_total, _ = _run(simple, point_queries)
        e_total, _ = _run(encoded, point_queries)
        assert s_total <= e_total
