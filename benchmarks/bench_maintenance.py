"""Section 3.1 — maintenance costs (and Figure 2's expansion cases).

The paper's model: per-append cost is O(h) for both families
(h = m simple, h = ceil(log2 m) encoded); domain expansion costs
O(|T|) + O(h) for simple (a full new vector) but between O(h) and
O(|T|) + O(h) for encoded (often just a mapping entry).
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_table
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.table.table import Table
from repro.workload.generators import build_table, uniform_column


def _fresh(m, n=2000):
    table = build_table(
        "t", n, {"v": uniform_column(n, m, seed=m)}
    )
    simple = SimpleBitmapIndex(table, "v")
    encoded = EncodedBitmapIndex(table, "v")
    table.attach(simple)
    table.attach(encoded)
    return table, simple, encoded


class TestAppendWithoutExpansion:
    def test_ops_per_append(self, benchmark):
        table, simple, encoded = _fresh(m=256)

        def append_batch():
            before_s = simple.stats.maintenance_ops
            before_e = encoded.stats.maintenance_ops
            for i in range(100):
                table.append({"v": i % 256})
            return (
                (simple.stats.maintenance_ops - before_s) / 100,
                (encoded.stats.maintenance_ops - before_e) / 100,
            )

        simple_ops, encoded_ops = benchmark.pedantic(
            append_batch, iterations=1, rounds=1
        )
        print_table(
            "Per-append maintenance ops (no domain expansion, m = 256)",
            ["index", "ops/append (model)", "ops/append (measured)"],
            [
                ("simple bitmap", "O(1) bit + resize", f"{simple_ops:.1f}"),
                ("encoded bitmap", "O(log2 m) bits",
                 f"{encoded_ops:.1f}"),
            ],
        )
        # encoded writes k bits; simple writes 1 bit but in 1-of-m
        # vectors — both constant per append.
        assert encoded_ops < 20

    def test_wallclock_append(self, benchmark):
        table, simple, encoded = _fresh(m=64, n=500)
        counter = iter(range(10**9))

        def one_append():
            table.append({"v": next(counter) % 64})

        benchmark(one_append)


class TestDomainExpansion:
    def test_simple_pays_full_vector(self):
        """A brand-new value charges O(|T|) to the simple index."""
        table, simple, encoded = _fresh(m=100, n=2000)
        before_s = simple.stats.maintenance_ops
        before_e = encoded.stats.maintenance_ops
        table.append({"v": 10**6})  # unseen value
        simple_cost = simple.stats.maintenance_ops - before_s
        encoded_cost = encoded.stats.maintenance_ops - before_e
        print_table(
            "Domain-expansion cost for ONE new value (n = 2000)",
            ["index", "model", "measured ops"],
            [
                ("simple bitmap", "O(|T|) + O(h)", simple_cost),
                ("encoded bitmap", "O(h)..O(|T|)+O(h)", encoded_cost),
            ],
        )
        assert simple_cost >= len(table) - 1
        assert encoded_cost < simple_cost

    def test_encoded_expansion_with_new_vector(self):
        """Figure 2(b): when ceil(log2) steps up, the encoded index
        adds one zeroed vector — still far below m new vectors."""
        table = Table("t", ["v"])
        for i in range(1000):
            table.append({"v": i % 3})  # {VOID,0,1,2} fills width 2
        encoded = EncodedBitmapIndex(table, "v")
        table.attach(encoded)
        width_before = encoded.width
        table.append({"v": 99})  # 5th mapped value -> width 3
        assert encoded.width == width_before + 1
        from repro.query.predicates import Equals

        assert encoded.lookup(Equals("v", 99)).count() == 1
        assert encoded.lookup(Equals("v", 1)).count() == 333

    def test_expansion_sweep(self, benchmark):
        """Ops to insert 20 unseen values at several table sizes —
        simple grows linearly with n, encoded stays near-flat."""

        def sweep():
            rows = []
            for n in (500, 1000, 2000):
                table, simple, encoded = _fresh(m=50, n=n)
                before_s = simple.stats.maintenance_ops
                before_e = encoded.stats.maintenance_ops
                for i in range(20):
                    table.append({"v": 10**6 + i})
                rows.append(
                    (
                        n,
                        simple.stats.maintenance_ops - before_s,
                        encoded.stats.maintenance_ops - before_e,
                    )
                )
            return rows

        rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
        print_table(
            "20 domain expansions: total maintenance ops vs n",
            ["n", "simple ops", "encoded ops"],
            rows,
        )
        assert rows[-1][1] > rows[0][1] * 2  # linear in n
        assert rows[-1][2] < rows[-1][1]


class TestFoldedRowRewrites:
    """Updates and deletes of rows already folded into the planes.

    The ``(k, nwords)`` plane matrix is the encoded index's only copy
    of its bits, and lookups evaluate it outside the index lock, so
    the first rewrite of a folded row after a lookup writes a new copy
    of the matrix; rewrites with no lookup in between write in place.
    The matrix copies are counted on ``plane_rebuilds``.
    """

    N = 262_144

    def _fresh(self):
        table = build_table(
            "t", self.N, {"v": uniform_column(self.N, 64, seed=7)}
        )
        encoded = EncodedBitmapIndex(table, "v")
        table.attach(encoded)
        return table, encoded

    def test_rewrites_with_and_without_lookups_between(self, benchmark):
        from repro.query.predicates import Equals

        def run():
            rows = []
            for every in (None, 10, 1):
                table, encoded = self._fresh()
                encoded.lookup(Equals("v", 3))
                before = encoded.plane_rebuilds
                lookups = 1
                start = time.perf_counter()
                for i in range(1000):
                    if i % 2:
                        table.update(2 * i, "v", i % 64)
                    else:
                        table.delete(2 * i)
                    if every is not None and i % every == 0:
                        encoded.lookup(Equals("v", 3))
                        lookups += 1
                elapsed = time.perf_counter() - start
                rows.append(
                    (
                        "never" if every is None else f"every {every}",
                        lookups,
                        encoded.plane_rebuilds - before,
                        f"{elapsed * 1e3:.1f}",
                    )
                )
            return rows, encoded.width

        rows, width = benchmark.pedantic(run, iterations=1, rounds=1)
        print_table(
            f"1000 rewrites of folded rows, n = {self.N}, k = {width}",
            ["lookup", "lookups", "matrix copies", "total ms"],
            rows,
        )
        for _, lookups, copies, _ in rows:
            assert copies <= lookups  # one copy per lookup at most
