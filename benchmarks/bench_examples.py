"""Figures 1-3 and 6 — the paper's worked examples, regenerated.

Each test rebuilds one illustrative figure with library objects and
prints the same artefacts the paper shows (mapping tables, bitmap
vector contents, reduced retrieval expressions).
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.boolean.reduction import reduce_values
from repro.encoding.mapping import MappingTable
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.predicates import Equals
from repro.table.table import Table


def _figure1_table():
    table = Table("T", ["A"])
    for value in ["a", "b", "c", "b", "a", "c"]:
        table.append({"A": value})
    return table


class TestFigure1:
    def test_regenerate(self, benchmark):
        def build():
            table = _figure1_table()
            mapping = MappingTable.from_pairs(
                [("a", 0b00), ("b", 0b01), ("c", 0b10)], width=2
            )
            simple = SimpleBitmapIndex(table, "A")
            encoded = EncodedBitmapIndex(
                table, "A", encoding=mapping,
                void_mode="vector", null_mode="vector",
            )
            return table, simple, encoded

        table, simple, encoded = benchmark.pedantic(
            build, iterations=1, rounds=1
        )
        print_table(
            "Figure 1: simple vs encoded bitmap index on {a, b, c}",
            ["row", "A", "B_a", "B_b", "B_c", "B1", "B0"],
            [
                (
                    j, table.row(j)["A"],
                    int(simple.vector_for("a")[j]),
                    int(simple.vector_for("b")[j]),
                    int(simple.vector_for("c")[j]),
                    int(encoded.vector(1)[j]),
                    int(encoded.vector(0)[j]),
                )
                for j in range(len(table))
            ],
        )
        print_table(
            "Figure 1 mapping table",
            ["value", "code"],
            encoded.mapping.to_rows(),
        )
        reduced = encoded.reduced_function(["a", "b"])
        print(f"\nf_a + f_b reduces to: {reduced}  "
              "(paper: B1')")
        assert str(reduced) == "B1'"


class TestFigure2:
    def test_regenerate_expansion(self):
        table = _figure1_table()
        mapping = MappingTable.from_pairs(
            [("a", 0b00), ("b", 0b01), ("c", 0b10)], width=2
        )
        index = EncodedBitmapIndex(
            table, "A", encoding=mapping, void_mode="vector"
        )
        table.attach(index)
        table.append({"A": "d"})  # Figure 2(a)
        width_after_d = index.width
        table.append({"A": "e"})  # Figure 2(b)
        print_table(
            "Figure 2: mapping after inserting d then e",
            ["value", "code"],
            index.mapping.to_rows(),
        )
        print(f"width after d: {width_after_d} (paper: unchanged), "
              f"after e: {index.width} (paper: +1 vector)")
        assert width_after_d == 2
        assert index.width == 3
        assert index.lookup(Equals("A", "e")).count() == 1


class TestFigure3:
    MAPPINGS = {
        "(a) well-defined": [
            ("a", 0b000), ("c", 0b001), ("g", 0b010), ("e", 0b011),
            ("b", 0b100), ("d", 0b101), ("h", 0b110), ("f", 0b111),
        ],
        "(a') also optimal": [
            ("a", 0b000), ("b", 0b001), ("c", 0b010), ("d", 0b011),
            ("g", 0b100), ("h", 0b101), ("e", 0b110), ("f", 0b111),
        ],
        "(b) improper": [
            ("a", 0b000), ("c", 0b001), ("g", 0b010), ("b", 0b011),
            ("e", 0b100), ("d", 0b101), ("h", 0b110), ("f", 0b111),
        ],
    }

    def test_regenerate(self, benchmark):
        def reduce_all():
            rows = []
            for name, pairs in self.MAPPINGS.items():
                mapping = dict(pairs)
                for selection in ("abcd", "cdef"):
                    codes = [mapping[v] for v in selection]
                    reduced = reduce_values(codes, 3)
                    rows.append(
                        (name, "{" + ",".join(selection) + "}",
                         reduced.to_string(),
                         reduced.vector_count())
                    )
            return rows

        rows = benchmark(reduce_all)
        print_table(
            "Figure 3: proper vs improper mappings "
            "(paper: 1 vector vs 3 vectors)",
            ["mapping", "selection", "retrieval fn", "vectors"],
            rows,
        )
        by_key = {(r[0], r[1]): r[3] for r in rows}
        assert by_key[("(a) well-defined", "{a,b,c,d}")] == 1
        assert by_key[("(a) well-defined", "{c,d,e,f}")] == 1
        assert by_key[("(b) improper", "{a,b,c,d}")] == 3
        assert by_key[("(b) improper", "{c,d,e,f}")] == 3


class TestFigure6:
    def test_regenerate(self):
        fig6 = {101: 0b000, 102: 0b001, 103: 0b010,
                104: 0b100, 105: 0b101, 106: 0b110}
        print_table(
            "Figure 6: total-order preserving encoding",
            ["value", "code"],
            [(v, format(c, "03b")) for v, c in fig6.items()],
        )
        codes = sorted(fig6.values())
        assert codes == [fig6[v] for v in sorted(fig6)]  # order kept
        hot = [fig6[v] for v in (101, 102, 104, 105)]
        dont_cares = [c for c in range(8) if c not in fig6.values()]
        reduced = reduce_values(hot, 3, dont_cares=dont_cares)
        print(f"hot IN-list {{101,102,104,105}} reduces to: {reduced}")
        assert str(reduced) == "B1'"
