"""Batched appends, the code-array delta tier and the vectorised build.

Every check here compares against a row-at-a-time reference: the
term-mask matcher against :meth:`ReducedFunction.evaluate_value`, one
``append_rows`` batch against the same rows appended one by one, the
vectorised build against per-row codes, and WAL replay against the
live index.  Each equality is bit-for-bit (vectors, planes, rows and
``c_e``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitvector import BitVector
from repro.boolean.minterm import Implicant
from repro.boolean.reduction import ReducedFunction
from repro.database import Database
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.verify import verify_index
from repro.query.predicates import Equals, InList, IsNull, NotPredicate
from repro.query.snapshot import pinned_rows
from repro.shard.partition import PartitionedTable
from repro.table.table import Table

ALL_MODES = [
    (void_mode, null_mode)
    for void_mode in ("encode", "vector")
    for null_mode in ("encode", "vector")
]
BASE = ["a", "b", None, "c", "a", "d", "b", None, "c", "a"]
#: New values ("e".."n") force two width expansions mid-batch.
BATCH = ["a", None, "e", "b", "f", "g", "a", "h", None, "i", "j", "k",
         "c", "l", "m", "n", "a", None, "b", "d"]
DOMAIN = sorted({v for v in BASE + BATCH if v is not None})


def _rows(index, predicate):
    return [i for i, bit in enumerate(index.lookup(predicate)) if bit]


def _predicates():
    return (
        [Equals("v", value) for value in DOMAIN]
        + [
            InList("v", ["a", "e", "n"]),
            InList("v", DOMAIN),
            IsNull("v"),
            NotPredicate(Equals("v", "a")),
        ]
    )


def _make(void_mode, null_mode, threshold):
    table = Table.from_columns("T", {"v": list(BASE)})
    index = EncodedBitmapIndex(
        table, "v", void_mode=void_mode, null_mode=null_mode
    )
    index.DELTA_COMPACT_THRESHOLD = threshold
    table.attach(index)
    table.delete(3)
    index.lookup(Equals("v", "a"))  # warm the planes
    for value in ("b", "c"):  # a live delta before the batch
        table.append({"v": value})
    return table, index


def _assert_suffix_invariant(index):
    # The delta is the row suffix after the folded planes' rows.
    assert index.planes().nbits + index.delta_rows() == len(index.table)


# ---------------------------------------------------------------------------
# term-mask matcher
# ---------------------------------------------------------------------------
@st.composite
def functions(draw):
    width = draw(st.integers(min_value=1, max_value=12))
    full = (1 << width) - 1
    kind = draw(st.sampled_from(["random", "true", "false"]))
    if kind == "true":
        terms = (Implicant(bits=0, care=0, width=width),)
    elif kind == "false":
        terms = ()
    else:
        terms = tuple(
            Implicant(bits=bits & care, care=care, width=width)
            for bits, care in draw(
                st.lists(
                    st.tuples(
                        st.integers(0, full), st.integers(0, full)
                    ),
                    min_size=1,
                    max_size=6,
                )
            )
        )
    return ReducedFunction(terms=terms, width=width)


@settings(max_examples=60, deadline=None)
@given(functions())
def test_term_masks_equal_evaluate_value_on_every_code(function):
    width = function.width
    codes = np.arange(1 << width, dtype=np.min_scalar_type((1 << width) - 1))
    expected = [function.evaluate_value(code) for code in range(1 << width)]
    assert function.evaluate_codes(codes).tolist() == expected


# ---------------------------------------------------------------------------
# one batch == N single-row appends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("void_mode,null_mode", ALL_MODES)
@pytest.mark.parametrize("threshold", [4096, 8])
def test_batch_is_bit_identical_to_single_row_appends(
    void_mode, null_mode, threshold
):
    batched_table, batched = _make(void_mode, null_mode, threshold)
    single_table, single = _make(void_mode, null_mode, threshold)
    watermark = batched_table.published_rows()
    batched_table.append_rows([{"v": value} for value in BATCH])
    for value in BATCH:
        single_table.append({"v": value})

    # Before any lookup: a lookup may fold the delta (a plane rebuild
    # after a mid-batch width expansion), and the row-at-a-time path
    # expands later than the batch, so it can need one more.
    if threshold == 8:
        assert batched.compactions == single.compactions >= 2
    assert batched.delta_rows() == single.delta_rows()
    _assert_suffix_invariant(batched)
    assert batched.stats.maintenance_ops == single.stats.maintenance_ops
    assert batched.mapping == single.mapping
    assert batched.width == single.width
    for i in range(batched.width):
        assert batched.vector(i) == single.vector(i), i
    assert batched._exists_vector == single._exists_vector
    assert batched._null_vector == single._null_vector

    # Pinned below the batch: neither index shows any of it.
    with pinned_rows(batched_table, watermark), pinned_rows(
        single_table, watermark
    ):
        for predicate in _predicates():
            rows = _rows(batched, predicate)
            assert rows == _rows(single, predicate), predicate
            assert all(row < watermark for row in rows)
            assert (
                batched.last_cost.vectors_accessed
                == single.last_cost.vectors_accessed
            ), predicate

    # The snapshot either side holds depends on when it was last
    # folded; once both are folded they must agree bit for bit.
    batched.compact()
    single.compact()
    batched_planes, single_planes = batched.planes(), single.planes()
    assert batched_planes.nbits == single_planes.nbits
    assert np.array_equal(batched_planes.matrix, single_planes.matrix)

    rebuilt = EncodedBitmapIndex(
        batched_table,
        "v",
        encoding=batched.mapping,
        void_mode=void_mode,
        null_mode=null_mode,
    )
    for predicate in _predicates():
        expected = _rows(rebuilt, predicate)
        assert _rows(batched, predicate) == expected, predicate
        assert _rows(single, predicate) == expected, predicate
        assert (
            batched.last_cost.vectors_accessed
            == single.last_cost.vectors_accessed
        ), predicate
    assert verify_index(batched).ok


def test_delta_stays_a_contiguous_suffix():
    table, index = _make("encode", "encode", threshold=16)
    for step in range(40):
        table.append_rows([{"v": BASE[(step + j) % 10]} for j in range(3)])
        _assert_suffix_invariant(index)
        if step % 5 == 0:
            row = len(table) - 2
            table.update(row, "v", "z")
            table.delete(row)
            _assert_suffix_invariant(index)
        if step % 7 == 0:
            index.lookup(Equals("v", "a"))
            _assert_suffix_invariant(index)
    assert index.delta_rows() < 16
    rebuilt = EncodedBitmapIndex(table, "v", encoding=index.mapping)
    for value in ("a", "b", "z"):
        assert _rows(index, Equals("v", value)) == _rows(
            rebuilt, Equals("v", value)
        )


def test_delta_row_rewritten_past_a_byte_wide_code():
    # 255 values + VOID fill all 256 codes of k = 8: uint8 delta codes.
    table = Table.from_columns("T", {"v": [f"x{i:03d}" for i in range(255)]})
    index = EncodedBitmapIndex(table, "v")
    table.attach(index)
    assert index.width == 8
    index.lookup(Equals("v", "x000"))
    row = table.append({"v": "x001"})
    table.update(row, "v", "new")  # k = 9 while the row is in the delta
    assert index.width == 9
    assert _rows(index, Equals("v", "new")) == [row]
    assert _rows(index, Equals("v", "x001")) == [1]


def test_partitioned_table_notifies_once_per_batch():
    ptable = PartitionedTable.from_columns(
        "P", {"v": ["a"] * 128, "w": list(range(128))}, partitions=2
    )
    calls = []

    class Spy:
        def on_append_rows(self, first_row_id, columns):
            calls.append((first_row_id, {k: list(v) for k, v in columns.items()}))

    ptable.attach(Spy())
    assert ptable.append_rows([{"v": "a", "w": 1}, {"v": "b", "w": 2}]) == [
        128,
        129,
    ]
    assert ptable.append({"v": "c", "w": 3}) == 130
    assert calls == [
        (128, {"v": ["a", "b"], "w": [1, 2]}),
        (130, {"v": ["c"], "w": [3]}),
    ]


# ---------------------------------------------------------------------------
# NULL codes in every void/NULL mode
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("void_mode,null_mode", ALL_MODES)
def test_null_rows_never_match_a_value(void_mode, null_mode):
    table = Table.from_columns("T", {"v": ["a", "b", None, "c"]})
    index = EncodedBitmapIndex(
        table, "v", void_mode=void_mode, null_mode=null_mode
    )
    table.attach(index)
    assert _rows(index, Equals("v", "a")) == [0]
    assert _rows(index, InList("v", ["a", "c"])) == [0, 3]
    assert _rows(index, IsNull("v")) == [2]
    table.append_rows([{"v": "a"}, {"v": None}, {"v": "e"}])
    table.append({"v": None})
    assert _rows(index, Equals("v", "a")) == [0, 4]
    assert _rows(index, InList("v", ["a", "c", "e"])) == [0, 3, 4, 6]
    assert _rows(index, IsNull("v")) == [2, 5, 7]
    assert verify_index(index).ok


# ---------------------------------------------------------------------------
# vectorised build == per-row reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("void_mode,null_mode", ALL_MODES)
def test_vectorised_build_matches_per_row_codes(void_mode, null_mode):
    values = [BASE[(i * 7) % 10] for i in range(300)]
    table = Table.from_columns("T", {"v": values})
    for row in range(0, 300, 11):
        table.delete(row)
    index = EncodedBitmapIndex(
        table, "v", void_mode=void_mode, null_mode=null_mode
    )
    void = table.void_rows()
    codes = [
        index._void_code() if row in void else index._code_for(value)
        for row, value in enumerate(values)
    ]
    for i in range(index.width):
        expected = BitVector.from_bools([(code >> i) & 1 for code in codes])
        assert index.vector(i) == expected, i
    if void_mode == "vector":
        assert index._exists_vector == BitVector.from_bools(
            [row not in void for row in range(300)]
        )
    if null_mode == "vector":
        assert index._null_vector == BitVector.from_bools(
            [row not in void and value is None
             for row, value in enumerate(values)]
        )
    assert verify_index(index).ok


# ---------------------------------------------------------------------------
# WAL replay of batched appends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("void_mode,null_mode", ALL_MODES)
def test_wal_replay_of_batches_is_bit_identical(
    tmp_path, void_mode, null_mode
):
    directory = str(tmp_path / "db")
    db = Database()
    db.create_table("T", {"v": list(BASE)})
    db.create_index("T", "v", void_mode=void_mode, null_mode=null_mode)
    db.save(directory)
    for start in range(0, len(BATCH), 6):
        db.append_rows("T", [{"v": v} for v in BATCH[start:start + 6]])
    live = db.catalog.indexes_on("T", "v")[0].child(0)

    recovered = Database.recover(directory)
    replayed = recovered.catalog.indexes_on("T", "v")[0].child(0)
    assert replayed.mapping == live.mapping
    assert replayed.delta_rows() == live.delta_rows()
    for i in range(live.width):
        assert replayed.vector(i) == live.vector(i), i
    for predicate in _predicates():
        assert _rows(replayed, predicate) == _rows(live, predicate)
        assert (
            replayed.last_cost.vectors_accessed
            == live.last_cost.vectors_accessed
        ), predicate
