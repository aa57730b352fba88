"""One copy of an encoded index's bits: a ``(k, nwords)`` plane matrix.

Covers the storage contract of
:class:`~repro.index.encoded_bitmap.EncodedBitmapIndex`:

* the kernel over k-row dense, mapped and compressed snapshots equals
  the ``evaluate_dnf`` tree walk — rows, touched set, raw reads and
  ``c_e`` — for functions with negated and common literals;
* after every maintenance path (build, appends, fold, rewrite of a
  folded row, delete, width expansion, spill, promote, repair,
  rebuild) ``vector(i)``, lookup rows and ``c_e`` equal a from-scratch
  index's, and the matrix holds ``k * nwords`` words;
* a matrix a reader has taken is never written to: a lookup holding
  one across a rewrite sees the old bits, ``vector(i)`` views are
  read-only, and rewrites with no reader in between write in place;
* writes that copy a spilled index's folded rows promote them first,
  and never read the plane file under the index lock;
* the version-2 plane file holds exactly the ``k`` rows, and a
  version-1 file is refused at open.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitvector import BitVector
from repro.bitmap.ops import packed_length, tail_mask
from repro.boolean.evaluator import AccessCounter, evaluate_dnf
from repro.boolean.minterm import Implicant
from repro.boolean.reduction import ReducedFunction
from repro.errors import CorruptIndexError
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.verify import repair, verify_index
from repro.kernels import (
    CompiledKernel,
    CompressedPlaneSet,
    MappedPlaneSet,
    PlaneSet,
    write_plane_file,
)
from repro.kernels.mapped import PLANE_DATA_OFFSET, PLANE_MAGIC
from repro.query.predicates import Equals, InList, IsNull, NotPredicate
from repro.table.table import Table

MODES = [
    ("encode", "encode"),
    ("encode", "vector"),
    ("vector", "encode"),
    ("vector", "vector"),
]


# ----------------------------------------------------------------------
# kernel == tree walk over k-row dense, mapped and compressed planes
# ----------------------------------------------------------------------
@st.composite
def signed_functions(draw):
    """Random DNFs over 1-10 variables, often sharing common literals
    and always free to negate any literal."""
    width = draw(st.integers(min_value=1, max_value=10))
    full = (1 << width) - 1
    common_care = draw(st.integers(0, full)) if draw(st.booleans()) else 0
    common_bits = draw(st.integers(0, full)) & common_care
    terms = []
    for bits, care in draw(
        st.lists(
            st.tuples(st.integers(0, full), st.integers(0, full)),
            min_size=1,
            max_size=6,
        )
    ):
        care |= common_care
        bits = ((bits & ~common_care) | common_bits) & care
        terms.append(Implicant(bits=bits, care=care, width=width))
    return ReducedFunction(terms=tuple(terms), width=width)


def _random_planes(seed: int, width: int, nbits: int):
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(width):
        words = rng.integers(
            0, 2**64, size=packed_length(nbits), dtype=np.uint64
        )
        if len(words):
            words[-1] &= tail_mask(nbits)
        vectors.append(BitVector._from_words(words, nbits))
    return vectors


@settings(max_examples=150, deadline=None)
@given(
    function=signed_functions(),
    nbits=st.sampled_from([0, 1, 63, 64, 65, 130, 513, 8257]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_tree_walk_on_every_snapshot(
    tmp_path_factory, function, nbits, seed
):
    vectors = _random_planes(seed, function.width, nbits)
    tree = AccessCounter()
    expected = evaluate_dnf(function, lambda i: vectors[i], nbits, tree)

    dense = PlaneSet.from_vectors(vectors, nbits)
    assert dense.matrix.shape == (function.width, packed_length(nbits))
    path = str(tmp_path_factory.mktemp("planes") / "p.ebp")
    write_plane_file(dense, path)
    mapped = MappedPlaneSet.open(path)
    runs = CompressedPlaneSet.from_vectors(vectors, nbits)
    # A fresh kernel, not the cached one: every strategy is compiled
    # from the same function.
    kernel = CompiledKernel(function)
    try:
        for snapshot in (dense, mapped, runs):
            counter = AccessCounter()
            got = kernel.evaluate(snapshot, counter)
            assert got == expected, type(snapshot).__name__
            assert counter.touched == tree.touched
            assert counter.reads == tree.reads
            assert counter.distinct_accesses == tree.distinct_accesses
    finally:
        mapped.close()


# ----------------------------------------------------------------------
# the single-copy invariant across every maintenance path
# ----------------------------------------------------------------------
PREDICATES = [
    Equals("v", "a"),
    Equals("v", "e"),
    InList("v", ["a", "c", "f"]),
    InList("v", ["b", "d", "g", "h", "z"]),
    NotPredicate(Equals("v", "b")),
    IsNull("v"),
]


def _assert_single_copy(index: EncodedBitmapIndex, table: Table) -> None:
    planes = index.planes()
    assert planes.width == index.width
    assert planes.nbytes() == index.width * planes.nwords * 8
    assert planes.nbits + index.delta_rows() == len(table)
    fresh = EncodedBitmapIndex(
        table,
        "v",
        encoding=index.mapping,
        void_mode=index.void_mode,
        null_mode=index.null_mode,
    )
    # Without Theorem 2.1's void code a deleted row keeps its code
    # (the existence vector masks it), where a fresh build stores 0.
    live = (
        table.existence_vector()
        if index.void_mode == "vector"
        else BitVector.ones(len(table))
    )
    for i in range(index.width):
        assert index.vector(i) & live == fresh.vector(i) & live, i
    for predicate in PREDICATES:
        assert index.lookup(predicate) == fresh.lookup(predicate), predicate
        assert (
            index.last_cost.vectors_accessed
            == fresh.last_cost.vectors_accessed
        ), predicate
    assert verify_index(index).ok


@pytest.mark.parametrize("void_mode,null_mode", MODES)
def test_single_copy_invariant_across_maintenance(
    tmp_path, void_mode, null_mode
):
    values = ["a", "b", None, "c", "d", "a", "b"] * 20
    table = Table.from_columns("t", {"v": values})
    index = EncodedBitmapIndex(
        table, "v", void_mode=void_mode, null_mode=null_mode
    )
    index.DELTA_COMPACT_THRESHOLD = 1 << 20  # fold only when asked
    table.attach(index)
    check = lambda: _assert_single_copy(index, table)  # noqa: E731
    check()  # build

    table.append_rows([{"v": v} for v in ("c", "a", None, "b")])
    assert index.delta_rows() == 4
    check()  # appends

    assert index.compact()
    assert index.delta_rows() == 0
    check()  # fold

    table.update(5, "v", "d")
    check()  # rewrite of a folded row

    table.delete(1)
    table.delete(table.append({"v": "c"}))
    assert index.delta_rows() == 1
    check()  # delete (folded and delta rows)

    width = index.width
    table.append_rows([{"v": v} for v in "efghijkl"])
    assert index.width > width
    check()  # width expansion

    path = str(tmp_path / "planes.ebp")
    assert index.spill_planes(path) is not None
    assert index.planes_mapped
    check()  # spill

    assert index.promote_planes() is not None
    assert not index.planes_mapped
    check()  # promote

    matrix = np.array(index.planes().matrix)
    matrix[0, 0] ^= np.uint64(1)
    index._planes = PlaneSet(matrix, index.width, index.planes().nbits)
    assert not verify_index(index).ok
    assert repair(index) == [0]
    check()  # repair

    table.append({"v": "a"})
    index.rebuild()
    assert index.delta_rows() == 0
    check()  # rebuild


def test_lookup_holding_planes_across_a_rewrite_sees_old_bits(monkeypatch):
    table = Table.from_columns("t", {"v": ["a", "b", "c", "a"] * 32})
    index = EncodedBitmapIndex(table, "v")
    table.attach(index)
    predicate = Equals("v", "a")
    before = index.lookup(predicate)
    held = index.planes()
    held_words = np.array(held.matrix)

    original = CompiledKernel.evaluate
    fired = []

    def rewrite_mid_lookup(self, planes, counter=None):
        # The lookup took its planes under the lock and evaluates
        # outside it: a writer publishes a new matrix right here.
        if not fired:
            fired.append(True)
            table.update(1, "v", "a")
        return original(self, planes, counter)

    monkeypatch.setattr(CompiledKernel, "evaluate", rewrite_mid_lookup)
    assert index.lookup(predicate) == before  # the old bits
    monkeypatch.undo()

    assert fired
    assert np.array_equal(held.matrix, held_words)  # never written
    assert index.planes() is not held
    after = index.lookup(predicate)
    assert after.indices().tolist() == sorted(
        before.indices().tolist() + [1]
    )


def test_rewrites_copy_only_after_a_reader_took_the_matrix():
    table = Table.from_columns("t", {"v": ["a", "b", "c", "d"] * 64})
    index = EncodedBitmapIndex(table, "v")
    table.attach(index)
    held = index.planes()  # a reader takes the matrix
    held_words = np.array(held.matrix)
    rebuilds = index.plane_rebuilds

    table.delete(0)  # copy on write: the held matrix stays as it was
    assert index.plane_rebuilds == rebuilds + 1
    assert np.array_equal(held.matrix, held_words)
    current = index._planes
    epoch = index.epoch()
    for row in (2, 4, 6):
        table.delete(row)  # nobody took the new matrix: in place
    table.update(8, "v", "b")
    assert index._planes is current
    assert index.plane_rebuilds == rebuilds + 1
    assert index.epoch()[0] > epoch[0]  # in-place rewrites still bump
    _assert_single_copy(index, table)

    index.lookup(Equals("v", "a"))  # a lookup takes it again
    table.delete(10)
    assert index._planes is not current
    assert index.plane_rebuilds == rebuilds + 2
    _assert_single_copy(index, table)


class _LockCheckedMatrix(MappedPlaneSet):
    """A mapped plane set whose matrix refuses reads under the lock."""

    __slots__ = ()
    lock = None

    @property
    def matrix(self):
        assert not type(self).lock._is_owned(), (
            "plane file read under the index lock"
        )
        return MappedPlaneSet.matrix.__get__(self, MappedPlaneSet)


@pytest.mark.parametrize("void_mode,null_mode", MODES)
def test_writes_to_a_spilled_index_promote_outside_the_lock(
    tmp_path, void_mode, null_mode
):
    values = ["a", "b", None, "c", "d", "a", "b"] * 20
    table = Table.from_columns("t", {"v": values})
    index = EncodedBitmapIndex(
        table, "v", void_mode=void_mode, null_mode=null_mode
    )
    index.DELTA_COMPACT_THRESHOLD = 8
    table.attach(index)
    _LockCheckedMatrix.lock = index._lock
    spills = iter(range(100))

    def spill():
        path = str(tmp_path / f"planes-{next(spills)}.ebp")
        assert index.spill_planes(path) is not None
        index._planes.__class__ = _LockCheckedMatrix

    def check(promoted):
        assert index.planes_mapped is not promoted
        _assert_single_copy(index, table)

    spill()
    table.append({"v": "a"})  # delta only: stays spilled
    check(promoted=False)
    table.append_rows([{"v": "c"}] * 7)  # reaches the fold threshold
    check(promoted=True)

    # Without Theorem 2.1's void code a delete rewrites no code.
    rewrites = void_mode == "encode"
    for write, promoted in (
        (lambda: table.delete(1), rewrites),  # a folded row
        (lambda: table.update(3, "v", "a"), True),
        (  # width expansion
            lambda: table.append_rows([{"v": v} for v in "efghijk"]),
            True,
        ),
        (index.compact, True),
    ):
        if not index.delta_rows():
            table.append({"v": "b"})
        if not index.planes_mapped:
            spill()
        promotions = index.plane_promotions
        write()
        assert index.plane_promotions == promotions + promoted
        check(promoted)


def test_vector_view_is_read_only():
    table = Table.from_columns("t", {"v": ["a", "b", "c"] * 30})
    index = EncodedBitmapIndex(table, "v")
    view = index.vector(0)
    with pytest.raises(ValueError):
        view[0] = not view[0]
    with pytest.raises(ValueError):
        view.words[0] = 0
    with pytest.raises(ValueError):
        view |= BitVector.ones(len(view))
    # A materialised vector (delta rows present) is the caller's copy.
    table.attach(index)
    table.append({"v": "a"})
    copy = index.vector(0)
    copy[0] = not copy[0]
    assert index.vector(0)[0] != copy[0]


# ----------------------------------------------------------------------
# plane file format version 2
# ----------------------------------------------------------------------
def test_plane_file_holds_k_rows(tmp_path):
    table = Table.from_columns("t", {"v": [i % 37 for i in range(1000)]})
    index = EncodedBitmapIndex(table, "v")
    planes = index.planes()
    path = str(tmp_path / "planes.ebp")
    nbytes = write_plane_file(planes, path)
    expected = PLANE_DATA_OFFSET + index.width * planes.nwords * 8
    assert nbytes == expected == os.path.getsize(path)


def test_version_1_plane_file_refused(tmp_path):
    width, nbits, nwords = 2, 64, 1
    payload = np.zeros((2 * width, nwords), dtype="<u8").tobytes()
    header = struct.pack(
        "<8sIIQQI",
        PLANE_MAGIC,
        1,
        width,
        nbits,
        nwords,
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    header += struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF)
    path = tmp_path / "old.ebp"
    path.write_bytes(
        header + b"\x00" * (PLANE_DATA_OFFSET - len(header)) + payload
    )
    with pytest.raises(CorruptIndexError, match="version 1"):
        MappedPlaneSet.open(str(path))

