"""Differential tests for compressed execution (ISSUE 8).

The contract under test: a compiled kernel evaluating directly on
word-aligned runs (:class:`~repro.kernels.runs.CompressedPlaneSet`)
must be bit-identical — result rows AND access accounting, the
paper's ``c_e`` — to the packed kernel and to the tree-walking
``evaluate_dnf``, for any reduced function, any plane contents, any
row ordering, and across live delta-tier writes.  Plus: token and
serialization roundtrips for compressed payloads, the
``RunLengthBitmap`` <-> ``WordAlignedBitmap`` bridge, and the reorder
pass's permutation invariants down to the ``Database`` facade.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitvector import BitVector
from repro.bitmap.rle import RunLengthBitmap
from repro.bitmap.wah import WordAlignedBitmap
from repro.boolean.evaluator import AccessCounter, evaluate_dnf
from repro.boolean.reduction import reduce_values
from repro.database import Database
from repro.errors import CorruptIndexError, InvalidArgumentError
from repro.index import serialization
from repro.index.compressed import CompressedBitmapIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.kernels import PlaneSet, compile_function
from repro.kernels.runs import CompressedPlaneSet
from repro.query.predicates import Equals, InList
from repro.shard.reorder import (
    ORDERINGS,
    reorder_table,
    row_permutation,
)
from repro.table.table import Table


def random_planes(rng, width, nbits):
    """Mixed-texture planes: runny, sparse, dense and random."""
    planes = []
    for i in range(width):
        texture = rng.randrange(4)
        if texture == 0:  # long fills
            bits, bit = [], rng.random() < 0.5
            while len(bits) < nbits:
                run = rng.randint(1, max(1, nbits // 3))
                bits.extend([bit] * run)
                bit = not bit
            planes.append(BitVector.from_bools(bits[:nbits]))
        elif texture == 1:  # sparse
            planes.append(
                BitVector.from_bools(
                    rng.random() < 0.02 for _ in range(nbits)
                )
            )
        elif texture == 2:  # dense
            planes.append(
                BitVector.from_bools(
                    rng.random() < 0.98 for _ in range(nbits)
                )
            )
        else:
            planes.append(
                BitVector.from_bools(
                    rng.random() < 0.5 for _ in range(nbits)
                )
            )
    return planes


# ----------------------------------------------------------------------
# randomized differential: run kernel == packed kernel == tree walk
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_run_kernel_matches_packed_and_tree_walk(data):
    width = data.draw(st.integers(min_value=1, max_value=6))
    nbits = data.draw(
        st.sampled_from([0, 1, 7, 63, 64, 65, 129, 513])
    )
    m = 1 << width
    codes = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            max_size=m,
            unique=True,
        )
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)

    function = reduce_values(codes, width)
    planes = random_planes(rng, width, nbits)
    kernel = compile_function(function)

    tree_counter = AccessCounter()
    expected = evaluate_dnf(
        function, lambda i: planes[i], nbits, tree_counter
    )
    packed_counter = AccessCounter()
    packed = kernel.evaluate(
        PlaneSet.from_vectors(planes, nbits), packed_counter
    )
    runs_counter = AccessCounter()
    runs = kernel.evaluate(
        CompressedPlaneSet.from_vectors(planes, nbits), runs_counter
    )

    assert runs == expected
    assert runs == packed
    for counter in (packed_counter, runs_counter):
        assert counter.touched == tree_counter.touched
        assert counter.reads == tree_counter.reads
        assert (
            counter.distinct_accesses == tree_counter.distinct_accesses
        )


# ----------------------------------------------------------------------
# randomized differential: every ordering selects the same rows
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orderings_preserve_selected_rows_and_c_e(data):
    n = data.draw(st.integers(min_value=0, max_value=200))
    m = data.draw(st.sampled_from([2, 5, 16]))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    values = [rng.randrange(m) for _ in range(n)]
    selected = sorted(
        rng.sample(range(m), rng.randint(1, min(4, m)))
    )
    predicate = InList("v", selected)

    reference_rows = None
    reference_cost = None
    for ordering in ORDERINGS:
        table = Table.from_columns(f"t_{ordering}", {"v": list(values)})
        perm = row_permutation(table, ["v"], ordering)
        table.apply_permutation(perm)
        index = EncodedBitmapIndex(table, "v")
        packed = index.lookup(predicate)
        runs = CompressedPlaneSet.from_vectors(
            [index.vector(i) for i in range(index.width)], n
        )
        counter = AccessCounter()
        compressed = compile_function(
            index.explain_predicate(predicate)
        ).evaluate(runs, counter)
        for result, cost in (
            (packed, index.last_cost.vectors_accessed),
            (compressed, counter.distinct_accesses),
        ):
            original = sorted(
                perm[row] for row in range(n) if result[row]
            )
            if reference_rows is None:
                reference_rows, reference_cost = original, cost
            assert original == reference_rows
            # c_e depends only on the reduced function, never on the
            # physical row order or the plane representation.
            assert cost == reference_cost


# ----------------------------------------------------------------------
# live deltas: run kernels stay exact while the delta tier is hot
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_kernel_exact_across_live_deltas(data):
    m = 8
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    appends = data.draw(st.integers(min_value=0, max_value=40))
    rng = random.Random(seed)

    table = Table.from_columns(
        "hot", {"v": [rng.randrange(m) for _ in range(100)]}
    )
    packed_index = EncodedBitmapIndex(table, "v")
    table.attach(packed_index)
    for _ in range(appends):
        table.append({"v": rng.randrange(m)})
    # Built from vector(i), which fills the delta rows from their codes.
    runs = CompressedPlaneSet.from_vectors(
        [packed_index.vector(i) for i in range(packed_index.width)],
        len(table),
    )

    for value in range(m):
        predicate = Equals("v", value)
        counter = AccessCounter()
        got = compile_function(
            packed_index.explain_predicate(predicate)
        ).evaluate(runs, counter)
        got_cost = counter.distinct_accesses
        want = packed_index.lookup(predicate)
        want_cost = packed_index.last_cost.vectors_accessed
        fresh = EncodedBitmapIndex(table, "v").lookup(predicate)
        assert list(got) == list(want) == list(fresh)
        assert got_cost == want_cost


# ----------------------------------------------------------------------
# token + bridge roundtrips
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_wah_token_and_rle_bridge_roundtrip(data):
    nbits = data.draw(
        st.sampled_from([0, 1, 63, 64, 65, 128, 200, 513])
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    vector = random_planes(rng, 1, nbits)[0]

    wah = WordAlignedBitmap.from_bitvector(vector)
    assert (
        WordAlignedBitmap.from_tokens(wah.tokens(), nbits).to_bitvector()
        == vector
    )
    rle = RunLengthBitmap.from_bitvector(vector)
    assert rle.to_word_aligned().to_bitvector() == vector
    assert RunLengthBitmap.from_word_aligned(wah) == rle


def test_wah_from_tokens_rejects_bad_coverage():
    vector = BitVector.from_bools([True] * 100)
    tokens = WordAlignedBitmap.from_bitvector(vector).tokens()
    with pytest.raises(InvalidArgumentError):
        WordAlignedBitmap.from_tokens(tokens, 300)
    with pytest.raises(InvalidArgumentError):
        WordAlignedBitmap.from_tokens(tokens[:-1], 100)


# ----------------------------------------------------------------------
# serialization: compressed payloads through the v2 checksummed format
# ----------------------------------------------------------------------
def build_compressed_index(n=500, m=12, seed=3, nulls=True):
    rng = random.Random(seed)
    table = Table("t", ["v"])
    for _ in range(n):
        value = None if nulls and rng.random() < 0.05 else rng.randrange(m)
        table.append({"v": value})
    return table, CompressedBitmapIndex(table, "v")


def test_compressed_index_roundtrips_through_v2():
    table, index = build_compressed_index()
    payload = serialization.dumps(index)
    parsed = serialization.parse(payload)
    assert parsed.kind == "compressed"
    assert len(parsed.compressed) == len(parsed.values) + 1

    loaded = serialization.loads(payload, table)
    assert isinstance(loaded, CompressedBitmapIndex)
    for value in range(12):
        assert list(loaded.lookup(Equals("v", value))) == list(
            index.lookup(Equals("v", value))
        )


def test_compressed_payload_corruption_detected():
    _, index = build_compressed_index(n=200, seed=5)
    payload = bytearray(serialization.dumps(index))
    detected = 0
    for offset in range(20, len(payload), max(1, len(payload) // 40)):
        tampered = bytearray(payload)
        tampered[offset] ^= 0x40
        try:
            serialization.parse(bytes(tampered))
        except CorruptIndexError:
            detected += 1
    assert detected > 0


def test_compressed_index_save_load_fsck(tmp_path):
    from repro.index.verify import verify_payload

    table, index = build_compressed_index(n=300, seed=7)
    path = tmp_path / "v.ebi"
    serialization.save(index, str(path))
    report = verify_payload(path.read_bytes())
    assert report.ok, report
    assert report.vectors == index.vector_count + 1

    loaded = serialization.load(str(path), table)
    assert list(loaded.lookup(Equals("v", 3))) == list(
        index.lookup(Equals("v", 3))
    )


# ----------------------------------------------------------------------
# reorder invariants
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_permutation_is_a_permutation(data):
    n = data.draw(st.integers(min_value=0, max_value=120))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    ordering = data.draw(st.sampled_from(ORDERINGS))
    rng = random.Random(seed)
    table = Table.from_columns(
        "p",
        {
            "a": [rng.randrange(5) for _ in range(n)],
            "b": [rng.randrange(3) for _ in range(n)],
        },
    )
    perm = row_permutation(table, None, ordering)
    assert sorted(perm) == list(range(n))
    if ordering == "unordered":
        assert perm == list(range(n))


def test_reorder_rejects_unknown_ordering():
    table = Table.from_columns("r", {"a": [1, 2]})
    with pytest.raises(InvalidArgumentError):
        reorder_table(table, ["a"], "zigzag")


def test_reorder_remaps_void_rows():
    table = Table.from_columns("v", {"a": [3, 1, 2, 1]})
    index = EncodedBitmapIndex(table, "a")
    table.attach(index)
    table.delete(0)  # void the row holding 3
    reorder_table(table, ["a"], "lex")
    assert len(table.void_rows()) == 1
    assert index.lookup(Equals("a", 3)).count() == 0
    assert index.lookup(Equals("a", 1)).count() == 2


def test_database_reorder_persists_metadata_and_rows(tmp_path):
    db = Database()
    rng = random.Random(13)
    db.create_table(
        "sales",
        {"v": [rng.randrange(8) for _ in range(256)]},
        partitions=4,
    )
    db.create_index("sales", "v")
    db.create_index("sales", "v", kind="compressed")
    before = set(db.query("sales", InList("v", [2, 6])).row_ids())

    db.save(str(tmp_path))
    permutations = db.reorder("sales", ["v"], ordering="hist")
    assert len(permutations) == 4

    meta = db.reorder_metadata("sales")
    assert meta["ordering"] == "hist"
    assert meta["columns"] == ["v"]

    reloaded = Database.load(str(tmp_path))
    assert reloaded.reorder_metadata("sales")["ordering"] == "hist"
    after = set(reloaded.query("sales", InList("v", [2, 6])).row_ids())
    offsets = range(0, 256, 64)
    mapped = set()
    for row_id in after:
        part = min(row_id // 64, 3)
        offset = list(offsets)[part]
        mapped.add(offset + permutations[part][row_id - offset])
    assert mapped == before
