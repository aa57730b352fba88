"""Differential tests for the compiled retrieval kernels.

The contract under test (ISSUE 5): for any reduced function and any
plane contents, the compiled kernel, the tree-walking ``evaluate_dnf``
and a per-row Python reference must produce identical result vectors
AND identical access accounting (``distinct_accesses`` — the paper's
``c_e`` — and raw ``reads``).  Plus: LRU eviction behaviour of the
cache stack and invalidation of the per-index kernel/plane caches on
mapping changes and data writes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitvector import BitVector
from repro.boolean.evaluator import AccessCounter, evaluate_dnf
from repro.boolean.reduction import (
    ReducedFunction,
    clear_reduction_cache,
    minterm_dnf,
    reduce_values,
    reduce_values_cached,
    reduction_cache,
    reduction_cache_stats,
)
from repro.cache import LRUCache
from repro.errors import InvalidArgumentError
from repro.kernels import (
    GATHER_MAX_WORDS,
    PlaneSet,
    clear_compile_cache,
    compile_function,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import Equals, InList, IsNull
from repro.query.snapshot import pinned_rows
from repro.table.table import Table


def random_planes(rng, width, nbits):
    return [
        BitVector.from_bools(rng.random() < 0.5 for _ in range(nbits))
        for _ in range(width)
    ]


def per_row_reference(function, planes, nbits):
    """Evaluate by reconstructing each row's code — O(n·k) Python."""
    out = BitVector(nbits)
    for row in range(nbits):
        code = 0
        for i, plane in enumerate(planes):
            if plane[row]:
                code |= 1 << i
        if function.evaluate_value(code):
            out[row] = True
    return out


# ----------------------------------------------------------------------
# randomized differential suite: kernel == tree walk == per-row
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kernel_matches_tree_walk_and_reference(data):
    width = data.draw(st.integers(min_value=1, max_value=6))
    nbits = data.draw(
        st.sampled_from([0, 1, 7, 63, 64, 65, 130, 513])
    )
    m = 1 << width
    codes = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            max_size=m,
            unique=True,
        )
    )
    rest = sorted(set(range(m)) - set(codes))
    dont_cares = (
        data.draw(st.lists(st.sampled_from(rest), unique=True))
        if rest
        else []
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)

    function = reduce_values(codes, width, dont_cares=dont_cares)
    planes = random_planes(rng, width, nbits)

    tree_counter = AccessCounter()
    expected = evaluate_dnf(
        function, lambda i: planes[i], nbits, tree_counter
    )

    kernel_counter = AccessCounter()
    kernel = compile_function(function)
    got = kernel.evaluate(
        PlaneSet.from_vectors(planes, nbits), kernel_counter
    )

    assert got == expected
    # Access accounting must be bit-identical: same distinct set AND
    # the same raw read count (reads, not just len(touched)).
    assert kernel_counter.touched == tree_counter.touched
    assert kernel_counter.reads == tree_counter.reads
    assert kernel_counter.distinct_accesses == tree_counter.distinct_accesses

    # Rows covered by a don't-care code may legitimately differ from
    # the unreduced semantics, so the per-row reference uses the
    # *reduced* function — all three implementations must agree on it.
    assert got == per_row_reference(function, planes, nbits)


def test_kernel_constant_folding_matches_early_exits():
    # Constant-false: no terms.
    false_fn = ReducedFunction(terms=(), width=3)
    # Constant-true: don't-cares collapse everything.
    true_fn = reduce_values(
        list(range(4)), 2, dont_cares=[]
    )
    assert true_fn.is_true

    rng = random.Random(1)
    for function, expected_ctor in (
        (false_fn, BitVector),
        (true_fn, BitVector.ones),
    ):
        planes = random_planes(rng, function.width, 100)
        tree_counter = AccessCounter()
        tree = evaluate_dnf(
            function, lambda i: planes[i], 100, tree_counter
        )
        kernel_counter = AccessCounter()
        kernel = compile_function(function)
        assert kernel.is_constant
        got = kernel.evaluate(
            PlaneSet.from_vectors(planes, 100), kernel_counter
        )
        assert got == tree == expected_ctor(100)
        # The early exits touch nothing — and so must the kernel.
        assert tree_counter.reads == 0
        assert kernel_counter.reads == 0


def test_kernel_strategies_agree_across_the_crossover():
    """Loop and gather strategies split at GATHER_MAX_WORDS words;
    results must be identical on both sides of the threshold."""
    rng = random.Random(3)
    width = 5
    function = reduce_values([3, 5, 9, 17, 29], width, dont_cares=[31])
    assert len(function.terms) >= 2  # both strategies exercised
    kernel = compile_function(function)
    for nwords in (1, GATHER_MAX_WORDS, GATHER_MAX_WORDS + 1, 300):
        nbits = nwords * 64 - 3
        planes = random_planes(rng, width, nbits)
        expected = evaluate_dnf(function, lambda i: planes[i], nbits)
        got = kernel.evaluate(PlaneSet.from_vectors(planes, nbits))
        assert got == expected, f"mismatch at {nwords} words"


def test_kernel_common_literal_factoring_single_term():
    # One term: every literal is "common"; the residue OR is constant
    # true and the kernel reduces to an AND chain.
    function = minterm_dnf([5], 3)
    kernel = compile_function(function)
    rng = random.Random(9)
    planes = random_planes(rng, 3, 200)
    expected = evaluate_dnf(function, lambda i: planes[i], 200)
    assert kernel.evaluate(PlaneSet.from_vectors(planes, 200)) == expected


def test_kernel_width_mismatch_rejected():
    function = minterm_dnf([1], 2)
    kernel = compile_function(function)
    planes = PlaneSet.from_vectors(random_planes(random.Random(0), 3, 10), 10)
    with pytest.raises(InvalidArgumentError):
        kernel.evaluate(planes)


# ----------------------------------------------------------------------
# LRU cache behaviour
# ----------------------------------------------------------------------
def test_lru_cache_eviction_order_and_stats():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts "b" (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.evictions == 1
    assert cache.hits == 3
    assert cache.misses == 1
    assert len(cache) == 2


def test_lru_cache_get_or_create_builds_once():
    cache = LRUCache(maxsize=4)
    calls = []
    value = cache.get_or_create("k", lambda: calls.append(1) or 42)
    again = cache.get_or_create("k", lambda: calls.append(1) or 42)
    assert value == again == 42
    assert len(calls) == 1


def test_lru_cache_rejects_bad_maxsize():
    with pytest.raises(InvalidArgumentError):
        LRUCache(maxsize=0)


def test_reduction_cache_shares_work_and_evicts():
    clear_reduction_cache()
    before_hits, before_misses, _ = reduction_cache_stats()
    first = reduce_values_cached([1, 2], 3, dont_cares=[7])
    second = reduce_values_cached([2, 1], 3, dont_cares=[7])
    assert first is second  # canonical key: order does not matter
    hits, misses, size = reduction_cache_stats()
    assert hits == before_hits + 1
    assert misses == before_misses + 1
    assert size >= 1
    # Different don't-cares are a different predicate shape.
    third = reduce_values_cached([1, 2], 3)
    assert third is not second

    # Fill beyond capacity with distinct keys: the cache must bound
    # itself and evict.
    for code in range(reduction_cache.maxsize + 8):
        reduce_values_cached([code], 10)
    assert len(reduction_cache) <= reduction_cache.maxsize
    assert reduction_cache.evictions > 0
    clear_reduction_cache()


def test_compile_cache_reuses_kernels():
    clear_compile_cache()
    function = reduce_values([1, 3], 2)
    k1 = compile_function(function)
    k2 = compile_function(
        reduce_values([1, 3], 2)
    )  # equal (frozen) function -> same kernel object
    assert k1 is k2
    clear_compile_cache()


# ----------------------------------------------------------------------
# index integration: lookup vs the evaluate_dnf oracle, invalidation
# ----------------------------------------------------------------------
def _table(values):
    table = Table("T", ["A"])
    for value in values:
        table.append({"A": value})
    return table


ORACLE_MODES = [
    (void_mode, null_mode)
    for void_mode in ("encode", "vector")
    for null_mode in ("encode", "vector")
]
ORACLE_PIN = 190


def _oracle_index(void_mode, null_mode, state):
    """An index over 200 rows (NULLs, deleted rows) in ``state``:
    freshly built, 6 rows in the delta (one of them deleted, one NULL),
    those rows compacted, or read under a pin below the appends."""
    values = [None if i % 11 == 0 else f"v{i % 7}" for i in range(200)]
    table = _table(values)
    for row in (3, 50, 101):
        table.delete(row)
    index = EncodedBitmapIndex(
        table, "A", void_mode=void_mode, null_mode=null_mode
    )
    table.attach(index)
    index.lookup(Equals("A", "v0"))  # build the plane snapshot
    if state != "built":
        for value in ("v3", None, "v5", "v3", "v0", "v6"):
            table.append({"A": value})
        table.delete(203)
        assert index.delta_rows() == 6
    if state == "compacted":
        assert index.compact()
        assert index.delta_rows() == 0
    return table, index


@pytest.mark.parametrize("state", ["built", "delta", "compacted", "pinned"])
@pytest.mark.parametrize("void_mode,null_mode", ORACLE_MODES)
def test_index_lookup_matches_evaluate_dnf_oracle(void_mode, null_mode, state):
    table, index = _oracle_index(void_mode, null_mode, state)
    limit = ORACLE_PIN if state == "pinned" else len(table)
    for predicate in (
        Equals("A", "v3"),
        InList("A", ["v0", "v5"]),
        InList("A", [f"v{i}" for i in range(7)]),
    ):
        function = index.reduced_function(index.predicate_values(predicate))
        counter = AccessCounter()
        expected = evaluate_dnf(
            function, index.vector, len(index.vector(0)), counter
        )
        accessed = counter.distinct_accesses
        if void_mode == "vector":
            expected &= table.existence_vector()
            accessed += 1
        expected.resize(limit)

        if state == "pinned":
            with pinned_rows(table, rows=ORACLE_PIN):
                got = index.lookup(predicate)
        else:
            got = index.lookup(predicate)
        assert got == expected, predicate
        assert index.last_cost.vectors_accessed == accessed, predicate
        assert index.last_touched == tuple(sorted(counter.touched))

    column = table.column("A")
    nulls = [
        row
        for row in range(limit)
        if not table.is_void(row) and column[row] is None
    ]
    with pinned_rows(table, rows=limit):
        assert index.lookup(IsNull("A")).indices().tolist() == nulls


def test_removed_kernel_knobs_raise_type_error():
    from repro.database import Database
    from repro.query.options import QueryOptions

    with pytest.raises(TypeError):
        EncodedBitmapIndex(_table(["a", "b"]), "A", use_kernels=False)
    with pytest.raises(TypeError):
        QueryOptions(use_kernels=False)
    db = Database()
    db.create_table("t", {"A": ["a", "b", "a"]})
    db.create_index("t", "A")
    with pytest.raises(TypeError):
        db.explain("t", Equals("A", "a"), QueryOptions())


def test_index_plane_snapshot_invalidated_on_writes():
    table = _table(["a", "b", "c", "a"])
    index = EncodedBitmapIndex(table, "A")
    table.attach(index)
    predicate = Equals("A", "a")
    assert index.lookup(predicate).indices().tolist() == [0, 3]
    rebuilds = index.plane_rebuilds
    assert index.lookup(predicate).indices().tolist() == [0, 3]
    assert index.plane_rebuilds == rebuilds  # steady state: no rebuild

    # A write must invalidate the snapshot and change the answer.
    table.update(1, "A", "a")
    assert index.lookup(predicate).indices().tolist() == [0, 1, 3]
    assert index.plane_rebuilds == rebuilds + 1

    table.delete(0)
    assert index.lookup(predicate).indices().tolist() == [1, 3]

    row = table.append({"A": "a"})
    assert index.lookup(predicate).indices().tolist() == [1, 3, row]


def test_index_kernel_cache_invalidated_on_remap():
    table = _table(["a", "b", "a"])
    index = EncodedBitmapIndex(table, "A")
    table.attach(index)
    index.lookup(Equals("A", "a"))
    assert index._kernel_cache  # populated by the first lookup
    old_width = index.width

    # Appending an unseen value forces a mapping change (and here a
    # width expansion: domain 2(+void) -> 3 values + void needs k=3).
    table.append({"A": "z"})
    table.append({"A": "y"})
    table.append({"A": "x"})
    assert index.width > old_width
    assert not index._reduction_cache or index.width == old_width
    # Post-remap lookups recompile against the new width and stay
    # correct for both old and new values.
    assert index.lookup(Equals("A", "a")).indices().tolist() == [0, 2]
    assert index.lookup(Equals("A", "z")).indices().tolist() == [3]
    for function in index._kernel_cache:
        assert function.width == index.width


def test_serialized_index_roundtrip_keeps_kernel_path():
    from repro.index.serialization import dumps, loads

    table = _table(["a", "b", "c", "b"])
    index = EncodedBitmapIndex(table, "A")
    restored = loads(dumps(index), table)
    predicate = InList("A", ["a", "b"])
    assert restored.lookup(predicate) == index.lookup(predicate)
    assert (
        restored.last_cost.vectors_accessed
        == index.last_cost.vectors_accessed
    )
