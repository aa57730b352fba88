"""Property-based tests (hypothesis) for core invariants.

These encode the library's load-bearing correctness properties:

* BitVector logical ops agree with Python integer bitwise semantics.
* RLE compression is a lossless round trip and op-compatible.
* Logical reduction preserves Boolean function semantics exactly.
* The reduced DNF evaluated over bitmap vectors equals a row-by-row
  evaluation (index result == scan result).
* Chain/prime-chain checkers agree with their definitions.
* Encoded bitmap index lookups equal a naive table scan.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitvector import BitVector
from repro.bitmap.rle import RunLengthBitmap
from repro.boolean.reduction import reduce_values
from repro.boolean.support import minimal_support
from repro.encoding.chain import find_chain, is_chain
from repro.encoding.distance import binary_distance
from repro.encoding.gray import gray_code, inverse_gray
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import InList
from repro.table.table import Table

bool_lists = st.lists(st.booleans(), min_size=0, max_size=300)


class TestBitVectorProperties:
    @given(bool_lists, st.data())
    def test_ops_match_integer_semantics(self, bits, data):
        other = data.draw(
            st.lists(
                st.booleans(), min_size=len(bits), max_size=len(bits)
            )
        )
        a = BitVector.from_bools(bits)
        b = BitVector.from_bools(other)
        int_a = sum(1 << i for i, bit in enumerate(bits) if bit)
        int_b = sum(1 << i for i, bit in enumerate(other) if bit)
        mask = (1 << len(bits)) - 1 if bits else 0
        assert int(
            sum(1 << i for i, bit in enumerate(a & b) if bit)
        ) == int_a & int_b
        assert int(
            sum(1 << i for i, bit in enumerate(a | b) if bit)
        ) == int_a | int_b
        assert int(
            sum(1 << i for i, bit in enumerate(a ^ b) if bit)
        ) == int_a ^ int_b
        assert int(
            sum(1 << i for i, bit in enumerate(~a) if bit)
        ) == (~int_a) & mask

    @given(bool_lists)
    def test_double_negation(self, bits):
        vec = BitVector.from_bools(bits)
        assert ~~vec == vec

    @given(bool_lists)
    def test_count_matches_sum(self, bits):
        assert BitVector.from_bools(bits).count() == sum(bits)

    @given(bool_lists)
    def test_de_morgan(self, bits):
        vec = BitVector.from_bools(bits)
        ones = BitVector.ones(len(bits))
        assert ~(vec & ones) == (~vec | ~ones)


class TestRleProperties:
    @given(bool_lists)
    def test_roundtrip(self, bits):
        vec = BitVector.from_bools(bits)
        assert RunLengthBitmap.from_bitvector(vec).to_bitvector() == vec

    @given(bool_lists, st.data())
    def test_ops_agree_with_uncompressed(self, bits, data):
        other = data.draw(
            st.lists(
                st.booleans(), min_size=len(bits), max_size=len(bits)
            )
        )
        a_vec = BitVector.from_bools(bits)
        b_vec = BitVector.from_bools(other)
        a = RunLengthBitmap.from_bitvector(a_vec)
        b = RunLengthBitmap.from_bitvector(b_vec)
        assert (a & b).to_bitvector() == (a_vec & b_vec)
        assert (a | b).to_bitvector() == (a_vec | b_vec)
        assert (a ^ b).to_bitvector() == (a_vec ^ b_vec)

    @given(bool_lists)
    def test_runs_are_canonical(self, bits):
        bitmap = RunLengthBitmap.from_bools(bits)
        runs = bitmap.runs
        assert all(length > 0 for _, length in runs)
        assert all(
            runs[i][0] != runs[i + 1][0] for i in range(len(runs) - 1)
        )


@st.composite
def on_dc_sets(draw, width=4):
    universe = list(range(1 << width))
    on = draw(st.lists(st.sampled_from(universe), max_size=12))
    dc = draw(st.lists(st.sampled_from(universe), max_size=6))
    return sorted(set(on)), sorted(set(dc) - set(on)), width


class TestReductionProperties:
    @given(on_dc_sets())
    @settings(max_examples=60, deadline=None)
    def test_reduction_preserves_semantics(self, spec):
        on, dc, width = spec
        reduced = reduce_values(on, width, dont_cares=dc)
        for value in range(1 << width):
            result = reduced.evaluate_value(value)
            if value in on:
                assert result
            elif value not in dc:
                assert not result

    @given(on_dc_sets())
    @settings(max_examples=60, deadline=None)
    def test_reduced_vector_count_lower_bounded_by_support(self, spec):
        """The reduced DNF can never use fewer variables than the
        exact minimal support (it is an upper bound on optimality)."""
        on, dc, width = spec
        if not on:
            return
        reduced = reduce_values(on, width, dont_cares=dc)
        support = minimal_support(on, width, dont_cares=dc)
        assert reduced.vector_count() >= len(support)

    @given(on_dc_sets())
    @settings(max_examples=40, deadline=None)
    def test_greedy_reduction_also_correct(self, spec):
        on, dc, width = spec
        reduced = reduce_values(on, width, dont_cares=dc, exact=False)
        for value in range(1 << width):
            if value in on:
                assert reduced.evaluate_value(value)
            elif value not in dc:
                assert not reduced.evaluate_value(value)


class TestChainProperties:
    @given(st.lists(st.integers(0, 15), min_size=2, max_size=8,
                    unique=True))
    @settings(max_examples=80, deadline=None)
    def test_found_chain_satisfies_definition(self, codes):
        chain = find_chain(codes)
        if chain is not None:
            assert is_chain(chain)
            assert sorted(chain) == sorted(codes)

    @given(st.integers(0, 4095))
    def test_gray_roundtrip(self, index):
        assert inverse_gray(gray_code(index)) == index

    @given(st.integers(0, 2000))
    def test_gray_adjacency(self, index):
        assert binary_distance(
            gray_code(index), gray_code(index + 1)
        ) == 1


class TestEncodedIndexProperties:
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=120),
        st.lists(st.integers(0, 20), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_lookup_equals_scan(self, values, selected):
        table = Table("t", ["A"])
        for value in values:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        predicate = InList("A", selected)
        got = sorted(index.lookup(predicate).indices().tolist())
        want = [
            row_id
            for row_id in range(len(table))
            if predicate.matches(table.row(row_id))
        ]
        assert got == want

    @given(
        st.lists(st.integers(0, 20), min_size=2, max_size=80),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_lookup_correct_after_deletions(self, values, data):
        table = Table("t", ["A"])
        for value in values:
            table.append({"A": value})
        index = EncodedBitmapIndex(table, "A")
        table.attach(index)
        victims = data.draw(
            st.lists(
                st.integers(0, len(values) - 1),
                max_size=5,
                unique=True,
            )
        )
        for victim in victims:
            table.delete(victim)
        predicate = InList("A", list(range(0, 21, 2)))
        got = sorted(index.lookup(predicate).indices().tolist())
        want = [
            row_id
            for row_id in range(len(table))
            if not table.is_void(row_id)
            and predicate.matches(table.row(row_id))
        ]
        assert got == want
