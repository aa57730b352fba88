"""Extended property-based tests: index/aggregate/encoding invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.sums import sum_bitsliced, sum_encoded
from repro.boolean.quine_mccluskey import prime_implicants
from repro.boolean.petrick import minimal_cover
from repro.encoding.heuristics import encode_for_predicates
from repro.encoding.mapping import VOID
from repro.index.bitsliced import BitSlicedIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.query.predicates import Range
from repro.table.table import Table


def _build_table(values):
    table = Table("t", ["v"])
    for value in values:
        table.append({"v": value})
    return table


class TestBitSlicedProperties:
    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=150),
        st.integers(0, 60),
        st.integers(0, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_lookup_equals_scan(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        table = _build_table(values)
        index = BitSlicedIndex(table, "v")
        predicate = Range("v", lo, hi)
        got = sorted(index.lookup(predicate).indices().tolist())
        want = [
            row_id
            for row_id, value in enumerate(values)
            if lo <= value <= hi
        ]
        assert got == want

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_sum_equals_python_sum(self, values):
        table = _build_table(values)
        sliced = BitSlicedIndex(table, "v")
        encoded = EncodedBitmapIndex(table, "v")
        assert sum_bitsliced(sliced) == sum(values)
        assert sum_encoded(encoded) == sum(values)


class TestCoverMinimality:
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=8,
                    unique=True))
    @settings(max_examples=60, deadline=None)
    def test_cover_is_globally_minimal_width3(self, on):
        """At width 3 we can brute-force the true minimum cover size
        and confirm QM + Petrick matches it."""
        from itertools import combinations

        primes = prime_implicants(on, 3)
        cover = minimal_cover(primes, on)

        def is_cover(subset):
            return all(
                any(primes[i].covers(v) for i in subset) for v in on
            )

        best = None
        for size in range(1, len(primes) + 1):
            if any(
                is_cover(subset)
                for subset in combinations(range(len(primes)), size)
            ):
                best = size
                break
        assert len(cover) == best


class TestEncodingSearchProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_encoding_is_bijective(self, data):
        size = data.draw(st.integers(2, 12))
        domain = [f"v{i}" for i in range(size)]
        n_predicates = data.draw(st.integers(0, 3))
        predicates = []
        for _ in range(n_predicates):
            subset = data.draw(
                st.lists(
                    st.sampled_from(domain),
                    min_size=2,
                    max_size=size,
                    unique=True,
                )
            )
            predicates.append(subset)
        mapping = encode_for_predicates(
            domain, predicates, local_search_steps=20, seed=0
        )
        codes = [mapping.encode(v) for v in domain]
        assert len(set(codes)) == size
        assert mapping.encode(VOID) == 0
        assert 0 not in codes


class TestIndexAgreementProperty:
    @given(
        st.lists(st.integers(0, 25), min_size=1, max_size=120),
        st.integers(0, 25),
        st.integers(0, 25),
    )
    @settings(max_examples=30, deadline=None)
    def test_simple_and_encoded_always_agree(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        table = _build_table(values)
        simple = SimpleBitmapIndex(table, "v")
        encoded = EncodedBitmapIndex(table, "v")
        predicate = Range("v", lo, hi)
        assert simple.lookup(predicate) == encoded.lookup(predicate)
