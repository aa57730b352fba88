"""Unit tests for repro.boolean.petrick."""

import pytest

from repro.boolean.petrick import _absorb, _greedy, minimal_cover
from repro.boolean.quine_mccluskey import prime_implicants


def _is_cover(cover, on_set):
    return all(any(p.covers(v) for p in cover) for v in on_set)


class TestMinimalCover:
    def test_empty_on_set(self):
        assert minimal_cover([], []) == []

    def test_no_primes_for_nonempty_raises(self):
        with pytest.raises(ValueError):
            minimal_cover([], [1])

    def test_essential_primes_selected(self):
        on = [0, 1, 2, 5, 6, 7]
        primes = prime_implicants(on, 3)
        cover = minimal_cover(primes, on)
        assert _is_cover(cover, on)

    def test_cover_is_minimal_for_interval(self):
        # [0, 6) over 3 vars: minimal DNF has 2 terms
        on = list(range(6))
        primes = prime_implicants(on, 3)
        cover = minimal_cover(primes, on)
        assert _is_cover(cover, on)
        assert len(cover) == 2

    def test_cyclic_core(self):
        # Classic cyclic cover: ON = {0,1,2,5,6,7} needs 3 of 6 primes.
        on = [0, 1, 2, 5, 6, 7]
        primes = prime_implicants(on, 3)
        cover = minimal_cover(primes, on)
        assert _is_cover(cover, on)
        assert len(cover) == 3

    def test_exact_vs_greedy_both_cover(self):
        on = [0, 2, 3, 4, 5, 7, 8, 9, 13, 15]
        primes = prime_implicants(on, 4)
        exact = minimal_cover(primes, on, exact=True)
        greedy = minimal_cover(primes, on, exact=False)
        assert _is_cover(exact, on)
        assert _is_cover(greedy, on)
        assert len(exact) <= len(greedy)

    def test_duplicate_minterms_handled(self):
        on = [1, 1, 3, 3]
        primes = prime_implicants(on, 2)
        cover = minimal_cover(primes, on)
        assert _is_cover(cover, {1, 3})

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_random_functions_covered(self, width):
        import random

        rng = random.Random(99)
        for _ in range(20):
            size = rng.randint(1, 1 << width)
            on = rng.sample(range(1 << width), size)
            primes = prime_implicants(on, width)
            cover = minimal_cover(primes, on)
            assert _is_cover(cover, on)
            # cover must not hit OFF minterms
            off = set(range(1 << width)) - set(on)
            for value in off:
                assert not any(p.covers(value) for p in cover)


class TestHelpers:
    def test_absorb_drops_supersets(self):
        products = {
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }
        kept = _absorb(products)
        assert frozenset({1}) in kept
        assert frozenset({1, 2}) not in kept
        assert frozenset({2, 3}) in kept

    def test_greedy_covers(self):
        on = [0, 1, 2, 3]
        primes = prime_implicants(on, 2)
        chosen = _greedy(primes, set(on))
        cover = [primes[i] for i in chosen]
        assert _is_cover(cover, on)
