"""Unit tests for repro.boolean.quine_mccluskey."""

import pytest

from repro.boolean.minterm import Implicant
from repro.boolean.petrick import coverage_masks, select_cover
from repro.boolean.quine_mccluskey import minterm_mask, prime_implicants


def _covers_exactly(primes, on_set, width, dont_cares=()):
    """Check the prime set covers the ON set and nothing in OFF."""
    dc = set(dont_cares)
    on = set(on_set)
    for value in range(1 << width):
        covered = any(p.covers(value) for p in primes)
        if value in on:
            assert covered, f"minterm {value} uncovered"
        elif value not in dc and covered:
            # primes may only cover ON or DC values
            raise AssertionError(f"OFF minterm {value} covered")


class TestPrimeImplicants:
    def test_empty_on_set(self):
        assert prime_implicants([], 3) == []

    def test_single_minterm(self):
        primes = prime_implicants([5], 3)
        assert primes == [Implicant.minterm(5, 3)]

    def test_full_cube_collapses_to_true(self):
        primes = prime_implicants(range(8), 3)
        assert len(primes) == 1
        assert primes[0].is_constant_true()

    def test_full_cube_via_dont_cares(self):
        primes = prime_implicants([0, 1], 2, dont_cares=[2, 3])
        assert len(primes) == 1
        assert primes[0].is_constant_true()

    def test_adjacent_pair_merges(self):
        primes = prime_implicants([0, 1], 2)
        assert len(primes) == 1
        assert primes[0].care == 0b10
        assert primes[0].bits == 0b00

    def test_classic_example(self):
        # f(x2,x1,x0) with ON = {0,1,2,5,6,7}: primes are
        # x2'x1', x2'x0', x1x0'? ... verify coverage instead of shape.
        on = [0, 1, 2, 5, 6, 7]
        primes = prime_implicants(on, 3)
        _covers_exactly(primes, on, 3)
        # each prime must be prime: no single-literal drop stays valid
        on_set = set(on)
        for prime in primes:
            for var in prime.variables():
                widened_care = prime.care & ~(1 << var)
                widened = Implicant(
                    bits=prime.bits & widened_care,
                    care=widened_care,
                    width=3,
                )
                assert not all(
                    value in on_set for value in widened.minterms()
                )

    def test_dont_cares_extend_merging(self):
        # ON = {1}, DC = {0}: merged into x1' cube (k=2)
        primes = prime_implicants([1], 2, dont_cares=[0])
        assert any(p.care == 0b10 and p.bits == 0 for p in primes)

    def test_value_exceeds_width(self):
        with pytest.raises(ValueError):
            prime_implicants([8], 3)

    def test_deterministic_order(self):
        a = prime_implicants([0, 1, 2, 5, 6, 7], 3)
        b = prime_implicants([0, 1, 2, 5, 6, 7], 3)
        assert a == b

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_interval_coverage(self, width):
        """[0, d) intervals are always covered correctly."""
        for d in range(1, (1 << width) + 1):
            on = list(range(d))
            primes = prime_implicants(on, width)
            _covers_exactly(primes, on, width)


class TestCoverageTable:
    """The covering table, one truth-table mask of ON minterms per prime."""

    def test_maps_each_minterm(self):
        on = [0, 1, 5]
        primes = prime_implicants(on, 3)
        covers = coverage_masks(primes, minterm_mask(on, 3))
        for value in on:
            covering = [i for i, cover in enumerate(covers) if cover >> value & 1]
            assert covering
            for i in covering:
                assert primes[i].covers(value)
        for prime, cover in zip(primes, covers):
            assert cover == minterm_mask([v for v in on if prime.covers(v)], 3)

    def test_uncovered_minterm_raises(self):
        primes = prime_implicants([0], 3)
        with pytest.raises(ValueError):
            select_cover(primes, [7])
