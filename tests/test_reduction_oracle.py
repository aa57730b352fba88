"""Differential tests for logical reduction.

The truth-table prime generator (:func:`prime_implicants`) and the
bitmask cover (:func:`select_cover`) are checked against the
Quine–McCluskey tabulation and the set-based Petrick / greedy cover
they replaced, kept here as the oracle.  The oracle returns every
prime, don't-care-only ones included, so the cover comparison also
checks that dropping those primes never changes a cover.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.boolean.petrick as petrick
from repro.boolean.minterm import Implicant
from repro.boolean.quine_mccluskey import prime_implicants
from repro.boolean.reduction import reduce_values


# ----------------------------------------------------------------------
# the oracle: Quine–McCluskey tabulation and set-based Petrick / greedy
# ----------------------------------------------------------------------
def _tabulated_primes(on_set, width, dont_cares=()) -> List[Implicant]:
    """All prime implicants of ``on | dc`` by pairwise cube merging."""
    on = set(on_set)
    dc = set(dont_cares) - on
    full = (1 << width) - 1
    if not on:
        return []
    if len(on) + len(dc) == (1 << width):
        return [Implicant(bits=0, care=0, width=width)]
    current: Set[Tuple[int, int]] = {(value, full) for value in on | dc}
    primes: Set[Tuple[int, int]] = set()
    while current:
        merged_from: Set[Tuple[int, int]] = set()
        next_level: Set[Tuple[int, int]] = set()
        groups: Dict[Tuple[int, int], List[int]] = {}
        for bits, care in current:
            groups.setdefault((care, bits.bit_count()), []).append(bits)
        for (care, ones), members in groups.items():
            partner_set = set(groups.get((care, ones + 1), []))
            for bits in members:
                probe = care & ~bits
                while probe:
                    low = probe & -probe
                    probe ^= low
                    if bits | low in partner_set:
                        new_care = care & ~low
                        next_level.add((bits & new_care, new_care))
                        merged_from.add((bits, care))
                        merged_from.add((bits | low, care))
        primes |= current - merged_from
        current = next_level
    result = [Implicant(bits=b, care=c, width=width) for b, c in primes]
    result.sort(key=lambda imp: (imp.literal_count(), imp.care, imp.bits))
    return result


def _reference_cover(primes, on_set, exact=True) -> Tuple[List[Implicant], str]:
    """Essential primes, then Petrick over frozensets or greedy."""
    on = list(dict.fromkeys(on_set))
    table = {
        value: frozenset(i for i, p in enumerate(primes) if p.covers(value))
        for value in on
    }
    chosen = {next(iter(c)) for c in table.values() if len(c) == 1}
    uncovered = {
        v for v in on if not any(primes[i].covers(v) for i in chosen)
    }
    how = petrick.COVER_EXACT
    if uncovered:
        involved = set().union(*(table[v] for v in uncovered))
        if (
            exact
            and len(uncovered) <= 24
            and len(involved) <= 28
        ):
            extra, capped = _reference_petrick(table, uncovered)
            if capped:
                how = petrick.COVER_CAPPED
        else:
            extra = _reference_greedy(primes, uncovered)
            how = petrick.COVER_GREEDY
        chosen |= extra
    cover = [primes[i] for i in sorted(chosen)]
    cover.sort(key=lambda imp: (imp.literal_count(), imp.care, imp.bits))
    return cover, how


def _reference_petrick(table, uncovered) -> Tuple[Set[int], bool]:
    def order(product):
        return len(product), sorted(product)

    products: Set[FrozenSet[int]] = {frozenset()}
    capped = False
    for value in sorted(uncovered):
        expanded = {
            product | {prime}
            for product in products
            for prime in table[value]
        }
        kept: List[FrozenSet[int]] = []
        for product in sorted(expanded, key=len):
            if not any(other <= product for other in kept):
                kept.append(product)
        products = set(kept)
        if len(products) > 1500:
            products = set(sorted(products, key=order)[:375])
            capped = True
    return set(min(products, key=order)), capped


def _reference_greedy(primes, uncovered) -> Set[int]:
    remaining = set(uncovered)
    chosen: Set[int] = set()
    while remaining:
        best_index, best_key = -1, (0, 0, 0)
        for i, prime in enumerate(primes):
            gain = sum(1 for value in remaining if prime.covers(value))
            if i in chosen or gain == 0:
                continue
            key = (gain, -prime.literal_count(), -i)
            if best_index < 0 or key > best_key:
                best_index, best_key = i, key
        chosen.add(best_index)
        remaining = {v for v in remaining if not primes[best_index].covers(v)}
    return chosen


# ----------------------------------------------------------------------
# differential properties, widths 1-10 with random don't-cares
# ----------------------------------------------------------------------
@st.composite
def functions(draw):
    """Sparse functions up to 40 + 40 codes at widths 1-10, or dense
    ones (each code ON or don't-care with a drawn probability) at
    widths 1-7, where Petrick and the greedy fallback do real work."""
    width = draw(st.integers(1, 10))
    if width <= 7 and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        on_p = draw(st.floats(0.0, 1.0))
        dc_p = draw(st.floats(0.0, 0.5))
        draws = [rng.random() for _ in range(1 << width)]
        on = [v for v, x in enumerate(draws) if x < on_p]
        dont_cares = [v for v, x in enumerate(draws) if on_p <= x < on_p + dc_p]
        return width, on, dont_cares
    values = st.integers(0, (1 << width) - 1)
    cap = min(1 << width, 40)
    on = draw(st.lists(values, max_size=cap, unique=True))
    dont_cares = draw(st.lists(values, max_size=cap, unique=True))
    return width, on, dont_cares


def _on_covering(primes, on):
    return [p for p in primes if any(p.covers(v) for v in on)]


@given(functions())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_primes_equal_tabulation_filtered_to_on(case):
    width, on, dont_cares = case
    expected = _on_covering(_tabulated_primes(on, width, dont_cares), on)
    assert prime_implicants(on, width, dont_cares) == expected


@given(functions(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reduction_equals_reference_cover(case, exact):
    width, on, dont_cares = case
    function = reduce_values(on, width, dont_cares, exact=exact)
    if not on:
        assert function.terms == ()
        return
    primes = _tabulated_primes(on, width, dont_cares)
    cover, how = _reference_cover(primes, sorted(set(on)), exact)
    assert function.terms == tuple(cover)
    assert function.cover == how


def _seeded_case(seed, width, on_count, dc_count):
    rng = random.Random(seed)
    codes = rng.sample(range(1 << width), on_count + dc_count)
    return codes[:on_count], codes[on_count:]


@pytest.mark.parametrize(
    "seed,width,on_count,dc_count",
    [(1, 11, 48, 64), (2, 11, 96, 16), (3, 12, 64, 128), (4, 12, 128, 32)],
)
def test_wide_reductions_equal_reference(seed, width, on_count, dc_count):
    on, dont_cares = _seeded_case(seed, width, on_count, dc_count)
    primes = _tabulated_primes(on, width, dont_cares)
    assert prime_implicants(on, width, dont_cares) == _on_covering(primes, on)
    for exact in (True, False):
        cover, how = _reference_cover(primes, sorted(on), exact)
        function = reduce_values(on, width, dont_cares, exact=exact)
        assert function.terms == tuple(cover)
        assert function.cover == how


# ----------------------------------------------------------------------
# non-minimal covers are recorded, never silent
# ----------------------------------------------------------------------
#: Six-variable functions, one per fallback, with the limit each trips.
FALLBACKS = {
    "minterms": (
        "_EXACT_LIMIT_MINTERMS",  # 25 minterms left after essentials
        petrick.COVER_GREEDY,
        [0, 1, 2, 3, 5, 8, 9, 10, 12, 13, 14, 20, 21, 24, 26, 27, 31,
         33, 35, 36, 37, 38, 43, 46, 47, 48, 50, 52, 56],
    ),
    "primes": (
        "_EXACT_LIMIT_PRIMES",  # 30 primes involved, 23 minterms left
        petrick.COVER_GREEDY,
        [1, 2, 3, 5, 6, 8, 9, 10, 15, 16, 17, 20, 25, 27, 30, 31, 38,
         40, 44, 45, 47, 48, 52, 54, 56, 57, 58, 61, 62],
    ),
    "products": (
        "_EXACT_LIMIT_PRODUCTS",
        petrick.COVER_CAPPED,
        [0, 6, 8, 10, 13, 16, 17, 18, 20, 23, 26, 29, 30, 32, 34, 38,
         39, 43, 46, 49, 50, 52, 53, 55, 61, 62],
    ),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_each_fallback_is_recorded(name, monkeypatch):
    limit, how, on = FALLBACKS[name]
    function = reduce_values(on, 6)
    assert function.cover == how
    assert _reference_cover(_tabulated_primes(on, 6), on) == (
        list(function.terms),
        how,
    )
    # Lifting that one limit takes this fallback away.
    monkeypatch.setattr(petrick, limit, 10**6)
    assert reduce_values(on, 6).cover != how


def test_cover_status_is_not_part_of_the_key():
    on = FALLBACKS["minterms"][2]
    greedy = reduce_values(on, 6)
    relabelled = type(greedy)(terms=greedy.terms, width=6)
    assert relabelled.cover == petrick.COVER_EXACT
    assert greedy == relabelled
    assert hash(greedy) == hash(relabelled)


def test_explain_names_a_greedy_cover():
    from repro.encoding.mapping import MappingTable
    from repro.index.encoded_bitmap import EncodedBitmapIndex
    from repro.query.planner import Planner
    from repro.query.predicates import InList
    from repro.table.catalog import Catalog
    from repro.table.table import Table

    # Code == value over all 64 codes of k = 6: no don't-cares.
    table = Table("T", ["A"])
    for value in range(64):
        table.append({"A": value})
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_index(
        EncodedBitmapIndex(
            table,
            "A",
            encoding=MappingTable.from_pairs([(v, v) for v in range(64)]),
            void_mode="vector",
            null_mode="vector",
        )
    )
    planner = Planner(catalog)
    greedy = planner.plan(table, InList("A", FALLBACKS["minterms"][2]))
    assert "cover: greedy (not proven minimal)" in greedy.explain()
    exact = planner.plan(table, InList("A", [1, 2]))
    assert "cover:" not in exact.explain()
