"""Minimal-cover selection over prime implicants.

After the prime implicants are generated, a minimum subset covering
every ON minterm must be selected.  Small instances are solved exactly
with Petrick's method (product-of-sums expansion with absorption);
larger instances fall back to essential-prime extraction followed by a
greedy set cover, which is the standard engineering compromise the
paper alludes to when it says heuristics are needed.

Everything works on ints: each prime's coverage is a mask over the
``2^k`` truth table (restricted to the ON minterms), and each Petrick
product is a mask over prime indexes.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.boolean.minterm import Implicant
from repro.boolean.quine_mccluskey import minterm_mask, set_bits, subcube_mask
from repro.errors import InvalidArgumentError

#: Petrick expansion is only attempted when the reduced covering
#: problem is small: at most this many still-uncovered minterms ...
_EXACT_LIMIT_MINTERMS = 24
#: ... and at most this many candidate primes involved.
_EXACT_LIMIT_PRIMES = 28
#: Hard cap on the number of partial products kept during expansion;
#: past it the smallest quarter is kept, which fixes the cover chosen,
#: so changing it changes covers and ``c_e``.
_EXACT_LIMIT_PRODUCTS = 1500

#: How a cover was chosen (:attr:`ReducedFunction.cover`): ``EXACT``
#: is a proven minimum (essential primes, then a complete Petrick
#: expansion); the others are not proven minimal.
COVER_EXACT = "exact"
COVER_GREEDY = "greedy"
COVER_CAPPED = "Petrick past its product cap"


def minimal_cover(
    primes: Sequence[Implicant],
    on_set: Sequence[int],
    exact: bool = True,
) -> List[Implicant]:
    """Select a minimal set of primes covering every ON minterm.

    Parameters
    ----------
    primes:
        Candidate prime implicants (from :func:`prime_implicants`).
    on_set:
        Minterms that must be covered (don't-cares excluded).
    exact:
        When True, use Petrick's method if the instance is small
        enough; otherwise (or when too large) use greedy cover after
        extracting essential primes.

    Returns
    -------
    list of :class:`Implicant`
        The chosen cover, sorted by fewest literals first.
    """
    return select_cover(primes, on_set, exact)[0]


def select_cover(
    primes: Sequence[Implicant],
    on_set: Sequence[int],
    exact: bool = True,
) -> Tuple[List[Implicant], str]:
    """:func:`minimal_cover` plus how the cover was chosen: one of
    :data:`COVER_EXACT`, :data:`COVER_GREEDY` or :data:`COVER_CAPPED`.

    The greedy fallback runs when ``exact`` is False, when more than
    ``_EXACT_LIMIT_MINTERMS`` minterms or ``_EXACT_LIMIT_PRIMES``
    primes are left after the essential primes, and Petrick is capped
    when its partial products pass ``_EXACT_LIMIT_PRODUCTS``.
    """
    if len(on_set) == 0:
        return [], COVER_EXACT
    if not primes:
        raise InvalidArgumentError("no prime implicants supplied for a non-empty ON set")
    on = minterm_mask(on_set, primes[0].width)

    covers = coverage_masks(primes, on)
    seen = shared = 0
    for cover in covers:
        shared |= seen & cover
        seen |= cover
    if on & ~seen:
        missing = next(set_bits(on & ~seen))
        raise InvalidArgumentError(
            f"minterm {missing} not covered by any prime implicant"
        )

    # Essential primes: the only cover of some ON minterm.
    unique = on & ~shared
    chosen: Set[int] = {i for i, cover in enumerate(covers) if cover & unique}
    uncovered = on
    for i in chosen:
        uncovered &= ~covers[i]

    how = COVER_EXACT
    if uncovered:
        involved = [i for i, cover in enumerate(covers) if cover & uncovered]
        small_enough = (
            uncovered.bit_count() <= _EXACT_LIMIT_MINTERMS
            and len(involved) <= _EXACT_LIMIT_PRIMES
        )
        if exact and small_enough:
            extra, capped = _petrick(covers, involved, uncovered)
            if capped:
                how = COVER_CAPPED
        else:
            literals = [p.literal_count() for p in primes]
            extra = _greedy(covers, literals, uncovered)
            how = COVER_GREEDY
        chosen.update(extra)

    cover = [primes[i] for i in chosen]
    cover.sort(key=lambda imp: (imp.literal_count(), imp.care, imp.bits))
    return cover, how


def coverage_masks(primes: Sequence[Implicant], on: int) -> List[int]:
    """Per prime, the ON minterms it covers as a truth-table mask."""
    return [
        (subcube_mask(~p.care & ((1 << p.width) - 1)) << p.bits) & on
        for p in primes
    ]


def _product_order(product: int) -> Tuple[int, List[int]]:
    """Petrick's tie-break: fewest primes, then the lowest indexes."""
    return product.bit_count(), list(set_bits(product))


def _petrick(
    covers: Sequence[int], involved: Sequence[int], uncovered: int
) -> Tuple[List[int], bool]:
    """Petrick's method: expand the POS cover expression to SOP.

    Each partial product is a mask over the ``involved`` primes (bit
    ``j`` stands for prime ``involved[j]``, an order-preserving map, so
    the tie-break picks the same primes); absorption keeps only minimal
    products, and the smallest final product wins.  Returns the chosen
    prime indexes and whether the product cap cut the expansion short.
    """
    products: Set[int] = {0}
    capped = False
    for value in set_bits(uncovered):
        products = _expand(
            products,
            [1 << j for j, i in enumerate(involved) if covers[i] >> value & 1],
        )
        if len(products) > _EXACT_LIMIT_PRODUCTS:
            # Blow-up guard: abandon exactness, keep the smallest seeds.
            products = set(
                sorted(products, key=_product_order)[: _EXACT_LIMIT_PRODUCTS // 4]
            )
            capped = True
    best = min(products, key=_product_order)
    return [involved[j] for j in set_bits(best)], capped


def _expand(products: Set[int], alternatives: List[int]) -> Set[int]:
    """Multiply the products by the sum of ``alternatives`` (one-bit
    masks) and absorb: the minimal sets of the expansion.

    ``products`` holds no set inside another.  A product that already
    holds an alternative stays as it is, and absorbs everything it
    would grow into; the others grow by one alternative ``a`` each.
    Two grown products are never inside one another, so a grown
    ``p | a`` is absorbed only by a kept product holding ``a`` whose
    other primes all lie in ``p``.
    """
    either = sum(alternatives)
    kept = {product for product in products if product & either}
    expanded = set(kept)
    growing = [product for product in products if not product & either]
    for prime in alternatives:
        rests = [product ^ prime for product in kept if product & prime]
        expanded.update(
            product | prime
            for product in growing
            if not any(rest & product == rest for rest in rests)
        )
    return expanded


def _greedy(
    covers: Sequence[int], literals: Sequence[int], uncovered: int
) -> List[int]:
    """Greedy set cover: repeatedly take the prime covering the most
    still-uncovered minterms (ties: fewer literals, then stable order)."""
    candidates = [i for i, cover in enumerate(covers) if cover & uncovered]
    chosen: List[int] = []
    while uncovered:
        best_key = max(
            ((covers[i] & uncovered).bit_count(), -literals[i], -i)
            for i in candidates
        )
        best = -best_key[2]
        chosen.append(best)
        uncovered &= ~covers[best]
        candidates = [i for i in candidates if covers[i] & uncovered]
    return chosen
