"""Prime implicant generation over the ``2^k`` truth table.

The paper's Section 3.2 ("Logical Reduction") notes that brute-force
reduction is exponential but feasible because retrieval functions are
reduced once per (pre-defined) predicate.  Don't-cares arise from
unused codes (``2^k - m`` spare codes) and from the void-tuple
optimisation of Theorem 2.1.

The primes are the ones Quine–McCluskey's tabulation finds, but they
are read off a lattice of bitsets instead of merging cube pairs.  For
a set ``S`` of free variables, one Python int of ``2^k`` bits marks,
at each ``S``-cube's lowest minterm, whether the cube lies inside
``on | dc`` (``A_S``) and whether it holds an ON minterm (``C_S``).
Freeing one more variable ``i`` is a shift and an AND:
``A_{S+i} = A_S & (A_S >> 2^i)`` on the positions whose bit ``i`` is
0 (``C`` takes an OR).  A free set is kept only while ``A_S & C_S`` is
non-zero; that family is closed downwards, so the lattice is pruned
level by level, and the don't-care-only cubes that dominate the
tabulation's cost are never built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.boolean.minterm import Implicant
from repro.errors import InvalidArgumentError


def minterm_mask(values: Iterable[int], width: int) -> int:
    """The values as one int with bit ``v`` set per value ``v``."""
    full = (1 << width) - 1
    mask = 0
    for value in values:
        if value & ~full:
            raise InvalidArgumentError(f"minterm {value} exceeds width {width}")
        mask |= 1 << value
    return mask


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _low_halves(width: int) -> Tuple[int, ...]:
    """Per variable ``i``: the truth-table positions whose bit ``i`` is 0."""
    table = (1 << (1 << width)) - 1
    return tuple(
        table // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1)
        for i in range(width)
    )


@lru_cache(maxsize=4096)
def subcube_mask(free: int) -> int:
    """Truth-table mask of the cube at minterm 0 with ``free`` variables
    free; shifted left by a cube's ``bits`` it marks that cube."""
    mask = 1
    for i in set_bits(free):
        mask |= mask << (1 << i)
    return mask


def prime_implicants(
    on_set: Iterable[int],
    width: int,
    dont_cares: Iterable[int] = (),
) -> List[Implicant]:
    """Compute the prime implicants that cover an ON minterm.

    Parameters
    ----------
    on_set:
        Minterm values where the function is 1.
    width:
        Number of variables ``k``.
    dont_cares:
        Minterm values whose output is unconstrained.  They participate
        in merging but never need to be covered.

    Returns
    -------
    list of :class:`Implicant`
        Every maximal cube inside ``on | dont_cares`` that holds at
        least one ON minterm, ordered by ``(literal_count, care,
        bits)``.  A prime made of don't-cares alone can never enter a
        minimal cover, so it is not returned; the covers
        :func:`~repro.boolean.petrick.minimal_cover` selects are the
        same as over the full prime set.
    """
    on = minterm_mask(on_set, width)
    if not on:
        return []
    full = (1 << width) - 1
    halves = _low_halves(width)
    found: List[Tuple[int, int, int]] = []
    level: Dict[int, Tuple[int, int]] = {
        0: (on | minterm_mask(dont_cares, width), on)
    }
    while level:
        # Each free set of the next level is grown once, from the set
        # without its highest variable.
        wider: Dict[int, Tuple[int, int]] = {}
        for free, (inside, touched) in level.items():
            for i in range(free.bit_length(), width):
                shift = 1 << i
                grown = inside & (inside >> shift) & halves[i]
                reached = (touched | (touched >> shift)) & halves[i]
                if grown & reached:
                    wider[free | shift] = (grown, reached)
        for free, (inside, touched) in level.items():
            prime = inside & touched
            for i in range(width):
                shift = 1 << i
                bigger = wider.get(free | shift) if not free & shift else None
                if bigger is not None:
                    prime &= ~(bigger[0] | (bigger[0] << shift))
            care = full & ~free
            literals = care.bit_count()
            found.extend((literals, care, bits) for bits in set_bits(prime))
        level = wider
    found.sort()
    return [
        Implicant(bits=bits, care=care, width=width)
        for _, care, bits in found
    ]

