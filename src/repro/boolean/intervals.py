"""Fast retrieval functions for code intervals.

For total-order preserving encodings, a range selection maps to a
*code interval* ``[lo, hi]``.  The classic binary interval
decomposition produces a near-minimal cover in O(k) time, without
the prime generation and cover search of
:func:`~repro.boolean.reduction.reduce_values`: the interval splits into at most ``2k`` aligned
subcubes (the nodes of a segment tree over the code space).

``reduce_interval`` returns the same :class:`ReducedFunction` type as
:func:`~repro.boolean.reduction.reduce_values`, so index code can use
either interchangeably.
"""

from __future__ import annotations

from typing import List

from repro.boolean.minterm import Implicant
from repro.boolean.reduction import ReducedFunction
from repro.errors import InvalidArgumentError


def interval_cubes(lo: int, hi: int, width: int) -> List[Implicant]:
    """Aligned subcubes exactly covering the integer interval [lo, hi].

    Standard binary decomposition: greedily peel the largest aligned
    power-of-two block from the low end, then from the high end,
    meeting in the middle.  At most ``2 * width`` cubes result.
    """
    full = (1 << width) - 1
    if lo < 0 or hi > full:
        raise InvalidArgumentError(
            f"interval [{lo}, {hi}] exceeds width {width}"
        )
    cubes: List[Implicant] = []
    if lo > hi:
        return cubes

    low, high = lo, hi
    low_cubes: List[Implicant] = []
    high_cubes: List[Implicant] = []
    while low <= high:
        # largest aligned block starting at `low`
        low_block = low & -low if low else 1 << width
        while low + low_block - 1 > high:
            low_block >>= 1
        # largest aligned block ending at `high`
        high_block = (high + 1) & -(high + 1) if high + 1 <= full else 1 << width
        while high + 1 - high_block < low:
            high_block >>= 1

        if low_block >= high_block:
            low_cubes.append(_aligned_cube(low, low_block, width))
            low += low_block
        else:
            high_cubes.append(
                _aligned_cube(high + 1 - high_block, high_block, width)
            )
            high -= high_block
    cubes = low_cubes + high_cubes[::-1]
    return cubes


def _aligned_cube(start: int, size: int, width: int) -> Implicant:
    """The subcube covering [start, start + size) (size a power of 2,
    start aligned to size)."""
    free = size - 1
    care = ((1 << width) - 1) & ~free
    return Implicant(bits=start & care, care=care, width=width)


def reduce_interval(lo: int, hi: int, width: int) -> ReducedFunction:
    """Minimal-cover style DNF for ``lo <= code <= hi`` in O(width).

    The result selects exactly the codes in the interval (no
    don't-care use), matching
    ``reduce_values(range(lo, hi + 1), width)`` semantically while
    avoiding prime generation entirely; its ``cover`` is
    ``"interval"``, since it is not proven minimal.
    """
    return ReducedFunction(
        terms=tuple(interval_cubes(lo, hi, width)),
        width=width,
        cover="interval",
    )
