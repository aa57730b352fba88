"""Logical reduction of retrieval Boolean functions.

``reduce_values`` is the front door used by the encoded bitmap index:
given the set of codes selected by a predicate it produces a minimal
DNF over the bitmap-vector variables, and :func:`distinct_variables`
counts how many bitmap vectors the reduced expression actually touches
— exactly the quantity ``c_e`` the paper measures in Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Set, Tuple

import numpy as np

from repro.boolean.minterm import Implicant
from repro.boolean.petrick import COVER_EXACT, select_cover
from repro.boolean.quine_mccluskey import prime_implicants
from repro.cache import LRUCache

#: Entries kept in the process-wide reduction cache.  Each entry is a
#: small tuple of implicants; 512 covers every distinct predicate shape
#: of the bench workloads several times over.
REDUCTION_CACHE_SIZE = 512

#: Cache key: (sorted codes, width, sorted don't-cares, exact flag) —
#: everything :func:`reduce_values` depends on.
ReductionKey = Tuple[Tuple[int, ...], int, Tuple[int, ...], bool]


@dataclass(frozen=True, slots=True)
class ReducedFunction:
    """A logically reduced retrieval function.

    Attributes
    ----------
    terms:
        The minimal DNF as a tuple of implicants.  An empty tuple means
        the constant-false function; a single constant-true implicant
        means every tuple qualifies.
    width:
        Number of bitmap-vector variables ``k``.
    cover:
        How the terms were chosen: ``"exact"`` for a proven minimum,
        else the fallback that chose them (see
        :func:`~repro.boolean.petrick.select_cover`; the interval fast
        path says ``"interval"``).  Not part of equality or the hash,
        so cache and kernel keys depend on the terms alone.
    """

    terms: Tuple[Implicant, ...]
    width: int
    cover: str = field(default=COVER_EXACT, compare=False)

    @property
    def is_false(self) -> bool:
        return not self.terms

    @property
    def is_true(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].is_constant_true()

    def variables(self) -> Tuple[int, ...]:
        """Distinct bitmap-vector indexes read by the expression."""
        used: Set[int] = set()
        for term in self.terms:
            used.update(term.variables())
        return tuple(sorted(used))

    def vector_count(self) -> int:
        """The paper's cost measure: distinct vectors accessed (c_e)."""
        return len(self.variables())

    def evaluate_value(self, value: int) -> bool:
        """Evaluate on a single code (truth-table check)."""
        return any(term.covers(value) for term in self.terms)

    def evaluate_codes(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`evaluate_value` over an array of codes at once.

        One mask pass per term, ``(codes & care) == bits``, ORed into
        a boolean array; the codes' dtype must hold ``2^width - 1``.
        """
        hit = np.zeros(codes.shape, dtype=bool)
        for term in self.terms:
            hit |= (codes & term.care) == term.bits
        return hit

    def to_string(self, prefix: str = "B") -> str:
        """Render the DNF the way the paper prints it.

        Example: ``B2'B1 + B2B1'``.
        """
        if self.is_false:
            return "0"
        return " + ".join(term.to_string(prefix) for term in self.terms)

    def __str__(self) -> str:
        return self.to_string()


def reduce_values(
    codes: Iterable[int],
    width: int,
    dont_cares: Iterable[int] = (),
    exact: bool = True,
) -> ReducedFunction:
    """Reduce ``OR`` of the minterms of ``codes`` to a minimal DNF.

    Parameters
    ----------
    codes:
        Codes (attribute-value encodings) selected by the predicate.
    width:
        Number of bitmap vectors ``k``.
    dont_cares:
        Codes whose truth value is unconstrained — unused codes of the
        mapping, and (under Theorem 2.1) the void code when it cannot be
        selected anyway.
    exact:
        Passed through to :func:`~repro.boolean.petrick.select_cover`.
    """
    on = sorted(set(codes))
    if not on:
        return ReducedFunction(terms=(), width=width)
    primes = prime_implicants(on, width, dont_cares)
    cover, how = select_cover(primes, on, exact=exact)
    return ReducedFunction(terms=tuple(cover), width=width, cover=how)


#: Process-wide reduction cache.  Prime generation and cover are a pure
#: function of the key, so entries never go stale — mapping changes on
#: an index change the codes/don't-cares and therefore the key.  Shared
#: across indexes and partitions: 16 partitions built over one shared
#: mapping reduce a repeated predicate once, not 16 times.
reduction_cache: LRUCache[ReductionKey, ReducedFunction] = LRUCache(
    REDUCTION_CACHE_SIZE, metrics_prefix="boolean.reduction_cache"
)


def reduction_key(
    codes: Iterable[int],
    width: int,
    dont_cares: Iterable[int] = (),
    exact: bool = True,
) -> ReductionKey:
    """Canonical cache key for a reduction request."""
    return (
        tuple(sorted(set(codes))),
        width,
        tuple(sorted(set(dont_cares))),
        exact,
    )


def reduce_values_cached(
    codes: Iterable[int],
    width: int,
    dont_cares: Iterable[int] = (),
    exact: bool = True,
) -> ReducedFunction:
    """:func:`reduce_values` through the process-wide LRU cache.

    Hit/miss/eviction counts are published to the calling thread's
    metrics registry under ``boolean.reduction_cache.*``.
    """
    key = reduction_key(codes, width, dont_cares, exact)
    cached = reduction_cache.get(key)
    if cached is not None:
        return cached
    function = reduce_values(key[0], width, dont_cares=key[2], exact=exact)
    reduction_cache.put(key, function)
    return function


def reduction_cache_stats() -> Tuple[int, int, int]:
    """(hits, misses, current size) of the process reduction cache."""
    return (
        reduction_cache.hits,
        reduction_cache.misses,
        len(reduction_cache),
    )


def clear_reduction_cache() -> None:
    """Drop all cached reductions (tests and benchmarks)."""
    reduction_cache.clear()


def distinct_variables(terms: Sequence[Implicant]) -> int:
    """Count the distinct variables across a DNF term list."""
    used: Set[int] = set()
    for term in terms:
        used.update(term.variables())
    return len(used)


def minterm_dnf(codes: Iterable[int], width: int) -> ReducedFunction:
    """The *unreduced* retrieval expression: one full minterm per code.

    This is the worst case the paper analyses: evaluating it touches
    all ``width`` vectors whenever at least one code is selected.
    """
    terms = tuple(
        Implicant.minterm(code, width) for code in sorted(set(codes))
    )
    return ReducedFunction(terms=terms, width=width)
