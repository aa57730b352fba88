"""Retrieval-expression optimisation beyond plain reduction.

Footnote 3 of the paper: when selecting ``A = b OR A = c`` one may
consider both ``f_b + f_c`` *and* ``f_b + f_c + f_dontcare`` — adding
don't-care minterms can simplify the expression further (the paper's
example turns an XOR into an OR for machines without a bitwise XOR).
``dont_care_variants`` enumerates the candidate expressions and
``cheapest_variant`` picks the one touching the fewest vectors,
breaking ties by operation count.

Example (doctest) — selecting codes {1, 2} on k = 2 vectors is an XOR
(two terms), but declaring code 3 a don't-care collapses it::

    >>> from repro.query.optimizer import cheapest_variant
    >>> cheapest_variant([1, 2], width=2, dont_cares=[]).to_string()
    "B1'B0 + B1B0'"
    >>> cheapest_variant([1, 2], width=2, dont_cares=[3]).to_string()
    'B0 + B1'
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.boolean.reduction import ReducedFunction, reduce_values
from repro.query.predicates import (
    AndPredicate,
    Equals,
    InList,
    NotPredicate,
    OrPredicate,
    Predicate,
)

#: Cap on how many don't-care subsets are tried exhaustively.
_MAX_DC_SUBSETS = 256


def dont_care_variants(
    codes: Sequence[int],
    width: int,
    dont_cares: Sequence[int],
) -> Iterator[Tuple[Tuple[int, ...], ReducedFunction]]:
    """Yield reductions for subsets of the don't-care codes.

    Each yielded pair is ``(dc_subset_used, reduced_function)``.  The
    empty subset (no don't-cares exploited) is always included first.
    Subset enumeration is capped; when there are too many don't-cares
    only the full set and singletons are tried beyond the empty set.
    """
    dc_list = sorted(set(dont_cares) - set(codes))
    yield (), reduce_values(codes, width)

    subsets: List[Tuple[int, ...]] = []
    if 2 ** len(dc_list) <= _MAX_DC_SUBSETS:
        for size in range(1, len(dc_list) + 1):
            subsets.extend(combinations(dc_list, size))
    else:
        subsets.extend((code,) for code in dc_list)
        subsets.append(tuple(dc_list))

    for subset in subsets:
        yield subset, reduce_values(codes, width, dont_cares=subset)


def normalize_predicate(predicate: Predicate) -> Predicate:
    """Collapse same-column OR unions of Equals/InList into one leaf.

    ``A = b OR A = c`` and ``A IN {b, c}`` select the same rows, but
    served leaf by leaf the OR form pays one full-minterm lookup per
    term while the IN form reduces the *union* of codes at once (the
    paper's Q2 / Definition 2.5 shape, where Quine-McCluskey can
    cancel variables across terms).  Normalising before planning makes
    canonically-equal predicates execute with identical access cost
    instead of depending on how the query happened to be spelled.

    Value order is first occurrence, so equal inputs normalise to
    equal (hashable) predicates.  Operands that are not Equals/InList
    leaves — ranges, NULL tests, nested conjunctions — are kept in
    place, each normalised recursively.

    >>> from repro.query.predicates import Equals, Range
    >>> normalize_predicate(Equals("A", "b") | Equals("A", "c"))
    InList(column='A', values=('b', 'c'))
    >>> normalize_predicate(Equals("A", "b") | Range("q", 1, 2))
    OrPredicate(operands=(Equals(column='A', value='b'), \
Range(column='q', low=1, high=2, low_inclusive=True, \
high_inclusive=True)))
    """
    if isinstance(predicate, AndPredicate):
        return AndPredicate(
            tuple(normalize_predicate(op) for op in predicate.operands)
        )
    if isinstance(predicate, NotPredicate):
        return NotPredicate(normalize_predicate(predicate.operand))
    if not isinstance(predicate, OrPredicate):
        return predicate
    # Flatten nested ORs first: ``(a OR b) OR c`` — the shape the
    # ``|`` operator builds — must unify leaves across nesting levels.
    flattened: List[Predicate] = []
    pending = list(predicate.operands)
    while pending:
        operand = normalize_predicate(pending.pop(0))
        if isinstance(operand, OrPredicate):
            flattened.extend(operand.operands)
        else:
            flattened.append(operand)
    merged: List[Predicate] = []
    unions: Dict[str, List[Any]] = {}
    slots: Dict[str, int] = {}
    for operand in flattened:
        if isinstance(operand, Equals):
            column, values = operand.column, [operand.value]
        elif isinstance(operand, InList):
            column, values = operand.column, list(operand.values)
        else:
            merged.append(operand)
            continue
        if column not in slots:
            slots[column] = len(merged)
            merged.append(operand)  # placeholder, rewritten below
            unions[column] = []
        bucket = unions[column]
        for value in values:
            if value not in bucket:
                bucket.append(value)
    for column, position in slots.items():
        values = unions[column]
        merged[position] = (
            Equals(column, values[0])
            if len(values) == 1
            else InList(column, values)
        )
    if len(merged) == 1:
        return merged[0]
    return OrPredicate(tuple(merged))


def operation_count(function: ReducedFunction) -> int:
    """ANDs/ORs/NOTs needed to evaluate a DNF (rough CPU measure)."""
    if function.is_false or function.is_true:
        return 0
    ops = max(0, len(function.terms) - 1)  # ORs between terms
    for term in function.terms:
        literals = term.literal_count()
        ops += max(0, literals - 1)  # ANDs inside the term
        ops += sum(
            1
            for i in term.variables()
            if not (term.bits >> i) & 1
        )  # negations
    return ops


def cheapest_variant(
    codes: Sequence[int],
    width: int,
    dont_cares: Sequence[int],
) -> ReducedFunction:
    """The variant reading the fewest vectors (ties: fewest ops).

    This is the optimiser's answer to footnote 3: it may include
    don't-care codes in the ON set when that shortens the expression.

    >>> cheapest_variant([0, 1], width=2, dont_cares=[]).vector_count()
    1
    """
    best: Optional[ReducedFunction] = None
    best_key: Optional[Tuple[int, int]] = None
    for _, function in dont_care_variants(codes, width, dont_cares):
        key = (function.vector_count(), operation_count(function))
        if best_key is None or key < best_key:
            best, best_key = function, key
    assert best is not None  # the empty-subset variant always yields
    return best
