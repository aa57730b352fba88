"""The mapping table of an encoded bitmap index.

Definition 2.1 of the paper: an encoded bitmap index consists of the
bitmap vectors, a *one-to-one mapping* from the attribute domain onto
``k``-bit codes (``k = ceil(log2 m)``), and the retrieval functions.
:class:`MappingTable` is that mapping, including the paper's treatment
of non-existing (void) tuples and NULLs: they are encoded together
with the ordinary values, and — per Theorem 2.1 — code 0 is reserved
for void so selections on existing tuples need no existence filter.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import (
    CodeWidthError,
    DomainError,
    DuplicateCodeError,
    DuplicateValueError,
    InvalidArgumentError,
)


class _Sentinel:
    """Singleton marker values for void tuples and NULLs."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"


#: Artificial key for non-existing (deleted) tuples.  Theorem 2.1:
#: reserving code 0 for VOID lets every selection on existing tuples
#: drop the existence conjunct.
VOID = _Sentinel("VOID")

#: Artificial key for NULL attribute values.
NULL = _Sentinel("NULL")

#: Serial numbers telling mapping objects apart for as long as the
#: process lives (an ``id()`` can be reused once an object is freed).
_serials = itertools.count()


def code_width(cardinality: int) -> int:
    """``k = ceil(log2 m)``: vectors needed for ``m`` distinct values."""
    if cardinality < 1:
        raise InvalidArgumentError(f"cardinality must be positive, got {cardinality}")
    if cardinality == 1:
        return 1
    return math.ceil(math.log2(cardinality))


class MappingTable:
    """One-to-one mapping between attribute values and k-bit codes.

    Parameters
    ----------
    width:
        Number of code bits ``k`` (equals the number of bitmap vectors).
    reserve_void_zero:
        When True (default), code 0 is pre-assigned to :data:`VOID`
        following Theorem 2.1.
    """

    def __init__(self, width: int = 1, reserve_void_zero: bool = True) -> None:
        if width < 1:
            raise InvalidArgumentError(f"width must be >= 1, got {width}")
        self._width = width
        self._value_to_code: Dict[Hashable, int] = {}
        self._code_to_value: Dict[int, Hashable] = {}
        #: Bumped after every mutation; :meth:`dont_cares` caches its
        #: tuple with the generation it was computed at, so a tuple
        #: computed while a mutation ran is never served afterwards.
        self._generation = 0
        self._serial = next(_serials)
        self._dont_cares: Tuple[int, Tuple[int, ...]] = (-1, ())
        self._fingerprint: Tuple[int, int] = (-1, 0)
        self._snapshot: Tuple[int, Optional["MappingTable"]] = (-1, None)
        #: The last :meth:`same_as` answer, keyed by the generation pair
        #: it was computed at: ``((other serial, other generation, own
        #: generation), equal)``.
        self._same: Tuple[Tuple[int, int, int], bool] = ((-1, -1, -1), False)
        if reserve_void_zero:
            self.assign(VOID, 0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[Hashable, int]],
        width: Optional[int] = None,
        reserve_void_zero: bool = False,
    ) -> "MappingTable":
        """Build from explicit ``(value, code)`` pairs.

        When ``width`` is omitted it is inferred from the largest code
        (at least one bit).
        """
        pair_list = list(pairs)
        if width is None:
            highest = max((code for _, code in pair_list), default=0)
            width = max(1, highest.bit_length())
        table = cls(width=width, reserve_void_zero=reserve_void_zero)
        for value, code in pair_list:
            table.assign(value, code)
        return table

    @classmethod
    def from_values(
        cls,
        values: Iterable[Hashable],
        reserve_void_zero: bool = True,
        include_null: bool = False,
    ) -> "MappingTable":
        """Sequentially encode a domain.

        Codes are assigned in iteration order starting after any
        reserved codes, matching the paper's running example where
        ``{a, b, c}`` maps to ``00, 01, 10``.
        """
        ordered = list(dict.fromkeys(values))
        extra = (1 if reserve_void_zero else 0) + (1 if include_null else 0)
        width = code_width(max(1, len(ordered) + extra))
        table = cls(width=width, reserve_void_zero=reserve_void_zero)
        if include_null:
            table.assign(NULL, table.next_free_code())
        for value in ordered:
            table.assign(value, table.next_free_code())
        return table

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Code width ``k`` — the number of bitmap vectors."""
        return self._width

    def __len__(self) -> int:
        return len(self._value_to_code)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._value_to_code

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._value_to_code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingTable):
            return NotImplemented
        return (
            self._width == other._width
            and self._value_to_code == other._value_to_code
        )

    def __repr__(self) -> str:
        return (
            f"MappingTable(width={self._width}, "
            f"values={len(self._value_to_code)})"
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def encode(self, value: Hashable) -> int:
        """Code of ``value``; raises :class:`DomainError` if unknown."""
        try:
            return self._value_to_code[value]
        except KeyError:
            raise DomainError(f"value {value!r} is not in the domain") from None

    def decode(self, code: int) -> Hashable:
        """Value carrying ``code``; raises :class:`DomainError` if unused."""
        try:
            return self._code_to_value[code]
        except KeyError:
            raise DomainError(f"code {code:#b} is not assigned") from None

    def has_code(self, code: int) -> bool:
        return code in self._code_to_value

    def values(self) -> List[Hashable]:
        """All mapped values (including sentinels), insertion-ordered."""
        return list(self._value_to_code)

    def domain(self) -> List[Hashable]:
        """Mapped values excluding the VOID/NULL sentinels."""
        return [
            value
            for value in self._value_to_code
            if value is not VOID and value is not NULL
        ]

    def codes(self) -> List[int]:
        """All assigned codes, in value insertion order."""
        return list(self._value_to_code.values())

    def items(self) -> Iterator[Tuple[Hashable, int]]:
        return iter(self._value_to_code.items())

    def dont_cares(self) -> Tuple[int, ...]:
        """Codes of the k-cube not assigned to any value, ascending.

        Computed once per mapping state: every reduction over this
        mapping passes these codes as don't-cares.
        """
        generation, codes = self._dont_cares
        if generation != self._generation:
            generation = self._generation
            codes = tuple(
                code
                for code in range(1 << self._width)
                if code not in self._code_to_value
            )
            # A memo, not shared state: one atomic store of an
            # immutable pair, and a pair from a stale generation is
            # recomputed, never served.
            self._dont_cares = (generation, codes)  # ebilint: disable=EBI301
        return codes

    def fingerprint(self) -> int:
        """A hash of the width and every ``(value, code)`` binding.

        Cached per generation, so it moves on :meth:`assign`,
        :meth:`add_value`, :meth:`grow_width` and :meth:`reassign_all`.
        Equal mappings have equal fingerprints; the converse needs
        ``==`` (:meth:`same_as`).
        """
        generation, value = self._fingerprint
        if generation != self._generation:
            generation = self._generation
            value = hash(
                (self._width, frozenset(self._value_to_code.items()))
            )
            # A memo, like ``_dont_cares``.
            self._fingerprint = (generation, value)  # ebilint: disable=EBI301
        return value

    def snapshot(self) -> "MappingTable":
        """An unchanging copy of the current bindings.

        One copy per generation: while the mapping does not move,
        every call returns the same object.  Callers that take it while
        the mapping may be written hold the lock its writers hold.
        """
        generation, copy = self._snapshot
        if copy is None or generation != self._generation:
            generation = self._generation
            copy = MappingTable(self._width, reserve_void_zero=False)
            copy._value_to_code = dict(self._value_to_code)
            copy._code_to_value = dict(self._code_to_value)
            copy._generation = generation
            copy._fingerprint = (generation, self.fingerprint())
            # A memo, like ``_dont_cares``.
            self._snapshot = (generation, copy)  # ebilint: disable=EBI301
        return copy

    def same_as(self, other: "MappingTable") -> bool:
        """``self == other``, decided once per pair of generations.

        Fingerprints filter: different ones answer ``False`` at once,
        equal ones are confirmed with ``==``.  The answer is kept with
        both generations (and ``other``'s serial), so it is served again
        only while neither mapping has moved.  Callers hold the lock
        that guards writes to either mapping, or pass one that is never
        written (a :meth:`snapshot`).
        """
        if other is self:
            return True
        key = (other._serial, other._generation, self._generation)
        memo, equal = self._same
        if memo != key:
            equal = self.fingerprint() == other.fingerprint() and self == other
            # A memo, like ``_dont_cares``.
            self._same = (key, equal)  # ebilint: disable=EBI301
        return equal

    def unused_codes(self) -> List[int]:
        """Codes of the k-cube not assigned to any value (don't-cares)."""
        return list(self.dont_cares())

    def next_free_code(self) -> int:
        """Smallest unassigned code; raises when the cube is full."""
        for code in range(1 << self._width):
            if code not in self._code_to_value:
                return code
        raise CodeWidthError(
            f"all {1 << self._width} codes of width {self._width} are in use"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, value: Hashable, code: int) -> None:
        """Bind ``value`` to ``code``, enforcing the one-to-one property."""
        if value in self._value_to_code:
            raise DuplicateValueError(f"value {value!r} already mapped")
        if code in self._code_to_value:
            raise DuplicateCodeError(
                f"code {code:#b} already maps {self._code_to_value[code]!r}"
            )
        if code < 0 or code >= (1 << self._width):
            raise CodeWidthError(
                f"code {code} does not fit in width {self._width}"
            )
        self._value_to_code[value] = code
        self._code_to_value[code] = value
        self._generation += 1

    def add_value(self, value: Hashable) -> Tuple[int, bool]:
        """Add a new domain value, expanding the width if necessary.

        Implements the paper's *update with domain expansion*
        (Equation 1): if the current width still has a free code the
        value takes it and the width is unchanged; otherwise the width
        grows by one bit (a new all-zero bitmap vector is prepended by
        the index) and the value takes the first code with the new top
        bit set.

        Returns
        -------
        (code, expanded):
            The assigned code and whether the width grew.
        """
        if value in self._value_to_code:
            raise DuplicateValueError(f"value {value!r} already mapped")
        expanded = False
        try:
            code = self.next_free_code()
        except CodeWidthError:
            self.grow_width()
            expanded = True
            code = self.next_free_code()
        self.assign(value, code)
        return code, expanded

    def grow_width(self) -> None:
        """Add one code bit; existing codes keep their value (new MSB 0)."""
        self._width += 1
        self._generation += 1

    def reassign_all(self, mapping: Dict[Hashable, int]) -> None:
        """Replace every binding at once (re-encoding).

        The new mapping must cover exactly the current value set and be
        one-to-one within the current width.
        """
        if set(mapping) != set(self._value_to_code):
            raise DomainError("re-encoding must cover exactly the same values")
        codes = list(mapping.values())
        if len(set(codes)) != len(codes):
            raise DuplicateCodeError("re-encoding assigns a code twice")
        for code in codes:
            if code < 0 or code >= (1 << self._width):
                raise CodeWidthError(
                    f"code {code} does not fit in width {self._width}"
                )
        self._value_to_code = dict(mapping)
        self._code_to_value = {
            code: value for value, code in mapping.items()
        }
        self._generation += 1

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_rows(self) -> List[Tuple[str, str]]:
        """Render as (value, binary-code) rows, as the paper's figures."""
        return [
            (repr(value) if isinstance(value, _Sentinel) else str(value),
             format(code, f"0{self._width}b"))
            for value, code in self._value_to_code.items()
        ]

    def format_table(self) -> str:
        """Multi-line rendering mirroring the paper's mapping tables."""
        rows = self.to_rows()
        if not rows:
            return "(empty mapping)"
        value_width = max(len(value) for value, _ in rows)
        lines = [
            f"{value:<{value_width}}  {code}" for value, code in rows
        ]
        return "\n".join(lines)
