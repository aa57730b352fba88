"""Selection predicate AST.

Covers the paper's query classes: single-value selection (Q1-style),
IN-lists and conventional ranges (both called "range searches" in the
paper), NULL tests, and Boolean combinations — the combinations are
where bitmap *cooperativity* (Section 2.1) pays off.

Each leaf predicate names a column; ``matches`` gives the reference
semantics used by scans and by property tests that compare index
results against a naive scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple


class Predicate:
    """Base class for selection predicates."""

    def matches(self, row: dict) -> bool:
        """Reference semantics on a materialised row."""
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """Columns referenced by the predicate."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return AndPredicate((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return OrPredicate((self, other))

    def __invert__(self) -> "Predicate":
        return NotPredicate(self)


@dataclass(frozen=True)
class Equals(Predicate):
    """``column = value`` (the paper's Q1)."""

    column: str
    value: Any

    def matches(self, row: dict) -> bool:
        return row.get(self.column) == self.value

    def columns(self) -> FrozenSet[str]:
        return frozenset((self.column,))

    def __str__(self) -> str:
        return f"{self.column} = {self.value!r}"


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN {v1, .., vn}`` (the paper's Q2 and Def. 2.5 form)."""

    column: str
    values: Tuple[Any, ...]

    def __init__(self, column: str, values) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(
            self, "values", tuple(dict.fromkeys(values))
        )

    def matches(self, row: dict) -> bool:
        return row.get(self.column) in self.values

    def columns(self) -> FrozenSet[str]:
        return frozenset((self.column,))

    def __str__(self) -> str:
        rendered = ", ".join(repr(v) for v in self.values)
        return f"{self.column} IN {{{rendered}}}"


@dataclass(frozen=True)
class Range(Predicate):
    """``low <?= column <?= high`` with configurable openness.

    ``low=None`` / ``high=None`` leave that side unbounded.
    """

    column: str
    low: Optional[Any] = None
    high: Optional[Any] = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def matches(self, row: dict) -> bool:
        return self.accepts(row.get(self.column))

    def accepts(self, value: Any) -> bool:
        """Whether one column value lies in the range (never NULL)."""
        if value is None:
            return False
        if self.low is not None:
            if self.low_inclusive:
                if value < self.low:
                    return False
            elif value <= self.low:
                return False
        if self.high is not None:
            if self.high_inclusive:
                if value > self.high:
                    return False
            elif value >= self.high:
                return False
        return True

    def columns(self) -> FrozenSet[str]:
        return frozenset((self.column,))

    def __str__(self) -> str:
        left = "" if self.low is None else (
            f"{self.low} {'<=' if self.low_inclusive else '<'} "
        )
        right = "" if self.high is None else (
            f" {'<=' if self.high_inclusive else '<'} {self.high}"
        )
        return f"{left}{self.column}{right}"


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS NULL``."""

    column: str

    def matches(self, row: dict) -> bool:
        return row.get(self.column) is None

    def columns(self) -> FrozenSet[str]:
        return frozenset((self.column,))

    def __str__(self) -> str:
        return f"{self.column} IS NULL"


@dataclass(frozen=True)
class NotPredicate(Predicate):
    """Logical negation."""

    operand: Predicate

    def matches(self, row: dict) -> bool:
        return not self.operand.matches(row)

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True)
class AndPredicate(Predicate):
    """Conjunction of two or more predicates."""

    operands: Tuple[Predicate, ...]

    def matches(self, row: dict) -> bool:
        return all(op.matches(row) for op in self.operands)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.columns()
        return result

    def __str__(self) -> str:
        return " AND ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class OrPredicate(Predicate):
    """Disjunction of two or more predicates."""

    operands: Tuple[Predicate, ...]

    def matches(self, row: dict) -> bool:
        return any(op.matches(row) for op in self.operands)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.columns()
        return result

    def __str__(self) -> str:
        return " OR ".join(f"({op})" for op in self.operands)
