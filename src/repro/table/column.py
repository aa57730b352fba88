"""Append-only column with NULL support.

Values are stored positionally; ``None`` denotes SQL NULL.  The column
tracks its distinct non-NULL domain incrementally so index builders can
ask for the cardinality without a scan.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Union

from repro.errors import TableError


class Column:
    """A named, typed-by-convention, append-only value column."""

    def __init__(self, name: str, values: Optional[Iterable[Any]] = None) -> None:
        if not name:
            raise TableError("column name must be non-empty")
        self.name = name
        self._values: List[Any] = []
        self._distinct: Set[Any] = set()
        self._null_count = 0
        if values is not None:
            self.extend(values)

    # ------------------------------------------------------------------
    def append(self, value: Any) -> int:
        """Append one value (``None`` = NULL); returns its row id."""
        row_id = len(self._values)
        self._values.append(value)
        if value is None:
            self._null_count += 1
        else:
            self._distinct.add(value)
        return row_id

    def extend(self, values: Iterable[Any]) -> None:
        """Append many values at once (bulk form of :meth:`append`).

        Batches the list growth, null accounting and distinct-set
        update instead of paying per-value call overhead — the path
        :meth:`repro.table.table.Table.from_columns` uses to build
        million-row bench tables.
        """
        added = list(values)
        self._values.extend(added)
        self._null_count += sum(1 for value in added if value is None)
        self._distinct.update(
            value for value in added if value is not None
        )

    def update(self, row_id: int, value: Any) -> Any:
        """Overwrite a row; returns the previous value.

        The distinct set is grow-only (dropping a value would need a
        full scan); cardinality therefore never shrinks, matching how
        a warehouse treats its dimension domain.
        """
        old = self[row_id]
        self._values[row_id] = value
        if old is None and value is not None:
            self._null_count -= 1
        if old is not None and value is None:
            self._null_count += 1
        if value is not None:
            self._distinct.add(value)
        return old

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, row_id: Union[int, slice]) -> Any:
        """One row's value, or a list of values for a slice."""
        try:
            return self._values[row_id]
        except IndexError:
            raise TableError(
                f"row {row_id} out of range for column {self.name!r} "
                f"of length {len(self._values)}"
            ) from None

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def values(self) -> List[Any]:
        """A copy of the raw value list (NULLs as ``None``)."""
        return list(self._values)

    # ------------------------------------------------------------------
    def distinct_values(self) -> Set[Any]:
        """Distinct non-NULL values ever seen (the attribute domain)."""
        return set(self._distinct)

    def cardinality(self) -> int:
        """``|A|`` — the paper's ``m`` for this attribute."""
        return len(self._distinct)

    @property
    def null_count(self) -> int:
        return self._null_count

    def has_nulls(self) -> bool:
        return self._null_count > 0

    def value_positions(self) -> Dict[Any, List[int]]:
        """Inverted map value -> row ids (NULLs under ``None``)."""
        positions: Dict[Any, List[int]] = {}
        for row_id, value in enumerate(self._values):
            positions.setdefault(value, []).append(row_id)
        return positions

    def __repr__(self) -> str:
        return (
            f"Column({self.name!r}, rows={len(self)}, "
            f"cardinality={self.cardinality()})"
        )
