"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's figures or in-text claims
and prints the rows/series the paper reports, so the output can be
eyeballed against the original.  ``pytest benchmarks/
--benchmark-only`` runs everything; printed tables appear with ``-s``.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

import pytest


def print_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Print an aligned table (visible with pytest -s)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    sys.stdout.flush()


@pytest.fixture(scope="session")
def fig9_table_small():
    """A table whose column is uniform over exactly 50 values."""
    from repro.workload.generators import build_table, uniform_column

    n = 3000
    return build_table(
        "fig9a", n, {"v": uniform_column(n, 50, seed=1)}
    )


@pytest.fixture(scope="session")
def fig9_table_large():
    """A table whose column is uniform over exactly 1000 values."""
    from repro.workload.generators import build_table, uniform_column

    n = 8000
    return build_table(
        "fig9b", n, {"v": uniform_column(n, 1000, seed=2)}
    )
