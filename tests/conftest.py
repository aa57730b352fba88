"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

import repro.query.options
from repro.table.table import Table
from repro.workload.generators import uniform_column, zipf_column


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return random.Random(1234)


class SteppingClock:
    """Stands in for the ``time`` module that query deadlines read:
    every ``monotonic()`` reading moves the clock ``step`` seconds on,
    and ``advance`` moves it by hand — deadline tests need no sleeps.
    """

    def __init__(self) -> None:
        self.now = 1000.0
        self.step = 0.0

    def monotonic(self) -> float:
        self.now += self.step
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def deadline_clock(monkeypatch):
    """A frozen :class:`SteppingClock` behind every query deadline
    (:func:`repro.query.options.start_deadline` / ``check_deadline``)."""
    clock = SteppingClock()
    monkeypatch.setattr(repro.query.options, "time", clock)
    return clock


@pytest.fixture
def abc_table():
    """The paper's running example table: attribute A over {a, b, c}.

    Six rows matching Figure 1's layout: a, b, c, b, a, c.
    """
    table = Table("T", ["A"])
    for value in ["a", "b", "c", "b", "a", "c"]:
        table.append({"A": value})
    return table


@pytest.fixture
def sales_table():
    """A small fact table with a couple of attribute types."""
    table = Table("sales", ["product", "qty", "region"])
    rng = random.Random(7)
    products = list(range(100, 130))
    for _ in range(300):
        table.append(
            {
                "product": rng.choice(products),
                "qty": rng.randint(1, 50),
                "region": rng.choice(["N", "S", "E", "W"]),
            }
        )
    return table


@pytest.fixture
def skewed_table():
    """A table with a Zipf-skewed high-cardinality column."""
    n = 400
    values = zipf_column(n, 80, skew=1.3, seed=3)
    table = Table("skewed", ["v"])
    for value in values:
        table.append({"v": value})
    return table


def matching_rows(table: Table, predicate) -> list:
    """Reference result: scan-based row ids for a predicate."""
    return sorted(
        row_id
        for row_id in range(len(table))
        if not table.is_void(row_id)
        and predicate.matches(table.row(row_id))
    )
