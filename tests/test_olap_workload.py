"""Unit tests for repro.workload.olap (roll-up/drill-down sessions)."""

import pytest

from repro.encoding.hierarchy import Hierarchy
from repro.query.predicates import InList
from repro.workload.olap import (
    generate_session,
    level_visit_counts,
    session_predicates,
)


@pytest.fixture
def hierarchy():
    return Hierarchy(
        range(1, 13),
        {
            "company": {
                "a": [1, 2, 3, 4], "b": [5, 6], "c": [7, 8],
                "d": [3, 4, 9, 10], "e": [9, 10, 11, 12],
            },
            "alliance": {"X": ["a", "b", "c"], "Y": ["c", "d"],
                         "Z": ["d", "e"]},
        },
    )


class TestGenerateSession:
    def test_length(self, hierarchy):
        session = generate_session(hierarchy, "branch", length=12)
        assert len(session) == 12

    def test_starts_at_top_level(self, hierarchy):
        session = generate_session(hierarchy, "branch", seed=4)
        assert session[0].level == "alliance"
        assert session[0].operation == "select"

    def test_deterministic(self, hierarchy):
        a = generate_session(hierarchy, "branch", length=8, seed=5)
        b = generate_session(hierarchy, "branch", length=8, seed=5)
        assert a == b

    def test_predicates_are_base_in_lists(self, hierarchy):
        session = generate_session(hierarchy, "branch", length=15,
                                   seed=2)
        for step in session:
            assert isinstance(step.predicate, InList)
            members = hierarchy.base_members(step.level, step.element)
            assert set(step.predicate.values) == members

    def test_moves_stay_in_hierarchy(self, hierarchy):
        session = generate_session(hierarchy, "branch", length=30,
                                   seed=7)
        for step in session:
            assert step.level in hierarchy.level_names
            assert step.element in hierarchy.elements(step.level)

    def test_drilldown_goes_down_rollup_up(self, hierarchy):
        session = generate_session(hierarchy, "branch", length=40,
                                   seed=9)
        levels = hierarchy.level_names
        for previous, current in zip(session, session[1:]):
            if current.operation == "drilldown":
                assert levels.index(current.level) == levels.index(
                    previous.level
                ) - 1
            elif current.operation == "rollup":
                assert levels.index(current.level) == levels.index(
                    previous.level
                ) + 1
            elif current.operation == "sibling":
                assert current.level == previous.level

    def test_invalid_length(self, hierarchy):
        with pytest.raises(ValueError):
            generate_session(hierarchy, "branch", length=0)


class TestHelpers:
    def test_session_predicates(self, hierarchy):
        session = generate_session(hierarchy, "branch", length=6,
                                   seed=1)
        predicates = session_predicates(session)
        assert len(predicates) == 6
        assert all(isinstance(p, InList) for p in predicates)

    def test_level_visit_counts(self, hierarchy):
        session = generate_session(hierarchy, "branch", length=20,
                                   seed=3)
        counts = level_visit_counts(session)
        assert sum(counts.values()) == 20
        assert set(counts) <= {"company", "alliance"}


class TestSessionAgainstIndexes:
    def test_hierarchy_encoding_wins_session(self, hierarchy):
        """A hierarchy-encoded index serves a whole OLAP session with
        fewer vector reads than a random encoding."""
        import random as _random

        from repro.encoding.heuristics import random_encoding
        from repro.encoding.hierarchy import hierarchy_encoding
        from repro.index.encoded_bitmap import EncodedBitmapIndex
        from repro.table.table import Table

        table = Table("sales", ["branch"])
        rng = _random.Random(0)
        for _ in range(400):
            table.append({"branch": rng.randint(1, 12)})

        tuned = EncodedBitmapIndex(
            table, "branch",
            encoding=hierarchy_encoding(hierarchy, seed=0),
            void_mode="vector",
        )
        untuned = EncodedBitmapIndex(
            table, "branch",
            encoding=random_encoding(
                range(1, 13), seed=99, reserve_void_zero=False
            ),
            void_mode="vector",
        )
        session = generate_session(hierarchy, "branch", length=20,
                                   seed=11)
        tuned_cost = untuned_cost = 0
        for predicate in session_predicates(session):
            result_a = tuned.lookup(predicate)
            tuned_cost += tuned.last_cost.vectors_accessed
            result_b = untuned.lookup(predicate)
            untuned_cost += untuned.last_cost.vectors_accessed
            assert result_a == result_b
        assert tuned_cost <= untuned_cost
