"""Unit tests for repro.index.groupset (Section 4 of the paper)."""

import pytest

from repro.errors import IndexBuildError
from repro.index.groupset import GroupSetIndex
from repro.table.table import Table


@pytest.fixture
def fact_table():
    table = Table("fact", ["a", "b", "amount"])
    rows = [
        ("x", 1, 10.0), ("x", 2, 20.0), ("y", 1, 5.0),
        ("y", 2, 2.0), ("x", 1, 1.0), ("z", 3, 7.0),
    ]
    for a, b, amount in rows:
        table.append({"a": a, "b": b, "amount": amount})
    return table


class TestVectorCounts:
    def test_paper_example_counts(self):
        """Section 4: cardinalities 100/200/500 -> 10^7 simple vectors
        vs sum of ceil(log2 m_i) encoded vectors."""
        assert GroupSetIndex.simple_vector_count([100, 200, 500]) == 10**7

    def test_encoded_count_is_sum_of_widths(self, fact_table):
        index = GroupSetIndex(fact_table, ["a", "b"])
        assert index.vector_count == sum(
            member.width for member in index.members.values()
        )

    def test_requires_columns(self, fact_table):
        with pytest.raises(IndexBuildError):
            GroupSetIndex(fact_table, [])


class TestGroupVector:
    def test_single_combination(self, fact_table):
        index = GroupSetIndex(fact_table, ["a", "b"])
        vector = index.group_vector({"a": "x", "b": 1})
        assert vector.indices().tolist() == [0, 4]

    def test_cost_accumulates_members(self, fact_table):
        index = GroupSetIndex(fact_table, ["a", "b"])
        index.group_vector({"a": "x", "b": 1})
        assert index.last_cost.vectors_accessed >= 2

    def test_empty_combination(self, fact_table):
        index = GroupSetIndex(fact_table, ["a"])
        assert index.group_vector({}).count() == 0


class TestGroupBy:
    def test_groups_enumerates_occurring_only(self, fact_table):
        """Only combinations present in the data are yielded (the
        paper's density remark)."""
        index = GroupSetIndex(fact_table, ["a", "b"])
        keys = [key for key, _ in index.groups()]
        assert ("x", 1) in keys
        assert ("z", 3) in keys
        assert ("z", 1) not in keys
        assert len(keys) == 5

    def test_count_star(self, fact_table):
        index = GroupSetIndex(fact_table, ["a", "b"])
        counts = index.group_by()
        assert counts[("x", 1)] == 2.0
        assert counts[("z", 3)] == 1.0
        assert sum(counts.values()) == 6.0

    def test_sum_aggregate(self, fact_table):
        index = GroupSetIndex(fact_table, ["a", "b"])
        sums = index.group_by("amount")
        assert sums[("x", 1)] == 11.0
        assert sums[("y", 2)] == 2.0

    def test_skips_void_rows(self, fact_table):
        index = GroupSetIndex(fact_table, ["a", "b"])
        fact_table.delete(5)
        counts = index.group_by()
        assert ("z", 3) not in counts

    def test_single_column_groupby(self, fact_table):
        index = GroupSetIndex(fact_table, ["a"])
        counts = index.group_by()
        assert counts[("x",)] == 3.0
        assert counts[("y",)] == 2.0


class TestRollupGroupBy:
    """Dynamic group-set over hierarchy levels (Section 4)."""

    def _setup(self):
        import random

        from repro.encoding.hierarchy import Hierarchy, hierarchy_encoding

        hierarchy = Hierarchy(
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
        table = Table("sales", ["branch", "amount"])
        rng = random.Random(9)
        for _ in range(300):
            table.append(
                {"branch": rng.randint(1, 12),
                 "amount": rng.randint(1, 10)}
            )
        mapping = hierarchy_encoding(
            hierarchy, reserve_void_zero=True, seed=0
        )
        mappings = {"branch": mapping}
        index = GroupSetIndex(table, ["branch"], encodings=mappings)
        return hierarchy, table, index

    def test_company_counts_match_scan(self):
        hierarchy, table, index = self._setup()
        counts = index.rollup_group_by("branch", hierarchy, "company")
        for company in "abcde":
            members = hierarchy.base_members("company", company)
            expected = sum(
                1 for row in table.scan() if row["branch"] in members
            )
            assert counts[company] == expected

    def test_alliance_sums_match_scan(self):
        hierarchy, table, index = self._setup()
        sums = index.rollup_group_by(
            "branch", hierarchy, "alliance", aggregate_column="amount"
        )
        for alliance in "XYZ":
            members = hierarchy.base_members("alliance", alliance)
            expected = sum(
                row["amount"]
                for row in table.scan()
                if row["branch"] in members
            )
            assert sums[alliance] == expected

    def test_mn_overlap_can_exceed_total(self):
        """m:N membership means per-company counts may double-count
        shared branches (3, 4 belong to a and d)."""
        hierarchy, table, index = self._setup()
        counts = index.rollup_group_by("branch", hierarchy, "company")
        assert sum(counts.values()) >= len(table)
