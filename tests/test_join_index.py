"""Unit tests for repro.index.join_index (bitmapped join index)."""

import random

import pytest

from repro.encoding.hierarchy import Hierarchy, hierarchy_encoding
from repro.errors import SchemaError
from repro.index.join_index import BitmapJoinIndex
from repro.query.predicates import Equals
from repro.table.table import Table


@pytest.fixture
def star():
    dimension = Table("products", ["pid", "category", "price_band"])
    categories = ["food", "tools", "toys"]
    for pid in range(20):
        dimension.append(
            {
                "pid": pid,
                "category": categories[pid % 3],
                "price_band": "high" if pid >= 10 else "low",
            }
        )
    fact = Table("sales", ["pid", "amount"])
    rng = random.Random(23)
    for _ in range(400):
        fact.append(
            {"pid": rng.randrange(20), "amount": rng.randint(1, 100)}
        )
    return fact, dimension


def _expected_fact_rows(fact, dimension, dim_pred):
    keys = {
        row["pid"] for row in dimension.scan() if dim_pred.matches(row)
    }
    return sorted(
        row_id
        for row_id in range(len(fact))
        if not fact.is_void(row_id) and fact.row(row_id)["pid"] in keys
    )


class TestJoinKeys:
    def test_keys_match_dimension_scan(self, star):
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        keys = join.join_keys(Equals("category", "food"))
        assert sorted(keys) == [p for p in range(20) if p % 3 == 0]

    def test_dimension_scan_cost_recorded(self, star):
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        join.join_keys(Equals("category", "food"))
        assert join.last_cost.rows_checked == len(dimension)

    def test_bad_dimension_key(self, star):
        fact, dimension = star
        with pytest.raises(SchemaError):
            BitmapJoinIndex(fact, "pid", dimension, "nope")


class TestLookup:
    def test_star_selection_matches_scan(self, star):
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        for dim_pred in (
            Equals("category", "tools"),
            Equals("price_band", "high"),
            Equals("category", "toys") & Equals("price_band", "low"),
        ):
            got = sorted(join.lookup(dim_pred).indices().tolist())
            assert got == _expected_fact_rows(fact, dimension, dim_pred)

    def test_empty_dimension_selection(self, star):
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        result = join.lookup(Equals("category", "nonexistent"))
        assert result.count() == 0

    def test_fact_side_cost_is_encoded(self, star):
        """The fact side pays encoded-bitmap cost: at most
        ceil(log2 m) vectors however many keys qualify."""
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        join.lookup(Equals("price_band", "low"))  # 10 of 20 keys
        assert (
            join.last_cost.vectors_accessed <= join.fact_index.width
        )

    def test_custom_mapping(self, star):
        fact, dimension = star
        hierarchy = Hierarchy(
            range(20),
            {"band": {"low": list(range(10)),
                      "high": list(range(10, 20))}},
        )
        mapping = hierarchy_encoding(
            hierarchy, reserve_void_zero=True, seed=0
        )
        join = BitmapJoinIndex(
            fact, "pid", dimension, "pid", encoding=mapping
        )
        pred = Equals("price_band", "high")
        got = sorted(join.lookup(pred).indices().tolist())
        assert got == _expected_fact_rows(fact, dimension, pred)


class TestJoinRows:
    def test_materialised_join(self, star):
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        rows = join.join_rows(Equals("category", "food"))
        assert rows
        for row in rows:
            assert row["products.category"] == "food"
            assert row["pid"] % 3 == 0
            assert "amount" in row

    def test_join_row_count_matches_lookup(self, star):
        fact, dimension = star
        join = BitmapJoinIndex(fact, "pid", dimension, "pid")
        pred = Equals("price_band", "high")
        assert len(join.join_rows(pred)) == join.lookup(pred).count()
