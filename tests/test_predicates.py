"""Unit tests for repro.query.predicates."""


from repro.query.predicates import (
    AndPredicate,
    Equals,
    InList,
    IsNull,
    NotPredicate,
    OrPredicate,
    Range,
)


class TestEquals:
    def test_matches(self):
        pred = Equals("a", 5)
        assert pred.matches({"a": 5})
        assert not pred.matches({"a": 6})
        assert not pred.matches({})

    def test_columns(self):
        assert Equals("a", 1).columns() == frozenset({"a"})

    def test_str(self):
        assert str(Equals("a", 5)) == "a = 5"


class TestInList:
    def test_matches(self):
        pred = InList("a", [1, 2, 3])
        assert pred.matches({"a": 2})
        assert not pred.matches({"a": 9})

    def test_dedup_preserves_order(self):
        pred = InList("a", [3, 1, 3, 2, 1])
        assert pred.values == (3, 1, 2)

    def test_str(self):
        assert "IN" in str(InList("a", [1]))


class TestRange:
    def test_inclusive_default(self):
        pred = Range("a", 2, 5)
        assert pred.matches({"a": 2})
        assert pred.matches({"a": 5})
        assert not pred.matches({"a": 1})
        assert not pred.matches({"a": 6})

    def test_exclusive(self):
        pred = Range("a", 2, 5, low_inclusive=False, high_inclusive=False)
        assert not pred.matches({"a": 2})
        assert not pred.matches({"a": 5})
        assert pred.matches({"a": 3})

    def test_unbounded_sides(self):
        assert Range("a", None, 5).matches({"a": -100})
        assert Range("a", 5, None).matches({"a": 100})

    def test_null_never_matches(self):
        assert not Range("a", 0, 10).matches({"a": None})

    def test_str_forms(self):
        assert "<=" in str(Range("a", 1, 2))
        assert "<" in str(Range("a", 1, 2, low_inclusive=False))


class TestIsNull:
    def test_matches(self):
        assert IsNull("a").matches({"a": None})
        assert IsNull("a").matches({})
        assert not IsNull("a").matches({"a": 0})


class TestCombinators:
    def test_and(self):
        pred = Equals("a", 1) & Equals("b", 2)
        assert isinstance(pred, AndPredicate)
        assert pred.matches({"a": 1, "b": 2})
        assert not pred.matches({"a": 1, "b": 3})
        assert pred.columns() == frozenset({"a", "b"})

    def test_or(self):
        pred = Equals("a", 1) | Equals("a", 2)
        assert isinstance(pred, OrPredicate)
        assert pred.matches({"a": 2})
        assert not pred.matches({"a": 3})

    def test_not(self):
        pred = ~Equals("a", 1)
        assert isinstance(pred, NotPredicate)
        assert pred.matches({"a": 2})
        assert not pred.matches({"a": 1})

    def test_nested(self):
        pred = (Equals("a", 1) | Equals("a", 2)) & ~Equals("b", "x")
        assert pred.matches({"a": 1, "b": "y"})
        assert not pred.matches({"a": 1, "b": "x"})
        assert not pred.matches({"a": 3, "b": "y"})

    def test_str_renders_tree(self):
        pred = (Equals("a", 1) & Equals("b", 2)) | ~Equals("c", 3)
        text = str(pred)
        assert "AND" in text
        assert "OR" in text
        assert "NOT" in text
