"""Unit tests for repro.query.optimizer (footnote 3 don't-care
optimisation)."""


from repro.boolean.reduction import reduce_values
from repro.query.optimizer import (
    cheapest_variant,
    dont_care_variants,
    normalize_predicate,
    operation_count,
)
from repro.query.predicates import (
    AndPredicate,
    Equals,
    InList,
    NotPredicate,
    OrPredicate,
    Range,
)


class TestDontCareVariants:
    def test_empty_subset_first(self):
        variants = list(dont_care_variants([1, 2], 2, [3]))
        assert variants[0][0] == ()

    def test_all_subsets_enumerated(self):
        variants = list(dont_care_variants([1], 2, [2, 3]))
        subsets = {subset for subset, _ in variants}
        assert subsets == {(), (2,), (3,), (2, 3)}

    def test_on_codes_removed_from_dc(self):
        variants = list(dont_care_variants([1, 2], 2, [1, 2, 3]))
        for subset, _ in variants:
            assert 1 not in subset
            assert 2 not in subset

    def test_variants_all_cover_on_set(self):
        for _, function in dont_care_variants([1, 2], 3, [0, 7]):
            assert function.evaluate_value(1)
            assert function.evaluate_value(2)


class TestOperationCount:
    def test_constant(self):
        assert operation_count(reduce_values([], 2)) == 0
        assert operation_count(reduce_values(range(4), 2)) == 0

    def test_counts_literals_and_negations(self):
        # single minterm B1'B0: 1 AND + 1 NOT
        function = reduce_values([0b01], 2)
        assert operation_count(function) == 2

    def test_more_terms_cost_more(self):
        one_term = reduce_values([0b00, 0b01], 2)  # B1'
        two_terms = reduce_values([0b00, 0b11], 2)  # two minterms
        assert operation_count(one_term) < operation_count(two_terms)


class TestCheapestVariant:
    def test_paper_footnote3(self):
        """Selecting b=01, c=10 with don't-care 11: f_b + f_c needs
        both vectors either way, but the don't-care variant (B1 + B0)
        uses fewer operations than the XOR-shaped exact one."""
        exact = reduce_values([0b01, 0b10], 2)
        best = cheapest_variant([0b01, 0b10], 2, [0b11])
        assert best.vector_count() <= exact.vector_count()
        assert operation_count(best) <= operation_count(exact)
        # the cheapest variant is exactly B1 + B0
        assert operation_count(best) == 1
        for value, expected in [(0b00, False), (0b01, True),
                                (0b10, True), (0b11, True)]:
            assert best.evaluate_value(value) == expected

    def test_dont_cares_reduce_vector_count(self):
        # ON {0,1,2}, DC {3}: with DC the function is constant true
        best = cheapest_variant([0, 1, 2], 2, [3])
        assert best.is_true
        assert best.vector_count() == 0

    def test_no_dont_cares(self):
        best = cheapest_variant([0b00, 0b01], 2, [])
        assert best.vector_count() == 1

    def test_never_covers_off_codes(self):
        best = cheapest_variant([1], 3, [0])
        # codes 2..7 are OFF and must stay excluded
        for value in range(2, 8):
            assert not best.evaluate_value(value)


class TestNormalizePredicate:
    def test_or_of_equals_becomes_in_list(self):
        result = normalize_predicate(
            Equals("a", 1) | Equals("a", 2) | Equals("a", 3)
        )
        assert result == InList("a", [1, 2, 3])

    def test_mixed_equals_and_in_list_union(self):
        result = normalize_predicate(
            InList("a", [1, 2]) | Equals("a", 2) | InList("a", [3])
        )
        assert result == InList("a", [1, 2, 3])

    def test_value_order_is_first_occurrence(self):
        left = normalize_predicate(Equals("a", 2) | Equals("a", 1))
        right = normalize_predicate(InList("a", [2, 1]))
        assert left == right == InList("a", [2, 1])

    def test_single_value_union_collapses_to_equals(self):
        result = normalize_predicate(Equals("a", 1) | InList("a", [1]))
        assert result == Equals("a", 1)

    def test_other_columns_kept_as_operands(self):
        result = normalize_predicate(
            Equals("a", 1) | Equals("b", 2) | Equals("a", 3)
        )
        assert isinstance(result, OrPredicate)
        assert set(result.operands) == {
            InList("a", [1, 3]),
            Equals("b", 2),
        }

    def test_non_value_leaves_untouched(self):
        ranged = Range("a", 1, 5)
        result = normalize_predicate(Equals("a", 9) | ranged)
        assert isinstance(result, OrPredicate)
        assert ranged in result.operands

    def test_recurses_through_and_and_not(self):
        inner = Equals("a", 1) | Equals("a", 2)
        result = normalize_predicate(~(inner & Equals("b", 3)))
        assert result == NotPredicate(
            AndPredicate((InList("a", [1, 2]), Equals("b", 3)))
        )

    def test_semantics_preserved(self):
        predicate = (
            Equals("a", 1) | Equals("a", 2) | Range("b", 0, 5)
        ) & ~Equals("c", "x")
        normalized = normalize_predicate(predicate)
        rows = [
            {"a": a, "b": b, "c": c}
            for a in (0, 1, 2)
            for b in (None, 3, 9)
            for c in ("x", "y")
        ]
        for row in rows:
            assert normalized.matches(row) == predicate.matches(row)
