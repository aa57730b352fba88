"""Unit tests for repro.boolean.reduction."""


from repro.boolean.reduction import (
    distinct_variables,
    minterm_dnf,
    reduce_values,
)


class TestReduceValues:
    def test_empty_is_false(self):
        reduced = reduce_values([], 3)
        assert reduced.is_false
        assert reduced.vector_count() == 0
        assert reduced.to_string() == "0"

    def test_full_cube_is_true(self):
        reduced = reduce_values(range(8), 3)
        assert reduced.is_true
        assert reduced.vector_count() == 0

    def test_single_value_is_minterm(self):
        reduced = reduce_values([0b101], 3)
        assert reduced.vector_count() == 3
        assert reduced.to_string() == "B2B1'B0"

    def test_paper_figure1_reduction(self):
        # a=00, b=01: f_a + f_b = B1'B0' + B1'B0 = B1'
        reduced = reduce_values([0b00, 0b01], 2)
        assert reduced.to_string() == "B1'"
        assert reduced.vector_count() == 1

    def test_semantics_match_truth_table(self):
        codes = [1, 3, 4, 6]
        reduced = reduce_values(codes, 3)
        for value in range(8):
            assert reduced.evaluate_value(value) == (value in codes)

    def test_dont_cares_may_enlarge_coverage(self):
        reduced = reduce_values([0, 1, 2], 2, dont_cares=[3])
        assert reduced.is_true  # don't-care 3 completes the cube
        # but dc must not be required: ON set still covered
        for value in (0, 1, 2):
            assert reduced.evaluate_value(value)

    def test_dont_cares_never_reduce_on_coverage(self):
        codes = [2, 5]
        reduced = reduce_values(codes, 3, dont_cares=[0, 7])
        for value in codes:
            assert reduced.evaluate_value(value)

    def test_off_values_excluded(self):
        codes = [1, 2]
        reduced = reduce_values(codes, 3, dont_cares=[4])
        for value in (0, 3, 5, 6, 7):
            assert not reduced.evaluate_value(value)

    def test_aligned_interval_uses_few_vectors(self):
        # [0, 32) in a 6-cube: one variable (B5')
        reduced = reduce_values(range(32), 6)
        assert reduced.vector_count() == 1
        assert reduced.to_string() == "B5'"

    def test_greedy_mode(self):
        reduced = reduce_values(range(6), 3, exact=False)
        for value in range(8):
            assert reduced.evaluate_value(value) == (value < 6)


class TestReducedFunction:
    def test_variables_sorted(self):
        reduced = reduce_values([0b001, 0b100], 3)
        assert reduced.variables() == (0, 1, 2)

    def test_string_rendering(self):
        reduced = reduce_values([0b01, 0b10], 2)
        rendered = reduced.to_string()
        assert "+" in rendered
        assert "B1" in rendered and "B0" in rendered


class TestMintermDnf:
    def test_unreduced_touches_all_variables(self):
        function = minterm_dnf([0, 3], 3)
        assert function.vector_count() == 3
        assert len(function.terms) == 2

    def test_semantics(self):
        function = minterm_dnf([2, 5], 3)
        for value in range(8):
            assert function.evaluate_value(value) == (value in (2, 5))


class TestDistinctVariables:
    def test_counts_union(self):
        reduced = reduce_values([0b001, 0b010], 3)
        assert distinct_variables(reduced.terms) == reduced.vector_count()

    def test_empty(self):
        assert distinct_variables([]) == 0
