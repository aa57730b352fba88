"""Unit tests for repro.boolean.expr."""


from repro.boolean.expr import (
    And,
    Const,
    Not,
    Or,
    Var,
    Xor,
    dnf_expression,
    term_expression,
)
from repro.boolean.minterm import Implicant
from repro.boolean.reduction import reduce_values


class TestNodes:
    def test_var(self):
        v = Var(2)
        assert v.variables() == frozenset({2})
        assert v.evaluate_value(0b100)
        assert not v.evaluate_value(0b011)
        assert str(v) == "B2"

    def test_const(self):
        assert Const(True).evaluate_value(0)
        assert not Const(False).evaluate_value(7)
        assert Const(True).variables() == frozenset()

    def test_not(self):
        expr = Not(Var(0))
        assert expr.evaluate_value(0b0)
        assert not expr.evaluate_value(0b1)
        assert str(expr) == "B0'"

    def test_not_parenthesises_compound(self):
        expr = Not(Or((Var(0), Var(1))))
        assert str(expr) == "(B0 + B1)'"

    def test_and_or_xor_semantics(self):
        a, b = Var(0), Var(1)
        for value in range(4):
            x0, x1 = value & 1, (value >> 1) & 1
            assert And((a, b)).evaluate_value(value) == bool(x0 and x1)
            assert Or((a, b)).evaluate_value(value) == bool(x0 or x1)
            assert Xor((a, b)).evaluate_value(value) == bool(x0 ^ x1)

    def test_operator_builders(self):
        expr = (Var(0) & Var(1)) | ~Var(2)
        assert isinstance(expr, Or)
        assert expr.variables() == frozenset({0, 1, 2})

    def test_xor_operator(self):
        expr = Var(0) ^ Var(1)
        assert isinstance(expr, Xor)

    def test_and_renders_parenthesised_or(self):
        expr = And((Var(1), Or((Var(0), Var(2)))))
        assert "(" in str(expr)


class TestConversion:
    def test_term_expression_full_minterm(self):
        term = Implicant.minterm(0b10, 2)
        expr = term_expression(term)
        for value in range(4):
            assert expr.evaluate_value(value) == term.covers(value)

    def test_term_expression_single_literal(self):
        term = Implicant(bits=0b0, care=0b1, width=2)
        expr = term_expression(term)
        assert isinstance(expr, Not)

    def test_term_expression_constant(self):
        term = Implicant(bits=0, care=0, width=2)
        assert term_expression(term) == Const(True)

    def test_dnf_expression_matches_function(self):
        function = reduce_values([1, 2, 5], 3)
        expr = dnf_expression(function)
        for value in range(8):
            assert expr.evaluate_value(value) == function.evaluate_value(
                value
            )

    def test_dnf_expression_false(self):
        function = reduce_values([], 3)
        assert dnf_expression(function) == Const(False)

    def test_footnote3_xor_vs_or(self):
        """The paper's footnote 3: f_b + f_c = B1 XOR B0, and with the
        don't-care term it becomes B1 + B0."""
        xor_form = Xor((Var(1), Var(0)))
        or_form = Or((Var(1), Var(0)))
        # they agree except on code 11 (the don't-care)
        for value in (0b00, 0b01, 0b10):
            assert xor_form.evaluate_value(value) == or_form.evaluate_value(
                value
            )
        assert not xor_form.evaluate_value(0b11)
        assert or_form.evaluate_value(0b11)
