"""Tests for the Boolean expression parser."""

import pytest
from hypothesis import given, strategies as st

from repro.boolean import (
    ExpressionError,
    expression_to_truth_table,
    expression_variables,
    parse_expression,
)


def table_of(text, names=None):
    return expression_to_truth_table(parse_expression(text), names)


class TestParsing:
    def test_paper_notation_spaces_and_plus(self):
        t, names = table_of("x1 x2 + x3 x4")
        assert names == ["x1", "x2", "x3", "x4"]
        for m in range(16):
            expected = ((m & 1) and (m & 2)) or ((m & 4) and (m & 8))
            assert t.evaluate(m) == bool(expected)

    def test_postfix_prime_negation(self):
        t, _ = table_of("x1'")
        assert t.evaluate(0) and not t.evaluate(1)

    def test_double_prime_cancels(self):
        t, _ = table_of("x1''")
        assert not t.evaluate(0) and t.evaluate(1)

    def test_programming_operators(self):
        t, _ = table_of("~a & (b | c) ^ 1")
        for m in range(8):
            a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert t.evaluate(m) == (not ((not a) and (b or c)))

    def test_xnor_example_from_paper(self):
        t, _ = table_of("x1 x2 + x1' x2'")
        assert sorted(t.minterms()) == [0, 3]

    def test_constants(self):
        t, names = table_of("0 + 1")
        assert names == [] and t.evaluate(0)

    def test_adjacency_with_parentheses(self):
        t, _ = table_of("x1(x2 + x3)")
        for m in range(8):
            assert t.evaluate(m) == bool((m & 1) and (m & 2 or m & 4))

    def test_natural_variable_ordering(self):
        node = parse_expression("x10 + x2 + x1")
        assert expression_variables(node) == ["x1", "x2", "x10"]

    def test_explicit_names_override(self):
        t, names = table_of("a", names=["b", "a"])
        assert names == ["b", "a"]
        assert t.evaluate(0b10) and not t.evaluate(0b01)

    def test_errors(self):
        for bad in ("", "x1 &", "(x1", "x1 @ x2", ")", "x1 x2)"):
            with pytest.raises(ExpressionError):
                parse_expression(bad)

    def test_missing_name_in_override(self):
        with pytest.raises(ExpressionError):
            table_of("a + b", names=["a"])


class TestCoverConversion:
    @given(st.integers(min_value=0, max_value=255))
    def test_roundtrip_via_expression_text(self, bits):
        from repro.boolean import Cover, TruthTable

        t = TruthTable.from_bits(3, bits)
        cover = Cover.from_truth_table(t)
        if not len(cover):
            return
        text = cover.to_expression()
        t2, names = table_of(text)
        # names may be a subset when some variable is unused; re-embed
        if names == [f"x{i+1}" for i in range(3)]:
            assert t2 == t
