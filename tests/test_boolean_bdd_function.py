"""Tests for the BooleanFunction facade."""

import pytest

from repro.boolean import BooleanFunction, TruthTable, verify_cover


class TestBooleanFunction:
    def test_from_expression_and_metrics(self):
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
        m = f.sop_metrics()
        assert m == {
            "n": 2, "products": 2, "literal_occurrences": 4,
            "distinct_literals": 4, "dual_products": 2,
        }

    def test_minimized_cover_verified(self):
        f = BooleanFunction.from_minterms(4, [1, 3, 7, 11, 15])
        assert verify_cover(f.minimized_cover, f.on)

    def test_dont_cares_used(self):
        f = BooleanFunction.from_minterms(2, [3], dc_minterms=[1])
        assert f.minimized_cover.num_products == 1
        assert f.minimized_cover[0].num_literals == 1

    def test_equality_and_hash(self):
        f = BooleanFunction.from_minterms(3, [1, 2])
        g = BooleanFunction.from_minterms(3, [1, 2])
        assert f == g and hash(f) == hash(g)

    def test_callable_interface(self):
        f = BooleanFunction.from_expression("x1 x2")
        assert f(0b11) and not f(0b01)

    def test_name_length_validation(self):
        with pytest.raises(ValueError):
            BooleanFunction(TruthTable.constant(2, True), names=["a"])

    def test_to_expression_parses_back(self):
        f = BooleanFunction.from_minterms(3, [0, 3, 5, 6])
        g = BooleanFunction.from_expression(f.to_expression(), names=f.names)
        assert g.on == f.on
