"""Unit and property tests for cubes and literals."""

import pytest
from hypothesis import given, strategies as st

from repro.boolean import Cube, Literal, TruthTable


class TestLiteral:
    def test_positive_literal_evaluates_variable_bit(self):
        lit = Literal(2, True)
        assert lit.evaluate(0b100)
        assert not lit.evaluate(0b011)

    def test_negative_literal_inverts(self):
        lit = Literal(0, False)
        assert lit.evaluate(0b110)
        assert not lit.evaluate(0b001)

    def test_negated_roundtrip(self):
        lit = Literal(3, True)
        assert lit.negated().negated() == lit
        assert lit.negated() == Literal(3, False)

    def test_name_with_defaults_and_custom(self):
        assert Literal(0, True).name() == "x1"
        assert Literal(1, False).name() == "x2'"
        assert Literal(1, False).name(["a", "b"]) == "b'"

    def test_rejects_negative_variable(self):
        with pytest.raises(ValueError):
            Literal(-1, True)

    def test_ordering_is_stable(self):
        lits = [Literal(2, True), Literal(0, False), Literal(0, True)]
        assert sorted(lits)[0].var == 0


class TestCubeConstruction:
    def test_from_string_parses_positional(self):
        cube = Cube.from_string("1-0")
        assert cube.n == 3
        assert str(cube) == "1-0"

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            Cube.from_string("1x0")

    def test_from_literals(self):
        cube = Cube.from_literals(4, [Literal(0, True), Literal(3, False)])
        assert str(cube) == "1--0"

    def test_from_literals_conflict_raises(self):
        with pytest.raises(ValueError):
            Cube.from_literals(2, [Literal(0, True), Literal(0, False)])

    def test_from_minterm_has_all_literals(self):
        cube = Cube.from_minterm(3, 0b101)
        assert cube.num_literals == 3
        assert 0b101 in set(cube.minterms())
        assert 0b100 not in set(cube.minterms())

    def test_universe_covers_everything(self):
        cube = Cube.universe(3)
        assert sorted(cube.minterms()) == list(range(8))

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ValueError):
            Cube(2, 0b01, 0b01)

    def test_mask_outside_space_rejected(self):
        with pytest.raises(ValueError):
            Cube(2, 0b100, 0)


class TestCubeSemantics:
    def test_evaluate_matches_literal_conjunction(self):
        cube = Cube.from_string("10-")
        table = TruthTable.from_cubes(3, [cube])
        for m in range(8):
            expected = (m & 1) and not (m & 2)
            assert table.evaluate(m) == bool(expected)

    def test_minterms_enumeration(self):
        cube = Cube.from_string("1--")
        assert sorted(cube.minterms()) == [0b001, 0b011, 0b101, 0b111]

    def test_contains_reflexive_and_monotone(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("1-0")
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)


class TestCubeOperations:
    def test_merge_adjacent(self):
        a = Cube.from_string("101")
        b = Cube.from_string("100")
        merged = a.merge(b)
        assert merged is not None
        assert str(merged) == "10-"

    def test_merge_rejects_distance_two(self):
        a = Cube.from_string("101")
        b = Cube.from_string("110")
        assert a.merge(b) is None

    def test_merge_rejects_different_care_masks(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("100")
        assert a.merge(b) is None

    def test_shared_literals_same_polarity_only(self):
        a = Cube.from_string("11-")
        b = Cube.from_string("1-0")
        shared = a.shared_literals(b)
        assert shared == [Literal(0, True)]

    def test_lift_inserts_a_free_variable(self):
        lifted = Cube.from_string("10-").lift(1)
        assert lifted.n == 4
        assert lifted == Cube.from_string("1-0-")


@st.composite
def cubes(draw, n=4):
    pattern = draw(st.text(alphabet="01-", min_size=n, max_size=n))
    return Cube.from_string(pattern)


class TestCubeProperties:
    @given(cubes(), cubes())
    def test_containment_semantics(self, a, b):
        assert a.contains(b) == (set(b.minterms()) <= set(a.minterms()))

    @given(cubes(), cubes())
    def test_merge_preserves_union(self, a, b):
        merged = a.merge(b)
        if merged is not None:
            assert set(merged.minterms()) == set(a.minterms()) | set(b.minterms())
