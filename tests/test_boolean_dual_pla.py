"""Tests for dual functions, the duality lemma and PLA parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import (
    BooleanFunction,
    TruthTable,
    minimize,
    parse_pla,
    verify_cover,
)
from repro.boolean.pla import PlaError
from repro.synthesis import SynthesisError, pick_shared_literal


def tables(n=4):
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


class TestDual:
    @given(tables())
    @settings(max_examples=40)
    def test_dual_cover_implements_dual(self, t):
        cover = minimize(t.dual())
        assert cover.to_truth_table() == t.dual()

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_duality_lemma_holds_for_minimized_pair(self, t):
        f_cover, d_cover = minimize(t), minimize(t.dual())
        for p in f_cover:
            for q in d_cover:
                lit = pick_shared_literal(p, q)
                assert lit in set(p.literals()) and lit in set(q.literals())

    def test_shared_literal_raises_for_disjoint(self):
        from repro.boolean import Cube

        with pytest.raises(SynthesisError):
            pick_shared_literal(Cube.from_string("1-"),
                                Cube.from_string("-0"))

    def test_self_dual_detection(self):
        maj = TruthTable.from_callable(3, lambda m: bin(m).count("1") >= 2)
        assert maj.dual() == maj
        conj = TruthTable.variable(3, 0) & TruthTable.variable(3, 1)
        assert conj.dual() != conj


class TestPla:
    SAMPLE = """\
# a comment
.i 3
.o 2
.ilb a b c
.ob f g
.p 3
1-0 10
011 11
--1 0-
.e
"""

    def test_output_cover_on_and_dc(self):
        pla = parse_pla(self.SAMPLE)
        assert pla.num_inputs == 3 and pla.num_outputs == 2
        assert pla.input_names == ["a", "b", "c"]
        on, dc = pla.output_cover(1)
        assert len(on) == 1  # row 011 has g=1
        assert len(dc) == 1  # row --1 has g=-

    def test_compact_row_format(self):
        pla = parse_pla(".i 2\n.o 1\n111\n.e\n")
        on, _ = pla.output_cover(0)
        assert len(on) == 1 and str(on[0]) == "11"

    def test_missing_declarations_raise(self):
        with pytest.raises(PlaError):
            parse_pla("1-0 1\n")

    def test_bad_row_length_raises(self):
        with pytest.raises(PlaError):
            parse_pla(".i 3\n.o 1\n1- 1\n.e\n")

    def test_boolean_function_from_pla(self):
        text = ".i 2\n.o 1\n.p 2\n11 1\n00 1\n.e\n"
        f = BooleanFunction.from_pla_text(text)
        assert sorted(f.on.minterms()) == [0, 3]
        cover = f.minimized_cover
        assert verify_cover(cover, f.on)
