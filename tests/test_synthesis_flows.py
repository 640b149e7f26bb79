"""Tests for the synthesis flows: two-terminal, dual lattice, folding,
P-circuits, D-reducible and SAT-optimal."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import BooleanFunction, TruthTable, minimize
from repro.synthesis import (
    SynthesisError,
    TwoTerminalError,
    best_pcircuit,
    candidate_shapes,
    dual_synthesis_report,
    fold_lattice,
    lattice_from_covers,
    lattice_size_formula,
    optimize_lattice,
    pcircuit_decompose,
    pick_shared_literal,
    recompose_table,
    simplify_sites,
    synthesize_diode,
    synthesize_dreducible,
    synthesize_fet,
    synthesize_lattice_dual,
    synthesize_lattice_optimal,
    two_terminal_report,
)


def tables(n=4):
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


def nonconstant_tables(n=4):
    return st.integers(min_value=1, max_value=(1 << (1 << n)) - 2).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


class TestTwoTerminal:
    def test_report_xnor_matches_paper(self):
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'", label="xnor")
        report = two_terminal_report(f)
        assert report.diode_shape == (2, 5)
        assert report.fet_shape == (4, 4)
        assert report.diode_formula == report.diode_shape
        assert report.fet_formula == report.fet_shape

    def test_constant_raises(self):
        f = BooleanFunction.from_truth_table(TruthTable.constant(2, True))
        with pytest.raises(TwoTerminalError):
            two_terminal_report(f)
        with pytest.raises(TwoTerminalError):
            synthesize_diode(TruthTable.constant(2, False))
        with pytest.raises(TwoTerminalError):
            synthesize_fet(TruthTable.constant(2, True))

    @given(nonconstant_tables())
    @settings(max_examples=30, deadline=None)
    def test_arrays_implement_function(self, t):
        assert synthesize_diode(t).implements(t)
        assert synthesize_fet(t).implements(t)

    @given(nonconstant_tables())
    @settings(max_examples=30, deadline=None)
    def test_formula_matches_construction(self, t):
        f = BooleanFunction.from_truth_table(t)
        report = two_terminal_report(f)
        assert report.diode_formula == report.diode_shape
        # The FET column formula is exact; the row formula matches whenever
        # the dual's literals are a subset of f's (checked conditionally).
        assert report.fet_formula[1] == report.fet_shape[1]
        cover = minimize(t)
        dual_cover = minimize(t.dual())
        f_lits = set(cover.distinct_literals())
        d_lits = set(dual_cover.distinct_literals())
        if d_lits <= f_lits:
            assert report.fet_formula[0] == report.fet_shape[0]


class TestDualLattice:
    def test_fig5_formula_on_xnor(self):
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
        report = dual_synthesis_report(f)
        assert report.formula_shape == (2, 2)
        assert report.lattice.shape == (2, 2)

    def test_fig4_function_formula(self):
        f = BooleanFunction.from_expression(
            "x1 x2 x3 + x1 x2 x5 x6 + x2 x3 x4 x5 + x4 x5 x6"
        )
        report = dual_synthesis_report(f)
        assert report.products == 4
        assert report.formula_shape == (report.dual_products, 4)
        assert report.lattice.implements(f.on)

    def test_constants(self):
        zero = synthesize_lattice_dual(TruthTable.constant(3, False))
        one = synthesize_lattice_dual(TruthTable.constant(3, True))
        assert zero.to_truth_table().is_contradiction()
        assert one.to_truth_table().is_tautology()

    def test_shared_literal_error_message(self):
        from repro.boolean import Cube

        with pytest.raises(SynthesisError):
            pick_shared_literal(Cube.from_string("1-"), Cube.from_string("-0"))

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_lattice_implements_function(self, t):
        lattice = synthesize_lattice_dual(t)
        assert lattice.implements(t)

    @given(nonconstant_tables())
    @settings(max_examples=30, deadline=None)
    def test_formula_shape(self, t):
        cover = minimize(t)
        dual_cover = minimize(t.dual())
        lattice = lattice_from_covers(cover, dual_cover)
        assert lattice.shape == lattice_size_formula(cover, dual_cover)


class TestFolding:
    @given(nonconstant_tables(3))
    @settings(max_examples=30, deadline=None)
    def test_folding_preserves_and_shrinks(self, t):
        lattice = synthesize_lattice_dual(t)
        report = optimize_lattice(lattice, t)
        assert report.folded_area <= report.original_area
        assert report.lattice.implements(t)

    def test_fold_keeps_minimum_one_row_col(self):
        t = TruthTable.variable(2, 0)
        lattice = synthesize_lattice_dual(t)
        folded = fold_lattice(lattice, t)
        assert folded.rows >= 1 and folded.cols >= 1

    @given(nonconstant_tables(3))
    @settings(max_examples=20, deadline=None)
    def test_simplify_sites_preserves(self, t):
        lattice = synthesize_lattice_dual(t)
        simplified = simplify_sites(lattice, t)
        assert simplified.implements(t)


class TestPCircuit:
    def test_decomposition_blocks_disjoint(self):
        t = TruthTable.from_minterms(3, [1, 3, 6, 7])
        dec = pcircuit_decompose(t, 0)
        assert (dec.f_eq_on & dec.intersection).is_contradiction()
        assert (dec.f_neq_on & dec.intersection).is_contradiction()

    @given(tables(3), st.integers(min_value=0, max_value=2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_recomposition_identity_lower_choice(self, t, var, polarity):
        dec = pcircuit_decompose(t, var, polarity)
        rebuilt = recompose_table(dec, dec.f_eq_on, dec.f_neq_on, dec.intersection)
        assert rebuilt == t

    @given(tables(3), st.integers(min_value=0, max_value=2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_recomposition_identity_upper_choice(self, t, var, polarity):
        dec = pcircuit_decompose(t, var, polarity)
        rebuilt = recompose_table(
            dec,
            dec.f_eq_on | dec.f_eq_dc,
            dec.f_neq_on | dec.f_neq_dc,
            dec.intersection,
        )
        assert rebuilt == t

    @given(tables(4))
    @settings(max_examples=25, deadline=None)
    def test_pcircuit_lattice_implements(self, t):
        # best_pcircuit builds and verifies every (var, polarity) split
        result = best_pcircuit(t)
        assert result.lattice.implements(t)

    @given(tables(3))
    @settings(max_examples=15, deadline=None)
    def test_best_pcircuit_implements(self, t):
        result = best_pcircuit(t)
        assert result.lattice.implements(t)

    def test_var_range_check(self):
        with pytest.raises(ValueError):
            pcircuit_decompose(TruthTable.constant(2, True), 5)


class TestDReducible:
    def test_non_reducible_returns_none(self):
        assert synthesize_dreducible(TruthTable.constant(3, True)) is None

    def test_known_reducible(self):
        # on-set inside the even-parity affine space
        t = TruthTable.from_minterms(4, [0b0000, 0b0011, 0b0101, 0b1111])
        result = synthesize_dreducible(t)
        assert result is not None
        assert result.space.dim < 4
        assert result.lattice.implements(t)

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_reducible_lattices_implement(self, minterms):
        t = TruthTable.from_minterms(4, minterms)
        result = synthesize_dreducible(t)
        if result is None:
            return
        assert result.lattice.implements(t)
        assert result.dimension_drop >= 1


class TestOptimal:
    def test_candidate_shapes_sorted_by_area(self):
        shapes = candidate_shapes(7)
        areas = [r * c for r, c in shapes]
        assert areas == sorted(areas)
        assert all(a < 7 for a in areas)

    def test_constants(self):
        res = synthesize_lattice_optimal(TruthTable.constant(2, False))
        assert res.area == 1 and res.proved_optimal

    def test_single_literal(self):
        res = synthesize_lattice_optimal(TruthTable.variable(2, 1))
        assert res.area == 1

    def test_xnor_optimal_2x2(self):
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
        res = synthesize_lattice_optimal(f.on)
        assert res.area == 4 and res.proved_optimal

    def test_and2_needs_two_sites(self):
        f = BooleanFunction.from_expression("x1 x2")
        res = synthesize_lattice_optimal(f.on)
        assert res.area == 2
        assert res.shape == (2, 1)

    def test_or2_single_row(self):
        f = BooleanFunction.from_expression("x1 + x2")
        res = synthesize_lattice_optimal(f.on)
        assert res.area == 2
        assert res.shape == (1, 2)

    @given(nonconstant_tables(3))
    @settings(max_examples=8, deadline=None)
    def test_optimal_implements_and_beats_heuristic(self, t):
        res = synthesize_lattice_optimal(t, conflict_budget=50_000)
        assert res.lattice.implements(t)
        heuristic = fold_lattice(synthesize_lattice_dual(t), t)
        assert res.area <= heuristic.area
