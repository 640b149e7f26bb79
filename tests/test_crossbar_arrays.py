"""Tests for the diode, FET and lattice array models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import BooleanFunction, Cover, Literal, TruthTable, minimize
from repro.crossbar import (
    DiodeCrossbar,
    FetCrossbar,
    Lattice,
    diode_size_formula,
    fet_size_formula,
)


def tables(n=4):
    return st.integers(min_value=1, max_value=(1 << (1 << n)) - 2).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


def complementary(xbar):
    """Exactly one plane conducts for every fault-free assignment."""
    return all(xbar.drive_state(m) in ("0", "1") for m in range(1 << xbar.n))


class TestDiodeCrossbar:
    def test_paper_example_size(self):
        # f = x1 x2 + x1' x2' -> 2 x 5 diode array (Section III-A)
        cover = Cover.from_strings(["11", "00"])
        xbar = DiodeCrossbar(cover)
        assert xbar.shape == (2, 5)
        assert xbar.shape == diode_size_formula(cover)

    def test_semantics_match_cover(self):
        cover = Cover.from_strings(["1-0", "011"])
        xbar = DiodeCrossbar(cover)
        assert xbar.to_truth_table() == cover.to_truth_table()

    def test_rejects_empty_cover(self):
        with pytest.raises(ValueError):
            DiodeCrossbar(Cover.empty(3))

    def test_programmed_crosspoints(self):
        cover = Cover.from_strings(["11", "00"])
        xbar = DiodeCrossbar(cover)
        # 4 literal diodes + 2 output junctions
        assert xbar.num_crosspoints_programmed == 6

    def test_render_contains_marks(self):
        cover = Cover.from_strings(["11", "00"])
        text = xbar_render = DiodeCrossbar(cover).render()
        assert "X" in text and "out" in text

    def test_connection_override_stuck_open(self):
        # dropping the diode for x1 in product x1&x2 makes the row read x2
        cover = Cover.from_strings(["11"])
        xbar = DiodeCrossbar(cover)

        def stuck_open(r, c, programmed):
            return False if (r, c) == (0, 0) else programmed

        assert xbar.evaluate(0b10, stuck_open)  # x2 alone now drives the row
        assert not xbar.evaluate(0b10)

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_implements_minimized_function(self, t):
        cover = minimize(t)
        if cover.num_products == 0:
            return
        xbar = DiodeCrossbar(cover)
        assert xbar.implements(t)
        assert xbar.shape == diode_size_formula(cover)


class TestFetCrossbar:
    def test_paper_example_size(self):
        # f = x1 x2 + x1' x2' and fD = same shape -> 4 x 4 (Section III-A)
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
        xbar = FetCrossbar(f.minimized_cover, f.minimized_dual_cover)
        assert xbar.shape == (4, 4)
        assert xbar.shape == fet_size_formula(f.minimized_cover, f.minimized_dual_cover)

    def test_inverter(self):
        f = BooleanFunction.from_expression("x1'")
        xbar = FetCrossbar(f.minimized_cover, f.minimized_dual_cover)
        assert xbar.shape == (1, 2)
        assert xbar.evaluate(0b0) and not xbar.evaluate(0b1)

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            FetCrossbar(Cover.empty(2), Cover.tautology(2))

    def test_complementary_invariant(self):
        f = BooleanFunction.from_expression("x1 x2 + x3")
        xbar = FetCrossbar(f.minimized_cover, f.minimized_dual_cover)
        assert complementary(xbar)

    def test_fault_can_short_the_output(self):
        f = BooleanFunction.from_expression("x1")
        xbar = FetCrossbar(f.minimized_cover, f.minimized_dual_cover)

        def stuck_conducting(plane, col, row, conducting):
            return True if plane == "pulldown" else conducting

        assert xbar.drive_state(0b1, stuck_conducting) == "short"

    def test_render(self):
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
        text = FetCrossbar(f.minimized_cover, f.minimized_dual_cover).render()
        assert "P" in text and "N" in text

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_implements_and_complementary(self, t):
        f_cover = minimize(t)
        d_cover = minimize(t.dual())
        if not f_cover.num_products or not d_cover.num_products:
            return
        xbar = FetCrossbar(f_cover, d_cover)
        assert xbar.implements(t)
        assert complementary(xbar)


class TestLattice:
    def test_fig4_lattice(self):
        """The worked example of Fig. 4: a 3x2 lattice computing
        x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6 (absorbed terms included)."""
        lattice = Lattice.from_strings(6, ["x1 x4", "x2 x5", "x3 x6"])
        f = BooleanFunction.from_expression(
            "x1 x2 x3 + x1 x2 x5 x6 + x2 x3 x4 x5 + x4 x5 x6"
        )
        assert lattice.implements(f.on)
        assert lattice.shape == (3, 2) and lattice.area == 6

    def test_path_cover_matches_percolation(self):
        lattice = Lattice.from_strings(6, ["x1 x4", "x2 x5", "x3 x6"])
        assert lattice.path_cover().to_truth_table() == lattice.to_truth_table()

    def test_constant_sites(self):
        # column of 1s always conducts; grid of 0s never does
        ones = Lattice(2, [[True], [True]])
        assert ones.to_truth_table().is_tautology()
        zeros = Lattice(2, [[False], [False]])
        assert zeros.to_truth_table().is_contradiction()

    def test_single_site(self):
        lattice = Lattice(1, [[Literal(0, True)]])
        assert lattice.evaluate(1) and not lattice.evaluate(0)

    def test_contradictory_column_never_conducts(self):
        lattice = Lattice.from_strings(1, ["x1", "x1'"])
        assert lattice.to_truth_table().is_contradiction()

    def test_xnor_2x2(self):
        # Section III-B: f = x1 x2 + x1' x2' fits a 2x2 lattice
        lattice = Lattice.from_strings(2, ["x1 x1'", "x2 x2'"])
        f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
        assert lattice.implements(f.on)

    def test_validation(self):
        with pytest.raises(ValueError):
            Lattice(2, [])
        with pytest.raises(ValueError):
            Lattice(2, [[True], [True, False]])
        with pytest.raises(ValueError):
            Lattice(1, [[Literal(3, True)]])
        with pytest.raises(TypeError):
            Lattice(1, [["x1"]])

    def test_site_override_stuck(self):
        lattice = Lattice.from_strings(2, ["x1", "x2"])

        def stuck_on(r, c, value):
            return True

        assert lattice.evaluate(0, stuck_on)
        assert not lattice.evaluate(0)

    def test_with_site_and_map_sites(self):
        lattice = Lattice.from_strings(2, ["x1", "x2"])
        patched = lattice.with_site(0, 0, True)
        assert patched.site(0, 0) is True
        flipped = lattice.map_sites(
            lambda r, c, s: s.negated() if isinstance(s, Literal) else s
        )
        assert flipped.site(1, 0) == Literal(1, False)

    def test_render(self):
        text = Lattice.from_strings(2, ["x1 x2", "x1' 1"]).render()
        assert "TOP" in text and "BOTTOM" in text and "x1'" in text
