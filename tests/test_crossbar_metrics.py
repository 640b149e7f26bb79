"""Tests for the area/delay/power models."""

import pytest

from repro.boolean import BooleanFunction, TruthTable
from repro.crossbar import (
    compare_styles,
    diode_metrics,
    fet_metrics,
    lattice_metrics,
    Lattice,
)
from repro.crossbar.metrics import WIRE_DELAY_PER_LINE
from repro.synthesis import synthesize_diode, synthesize_fet


def xnor():
    return BooleanFunction.from_expression("x1 x2 + x1' x2'")


class TestDiodeMetrics:
    def test_delay_counts_worst_chain(self):
        f = xnor()
        array = synthesize_diode(f.on)
        metrics = diode_metrics(array)
        wire = WIRE_DELAY_PER_LINE * (array.num_rows + array.num_cols)
        # worst product has 2 literals; +1 for the OR junction
        assert metrics.delay - wire == pytest.approx(3.0)

    def test_static_power_scales_with_rows(self):
        f = xnor()
        array = synthesize_diode(f.on)
        metrics = diode_metrics(array)
        bigger = BooleanFunction.from_expression("x1 x2 + x1' x2' + x1 x3")
        metrics_big = diode_metrics(synthesize_diode(bigger.on))
        assert metrics_big.power > metrics.power

    def test_area_matches_array(self):
        array = synthesize_diode(xnor().on)
        assert diode_metrics(array).area == array.area


class TestFetMetrics:
    def test_no_static_power(self):
        f = xnor()
        fet = synthesize_fet(f.on)
        diode = synthesize_diode(f.on)
        assert fet_metrics(fet).power < diode_metrics(diode).power

    def test_delay_counts_series_stack(self):
        f = xnor()
        fet = synthesize_fet(f.on)
        wire = WIRE_DELAY_PER_LINE * (fet.num_rows + fet.num_cols)
        assert fet_metrics(fet).delay - wire == pytest.approx(2.0)


class TestLatticeMetrics:
    def test_delay_is_worst_best_path(self):
        # straight 2x1 column: every on-input conducts through 2 sites
        lattice = Lattice.from_strings(2, ["x1", "x2"])
        wire = WIRE_DELAY_PER_LINE * (lattice.rows + lattice.cols)
        assert lattice_metrics(lattice).delay - wire == pytest.approx(2.0)

    def test_non_conducting_onset_rejected(self):
        lattice = Lattice.from_strings(1, ["x1"])
        wrong = TruthTable.constant(1, True)
        with pytest.raises(ValueError):
            lattice_metrics(lattice, wrong)

    def test_dogleg_increases_delay(self):
        # Fig. 4 lattice: the x2x3x4x5 product conducts through a 4-site
        # dog-leg, longer than the straight columns.
        lattice = Lattice.from_strings(6, ["x1 x4", "x2 x5", "x3 x6"])
        wire = WIRE_DELAY_PER_LINE * (lattice.rows + lattice.cols)
        assert lattice_metrics(lattice).delay - wire == pytest.approx(4.0)


class TestCompareStyles:
    def test_three_rows_one_per_style(self):
        metrics = compare_styles(xnor().on)
        assert [m.style for m in metrics] == ["diode", "fet", "lattice"]

    def test_lattice_wins_area_on_xnor(self):
        metrics = {m.style: m for m in compare_styles(xnor().on)}
        assert metrics["lattice"].area < metrics["diode"].area
        assert metrics["lattice"].area < metrics["fet"].area
