"""Tests for the lattice composition algebra (padding rules of [3])."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import Literal, TruthTable
from repro.crossbar import Lattice
from repro.synthesis import (
    constant_lattice,
    lattice_and,
    lattice_and_many,
    lattice_or,
    lattice_or_many,
    lift_lattice,
    literal_lattice,
    pad_cols,
    pad_rows,
)

N = 3


@st.composite
def small_lattices(draw, n=N, max_dim=3):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    sites = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            kind = draw(st.integers(min_value=0, max_value=2 * n + 1))
            if kind == 2 * n:
                row.append(True)
            elif kind == 2 * n + 1:
                row.append(False)
            else:
                row.append(Literal(kind // 2, kind % 2 == 0))
        sites.append(row)
    return Lattice(n, sites)


class TestPrimitives:
    def test_constant_lattices(self):
        assert constant_lattice(2, True).to_truth_table().is_tautology()
        assert constant_lattice(2, False).to_truth_table().is_contradiction()

    def test_literal_lattice(self):
        lat = literal_lattice(3, Literal(1, False))
        assert lat.to_truth_table() == ~TruthTable.variable(3, 1)

class TestPadding:
    @given(small_lattices(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_pad_rows_preserves_function(self, lattice, extra):
        padded = pad_rows(lattice, lattice.rows + extra)
        assert padded.rows == lattice.rows + extra
        assert padded.to_truth_table() == lattice.to_truth_table()

    @given(small_lattices(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_pad_cols_preserves_function(self, lattice, extra):
        padded = pad_cols(lattice, lattice.cols + extra)
        assert padded.cols == lattice.cols + extra
        assert padded.to_truth_table() == lattice.to_truth_table()

    def test_pad_cannot_shrink(self):
        lat = constant_lattice(2, True)
        with pytest.raises(ValueError):
            pad_rows(lat, 0)
        with pytest.raises(ValueError):
            pad_cols(lat, 0)


class TestComposition:
    @given(small_lattices(), small_lattices())
    @settings(max_examples=80, deadline=None)
    def test_or_semantics(self, a, b):
        composed = lattice_or(a, b)
        assert composed.to_truth_table() == (a.to_truth_table() | b.to_truth_table())
        assert composed.cols == a.cols + b.cols + 1
        assert composed.rows == max(a.rows, b.rows)

    @given(small_lattices(), small_lattices())
    @settings(max_examples=80, deadline=None)
    def test_and_semantics(self, a, b):
        composed = lattice_and(a, b)
        assert composed.to_truth_table() == (a.to_truth_table() & b.to_truth_table())
        assert composed.rows == a.rows + b.rows + 1
        assert composed.cols == max(a.cols, b.cols)

    def test_or_requires_separator(self):
        # Without the 0-column, lateral crossings change the function: glueing
        # x1x2x3 and x4x5x6 columns directly yields exactly the Fig. 4
        # lattice, which computes two extra dog-leg products.
        a = Lattice.from_strings(6, ["x1", "x2", "x3"])
        b = Lattice.from_strings(6, ["x4", "x5", "x6"])
        glued = Lattice(6, [list(ra) + list(rb)
                            for ra, rb in zip(a.sites, b.sites)])
        proper = lattice_or(a, b)
        assert proper.to_truth_table() == (a.to_truth_table() | b.to_truth_table())
        assert glued.to_truth_table() != proper.to_truth_table()

    @given(st.lists(small_lattices(), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_many_fold(self, lattices):
        or_all = lattice_or_many(lattices)
        and_all = lattice_and_many(lattices)
        expect_or = lattices[0].to_truth_table()
        expect_and = lattices[0].to_truth_table()
        for lat in lattices[1:]:
            expect_or |= lat.to_truth_table()
            expect_and &= lat.to_truth_table()
        assert or_all.to_truth_table() == expect_or
        assert and_all.to_truth_table() == expect_and

    def test_many_requires_nonempty(self):
        with pytest.raises(ValueError):
            lattice_or_many([])
        with pytest.raises(ValueError):
            lattice_and_many([])

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            lattice_or(constant_lattice(2, True), constant_lattice(3, True))


class TestLift:
    @given(small_lattices(), st.integers(min_value=0, max_value=N))
    @settings(max_examples=60, deadline=None)
    def test_lift_ignores_new_variable(self, lattice, var):
        lifted = lift_lattice(lattice, var)
        assert lifted.n == lattice.n + 1
        base = lattice.to_truth_table()
        lifted_table = lifted.to_truth_table()
        for m in range(1 << lifted.n):
            low = m & ((1 << var) - 1)
            high = (m >> (var + 1)) << var
            assert lifted_table.evaluate(m) == base.evaluate(high | low)
