"""Tests for GF(2) linear algebra and D-reducible decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import (
    TruthTable,
    affine_hull,
    d_reduction,
    embed_projection,
    gf2_kernel,
    gf2_row_reduce,
    onset_affine_hull,
    parity_table,
    project_onto,
)


class TestGf2:
    def test_row_reduce_rank(self):
        rows = [0b011, 0b101, 0b110]  # third = sum of first two
        reduced, pivots = gf2_row_reduce(rows, 3)
        assert len(reduced) == 2
        assert pivots == sorted(pivots)

    def test_row_reduce_rref_property(self):
        rows = [0b1101, 0b0111, 0b1010]
        reduced, pivots = gf2_row_reduce(rows, 4)
        for i, (row, pivot) in enumerate(zip(reduced, pivots)):
            assert (row >> pivot) & 1
            for j, other in enumerate(reduced):
                if i != j:
                    assert not (other >> pivot) & 1

    def test_kernel_orthogonality(self):
        rows = [0b011, 0b110]
        kernel = gf2_kernel(rows, 3)
        assert len(kernel) == 1
        for c in kernel:
            for r in rows:
                assert bin(c & r).count("1") % 2 == 0

    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=6))
    def test_rank_nullity(self, rows):
        rank = len(gf2_row_reduce(rows, 5)[0])
        kernel = gf2_kernel(rows, 5)
        assert rank + len(kernel) == 5

    def test_parity_table(self):
        t = parity_table(3, 0b101, rhs=True)
        for m in range(8):
            assert t.evaluate(m) == (bin(m & 0b101).count("1") % 2 == 1)


class TestAffineHull:
    def test_single_point_is_zero_dim(self):
        space = affine_hull([0b101], 3)
        assert space.dim == 0
        assert space.points() == [0b101]

    def test_two_points_one_dim(self):
        space = affine_hull([0b000, 0b011], 3)
        assert space.dim == 1
        assert space.points() == [0b000, 0b011]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            affine_hull([], 3)

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=8))
    def test_hull_contains_points_and_is_affine(self, points):
        space = affine_hull(points, 4)
        for p in points:
            assert space.contains(p)
        pts = space.points()
        assert len(pts) == 1 << space.dim
        # affine closure: a ^ b ^ c stays inside
        sample = pts[: min(len(pts), 4)]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert (a ^ b ^ c) in set(pts)

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=8))
    def test_characteristic_table_matches_points(self, points):
        space = affine_hull(points, 4)
        chi = space.characteristic_table()
        assert sorted(chi.minterms()) == space.points()

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
    def test_complete_point_consistency(self, points):
        space = affine_hull(points, 4)
        for t in range(1 << space.dim):
            p = space.complete_point(t)
            assert space.contains(p)
        # distinct parameter values give distinct points
        completed = {space.complete_point(t) for t in range(1 << space.dim)}
        assert len(completed) == 1 << space.dim


class TestDReduction:
    def test_affine_function_is_reducible(self):
        # on-set = even-parity points: lives in affine space x0^x1^x2 = 0
        t = TruthTable.from_callable(3, lambda m: bin(m).count("1") % 2 == 0)
        space = onset_affine_hull(t)
        assert space.dim == 2
        assert d_reduction(t) is not None

    def test_full_space_not_reducible(self):
        t = TruthTable.constant(3, True)
        assert d_reduction(t) is None

    def test_constant_zero_not_reducible(self):
        assert d_reduction(TruthTable.constant(3, False)) is None

    def test_known_decomposition(self):
        # f = x1' x2 x3 + x1 x2' x3: on-set {0b110, 0b101} -- both have
        # x3=1 and x1^x2=1, a 1-dimensional affine space.
        t = TruthTable.from_minterms(3, [0b110, 0b101])
        result = d_reduction(t)
        assert result is not None
        space, projected = result
        assert space.dim == 1
        chi = space.characteristic_table()
        embedded = embed_projection(projected, space)
        assert (chi & embedded) == t

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_reduction_recomposes(self, minterms):
        t = TruthTable.from_minterms(4, minterms)
        result = d_reduction(t)
        if result is None:
            return
        space, projected = result
        chi = space.characteristic_table()
        embedded = embed_projection(projected, space)
        assert (chi & embedded) == t

    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_projection_pointwise(self, minterms):
        t = TruthTable.from_minterms(4, minterms)
        space = onset_affine_hull(t)
        projected = project_onto(t, space)
        for param in range(1 << space.dim):
            assert projected.evaluate(param) == t.evaluate(space.complete_point(param))
