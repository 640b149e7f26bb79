"""Tests for grid geometry, percolation and path enumeration."""

import random

from hypothesis import given, settings, strategies as st

from repro.crossbar import (
    DisjointSet,
    count_top_bottom_paths,
    enumerate_left_right_paths_8,
    enumerate_top_bottom_paths,
    left_right_blocked_8,
    neighbors4,
    neighbors8,
    percolation_duality_holds,
    top_bottom_connected,
)


class TestGeometry:
    def test_neighbors4_corner(self):
        assert sorted(neighbors4(3, 3, 0, 0)) == [(0, 1), (1, 0)]

    def test_neighbors8_center(self):
        assert len(list(neighbors8(3, 3, 1, 1))) == 8

    def test_disjoint_set(self):
        ds = DisjointSet(5)
        ds.union(0, 1)
        ds.union(3, 4)
        assert ds.connected(0, 1)
        assert not ds.connected(1, 3)
        ds.union(1, 3)
        assert ds.connected(0, 4)


class TestPercolation:
    def test_full_grid_connected(self):
        grid = [[True] * 3 for _ in range(3)]
        assert top_bottom_connected(grid)

    def test_empty_grid_disconnected(self):
        grid = [[False] * 3 for _ in range(3)]
        assert not top_bottom_connected(grid)
        assert left_right_blocked_8(grid)

    def test_single_column_path(self):
        grid = [
            [False, True, False],
            [False, True, False],
            [False, True, False],
        ]
        assert top_bottom_connected(grid)

    def test_diagonal_does_not_conduct(self):
        # 4-adjacency: a diagonal chain of ON sites does not connect.
        grid = [
            [True, False, False],
            [False, True, False],
            [False, False, True],
        ]
        assert not top_bottom_connected(grid)
        # ...but its OFF complement blocks via 8-adjacency
        assert left_right_blocked_8(grid)

    def test_snake_path(self):
        grid = [
            [True, True, False],
            [False, True, False],
            [False, True, True],
        ]
        assert top_bottom_connected(grid)

    def test_one_by_one(self):
        assert top_bottom_connected([[True]])
        assert not top_bottom_connected([[False]])

    @given(st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=300)
    def test_percolation_duality(self, grid):
        assert percolation_duality_holds(grid)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
           st.integers())
    @settings(max_examples=100)
    def test_percolation_duality_rectangles(self, rows, cols, seed):
        rng = random.Random(seed)
        grid = [[rng.random() < 0.5 for _ in range(cols)] for _ in range(rows)]
        assert percolation_duality_holds(grid)


class TestPathEnumeration:
    def test_single_row_paths(self):
        paths = list(enumerate_top_bottom_paths(1, 3))
        assert sorted(paths) == [((0, 0),), ((0, 1),), ((0, 2),)]

    def test_2x2_paths(self):
        # Only the two straight columns survive pruning: a path stops at its
        # first bottom-row contact, so dog-legs along the bottom row (whose
        # products would be absorbed anyway) are never emitted.
        paths = set(enumerate_top_bottom_paths(2, 2))
        assert paths == {((0, 0), (1, 0)), ((0, 1), (1, 1))}
        assert count_top_bottom_paths(2, 2) == 2

    def test_3x2_dogleg_present(self):
        # In a 3x2 grid the mid-row lateral dog-leg is a genuine new path.
        paths = set(enumerate_top_bottom_paths(3, 2))
        assert ((0, 0), (1, 0), (1, 1), (2, 1)) in paths

    def test_column_counts_3x2(self):
        # 3x2 grid: enumerate and sanity-check every path is valid.
        paths = list(enumerate_top_bottom_paths(3, 2))
        for path in paths:
            assert path[0][0] == 0 and path[-1][0] == 2
            assert len(set(path)) == len(path)
            for (r1, c1), (r2, c2) in zip(path, path[1:]):
                assert abs(r1 - r2) + abs(c1 - c2) == 1
                assert r2 != 0  # pruning: never re-enter the top row
            # only the final site touches the bottom row
            assert all(r != 2 for r, _ in path[:-1])

    def test_paths_witness_connectivity(self):
        # for random grids: top-bottom connected iff some enumerated path
        # is fully ON (path semantics == percolation semantics)
        rng = random.Random(7)
        paths = list(enumerate_top_bottom_paths(3, 3))
        for _ in range(80):
            grid = [[rng.random() < 0.55 for _ in range(3)] for _ in range(3)]
            via_paths = any(
                all(grid[r][c] for r, c in path) for path in paths
            )
            assert via_paths == top_bottom_connected(grid)

    def test_lr_paths_witness_blocking(self):
        rng = random.Random(11)
        paths = list(enumerate_left_right_paths_8(3, 3))
        for _ in range(80):
            grid = [[rng.random() < 0.5 for _ in range(3)] for _ in range(3)]
            via_paths = any(
                all(not grid[r][c] for r, c in path) for path in paths
            )
            assert via_paths == left_right_blocked_8(grid)

    def test_empty_grid_yields_nothing(self):
        assert list(enumerate_top_bottom_paths(0, 3)) == []
        assert list(enumerate_left_right_paths_8(3, 0)) == []
