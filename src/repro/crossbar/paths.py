"""Path enumeration and percolation connectivity on lattice grids.

Two views of four-terminal lattice semantics (Section III-B, Fig. 4):

* *operational*: for a concrete input, a site conducts or not, and the
  lattice output is whether the top edge is 4-connected to the bottom edge
  (:func:`top_bottom_connected`);
* *symbolic*: the implemented function is the OR over all self-avoiding
  top-to-bottom paths of the AND of the site literals along the path
  (:func:`enumerate_top_bottom_paths`).

The classical site-percolation duality links success and failure: the top
and bottom are disconnected exactly when an 8-connected path of OFF sites
joins the left and right edges (:func:`left_right_blocked_8`).  The duality
is both a test invariant and the off-set witness in the SAT encoding of
optimal lattice synthesis.

The scalar functions here are the **bit-exact references** for the batched
flood :func:`repro.xbareval.top_bottom_connected_batch`, which answers the
top-bottom question for whole ``(B, R, C)`` batches per call; hot paths
should go through it.  These stay for single-grid checks and the property
suite (``tests/test_xbareval.py``), which also asserts the duality: the
batched flood equals ``not left_right_blocked_8`` grid for grid.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .geometry import DisjointSet, neighbors4, neighbors8

Grid = Sequence[Sequence[bool]]


def top_bottom_connected(grid: Grid) -> bool:
    """True iff some ON site in row 0 is 4-connected to an ON site in the
    last row through ON sites."""
    rows = len(grid)
    if rows == 0:
        return False
    cols = len(grid[0])
    if cols == 0:
        return False
    top = rows * cols
    bottom = top + 1
    ds = DisjointSet(rows * cols + 2)
    for r in range(rows):
        for c in range(cols):
            if not grid[r][c]:
                continue
            idx = r * cols + c
            if r == 0:
                ds.union(idx, top)
            if r == rows - 1:
                ds.union(idx, bottom)
            # union with left and up neighbours only (each pair once)
            if c > 0 and grid[r][c - 1]:
                ds.union(idx, idx - 1)
            if r > 0 and grid[r - 1][c]:
                ds.union(idx, idx - cols)
    return ds.connected(top, bottom)


def left_right_blocked_8(grid: Grid) -> bool:
    """True iff an 8-connected path of OFF sites joins the left and right
    edges (the percolation dual of a top-bottom ON disconnection)."""
    rows = len(grid)
    if rows == 0:
        return True
    cols = len(grid[0])
    if cols == 0:
        return True
    left = rows * cols
    right = left + 1
    ds = DisjointSet(rows * cols + 2)
    for r in range(rows):
        for c in range(cols):
            if grid[r][c]:
                continue
            idx = r * cols + c
            if c == 0:
                ds.union(idx, left)
            if c == cols - 1:
                ds.union(idx, right)
            for nr, nc in neighbors8(rows, cols, r, c):
                if (nr, nc) < (r, c) and not grid[nr][nc]:
                    ds.union(idx, nr * cols + nc)
    return ds.connected(left, right)


def enumerate_top_bottom_paths(rows: int, cols: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All self-avoiding 4-adjacent walks from the top row to the bottom row.

    Paths may wander upward; the count grows quickly, so callers should keep
    grids small (the exact-synthesis regime of [9]).

    Yields tuples of (row, col) sites, starting in row 0, ending in the last
    row, with no repeated site.  Only *minimal* paths are yielded: a path
    stops at its first bottom-row contact and starts at its only top-row
    contact (prefixes/suffixes riding along an edge row would be redundant
    for the OR-of-ANDs semantics).
    """
    if rows <= 0 or cols <= 0:
        return
    for start_col in range(cols):
        stack: list[tuple[tuple[int, int], ...]] = [((0, start_col),)]
        while stack:
            path = stack.pop()
            r, c = path[-1]
            if r == rows - 1:
                yield path
                continue
            visited = set(path)
            for nr, nc in neighbors4(rows, cols, r, c):
                if (nr, nc) in visited:
                    continue
                # Re-entering the top row is redundant: the suffix starting
                # at that top site is enumerated on its own and its product
                # absorbs this detour's product.
                if nr == 0:
                    continue
                stack.append(path + ((nr, nc),))


def count_top_bottom_paths(rows: int, cols: int) -> int:
    """Number of self-avoiding top-bottom paths (small grids only)."""
    return sum(1 for _ in enumerate_top_bottom_paths(rows, cols))


def enumerate_left_right_paths_8(rows: int, cols: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All self-avoiding 8-adjacent walks from the left column to the right
    column (the blocking-path witnesses of the duality)."""
    if rows <= 0 or cols <= 0:
        return
    for start_row in range(rows):
        stack: list[tuple[tuple[int, int], ...]] = [((start_row, 0),)]
        while stack:
            path = stack.pop()
            r, c = path[-1]
            if c == cols - 1:
                yield path
                continue
            visited = set(path)
            for nr, nc in neighbors8(rows, cols, r, c):
                if (nr, nc) in visited:
                    continue
                # Symmetric pruning: re-entering the left column is redundant.
                if nc == 0:
                    continue
                stack.append(path + ((nr, nc),))


def percolation_duality_holds(grid: Grid) -> bool:
    """Check the duality on one grid: blocked <=> dual 8-path exists."""
    return top_bottom_connected(grid) == (not left_right_blocked_8(grid))
