"""GF(2) linear algebra, affine spaces and D-reducible functions.

A function ``f`` is *D-reducible* ([4] in the paper) when its on-set is
contained in an affine space ``A`` strictly smaller than the whole Boolean
space.  Then ``f = chi_A & f_A`` where ``chi_A`` is the characteristic
function of ``A`` and ``f_A`` the projection of ``f`` onto ``A``; both
factors can be synthesised as separate lattices and recomposed with the
AND rule (Section III-B.2).

Vectors over GF(2) are stored as Python ints (bit ``i`` = coordinate ``i``);
a linear constraint is a pair ``(mask, rhs)`` meaning
``XOR of x_i for i in mask == rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bitops import popcount_u64
from .truthtable import TruthTable


# ----------------------------------------------------------------------
# Core GF(2) routines (int-mask rows)
# ----------------------------------------------------------------------
def gf2_row_reduce(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2).

    Args:
        rows: row vectors as bit masks (bit i = column i).
        n: number of columns.

    Returns:
        ``(reduced_rows, pivot_columns)`` with one reduced row per pivot.
    """
    reduced: list[int] = []
    pivots: list[int] = []
    work = [r for r in rows if r]
    for col in range(n):
        bit = 1 << col
        pivot_row = None
        for row in work:
            if row & bit:
                pivot_row = row
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        work = [row ^ pivot_row if row & bit else row for row in work]
        work = [row for row in work if row]
        reduced = [row ^ pivot_row if row & bit else row for row in reduced]
        reduced.append(pivot_row)
        pivots.append(col)
    return reduced, pivots


def gf2_kernel(rows: Sequence[int], n: int) -> list[int]:
    """Basis of the kernel ``{c : row . c = 0 for every row}``.

    The dot product is over GF(2); result vectors are bit masks.
    """
    reduced, pivots = gf2_row_reduce(rows, n)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    kernel: list[int] = []
    for free in free_cols:
        vec = 1 << free
        for row, pivot in zip(reduced, pivots):
            if (row >> free) & 1:
                vec |= 1 << pivot
        kernel.append(vec)
    return kernel


def parity_table(n: int, mask: int, rhs: bool = False) -> TruthTable:
    """Truth table of the linear constraint ``XOR(x_i : i in mask) == rhs``."""
    idx = np.arange(1 << n, dtype=np.uint64)
    par = popcount_u64(idx & np.uint64(mask)) & 1
    values = par == (1 if rhs else 0)
    return TruthTable(n, values)


# ----------------------------------------------------------------------
# Affine spaces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AffineSpace:
    """An affine subspace ``offset + span(basis)`` of GF(2)^n.

    ``constraints`` is the equivalent implicit form: the space is exactly
    the set of points satisfying every ``(mask, rhs)`` parity constraint.
    """

    n: int
    offset: int
    basis: tuple[int, ...]
    constraints: tuple[tuple[int, bool], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, point: int) -> bool:
        """Membership test via the parity constraints."""
        for mask, rhs in self.constraints:
            if (bin(point & mask).count("1") & 1) != int(rhs):
                return False
        return True

    def points(self) -> list[int]:
        """Enumerate all points of the space."""
        result = []
        for combo in range(1 << self.dim):
            p = self.offset
            for j, vec in enumerate(self.basis):
                if (combo >> j) & 1:
                    p ^= vec
            result.append(p)
        return sorted(result)

    def characteristic_table(self) -> TruthTable:
        """Truth table of ``chi_A`` (vectorised parity checks)."""
        idx = np.arange(1 << self.n, dtype=np.uint64)
        values = np.ones(1 << self.n, dtype=bool)
        for mask, rhs in self.constraints:
            par = popcount_u64(idx & np.uint64(mask)) & 1
            values &= par == (1 if rhs else 0)
        return TruthTable(self.n, values)

    def free_variables(self) -> list[int]:
        """Variables that parameterise the space (non-pivot columns).

        After row-reducing the constraint matrix, each pivot variable is an
        affine function of the free ones; the free variables index the
        ``dim`` coordinates of the projected function ``f_A``.
        """
        rows = [mask for mask, _ in self.constraints]
        _, pivots = gf2_row_reduce(rows, self.n)
        pivot_set = set(pivots)
        free = [v for v in range(self.n) if v not in pivot_set]
        # The space has dim = n - #constraints(rank); free vars match dim.
        return free[: self.dim] if len(free) > self.dim else free

    def complete_point(self, free_assignment: int) -> int:
        """The unique point of A whose free variables match the assignment.

        ``free_assignment`` packs the free variables' values in the order
        returned by :meth:`free_variables` (bit j = value of j-th free var).
        """
        rows = [mask for mask, _ in self.constraints]
        rhs_map = {mask: rhs for mask, rhs in self.constraints}
        reduced, pivots = gf2_row_reduce(rows, self.n)
        # Recompute reduced right-hand sides by tracking the row operations:
        # easier to resolve each reduced row's rhs from a known member point.
        free_vars = self.free_variables()
        point = 0
        for j, var in enumerate(free_vars):
            if (free_assignment >> j) & 1:
                point |= 1 << var
        # Solve pivot variables from reduced system using offset as witness.
        for row, pivot in zip(reduced, pivots):
            rhs = bin(self.offset & row).count("1") & 1
            acc = bin(point & row & ~(1 << pivot)).count("1") & 1
            if acc != rhs:
                point |= 1 << pivot
        return point


def affine_hull(points: Iterable[int], n: int) -> AffineSpace:
    """Smallest affine space containing the given points.

    Raises:
        ValueError: when ``points`` is empty (no affine hull exists).
    """
    point_list = sorted(set(points))
    if not point_list:
        raise ValueError("affine hull of an empty set is undefined")
    offset = point_list[0]
    vectors = [p ^ offset for p in point_list[1:]]
    basis, _ = gf2_row_reduce(vectors, n)
    constraint_masks = gf2_kernel(basis, n)
    constraints = tuple(
        (mask, bool(bin(offset & mask).count("1") & 1)) for mask in constraint_masks
    )
    return AffineSpace(n=n, offset=offset, basis=tuple(basis), constraints=constraints)


# ----------------------------------------------------------------------
# D-reducibility
# ----------------------------------------------------------------------
def onset_affine_hull(table: TruthTable) -> AffineSpace | None:
    """Affine hull of the on-set, or ``None`` for the constant-0 function."""
    minterms = list(table.minterms())
    if not minterms:
        return None
    return affine_hull(minterms, table.n)


def project_onto(table: TruthTable, space: AffineSpace) -> TruthTable:
    """Project ``f`` onto ``A`` as a function of the free variables.

    Returns a table over ``space.dim`` variables; entry ``t`` is the value
    of ``f`` at the unique point of ``A`` whose free variables equal ``t``.
    """
    dim = space.dim
    values = []
    for t in range(1 << dim):
        point = space.complete_point(t)
        values.append(table.evaluate(point))
    return TruthTable(dim, values)


def embed_projection(projected: TruthTable, space: AffineSpace) -> TruthTable:
    """Extend ``f_A`` back to n variables by reading only the free variables.

    The embedded function ``g(x) = f_A(free(x))`` satisfies
    ``chi_A & g == f`` whenever ``projected == project_onto(f, A)`` and the
    on-set of ``f`` lies inside ``A``.
    """
    free_vars = space.free_variables()
    idx = np.arange(1 << space.n, dtype=np.int64)
    coords = np.zeros(1 << space.n, dtype=np.int64)
    for j, var in enumerate(free_vars):
        coords |= ((idx >> var) & 1) << j
    return TruthTable(space.n, projected.values[coords])


def d_reduction(table: TruthTable) -> tuple[AffineSpace, TruthTable] | None:
    """Decompose ``f = chi_A & f_A`` when ``f`` is D-reducible.

    Returns ``(A, f_A)`` or ``None`` when the function is constant-0 or its
    hull is the whole space (not reducible).
    """
    hull = onset_affine_hull(table)
    if hull is None or hull.dim >= table.n:
        return None
    return hull, project_onto(table, hull)
