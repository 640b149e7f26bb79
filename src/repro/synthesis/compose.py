"""The lattice composition algebra of [3] (Altun & Riedel, DAC'10).

Given lattices computing ``f`` and ``g``:

* their **disjunction** ``f + g`` is computed by placing the lattices side
  by side separated by a *padding column of 0s* (the OFF column prevents
  lateral current between the operands);
* their **conjunction** ``f * g`` is computed by stacking them separated by
  a *padding row of 1s* (the ON row lets current re-align on any column
  while still forcing it through both operands).

Height/width mismatches are equalised by appending rows of 1s (harmless
below a lattice: they can only be reached after full traversal) or columns
of 0s (never conduct).  These rules are exactly the ones the paper invokes
for P-circuit recomposition (Section III-B.1).
"""

from __future__ import annotations

from ..boolean.cube import Literal
from ..crossbar.lattice import Lattice, Site


def constant_lattice(n: int, value: bool) -> Lattice:
    """A 1x1 lattice computing a constant."""
    return Lattice(n, [[bool(value)]])


def literal_lattice(n: int, literal: Literal) -> Lattice:
    """A 1x1 lattice computing a single literal."""
    return Lattice(n, [[literal]])


def pad_rows(lattice: Lattice, target_rows: int) -> Lattice:
    """Append rows of 1s at the bottom until the height matches.

    A full ON row below the lattice is reachable only after a complete
    top-to-bottom traversal, so the computed function is unchanged.
    """
    if target_rows < lattice.rows:
        raise ValueError("cannot shrink a lattice by padding")
    if target_rows == lattice.rows:
        return lattice
    rows: list[list[Site]] = [list(row) for row in lattice.sites]
    for _ in range(target_rows - lattice.rows):
        rows.append([True] * lattice.cols)
    return Lattice(lattice.n, rows)


def pad_cols(lattice: Lattice, target_cols: int) -> Lattice:
    """Append columns of 0s on the right until the width matches.

    OFF columns neither conduct nor couple columns, so the function is
    unchanged.
    """
    if target_cols < lattice.cols:
        raise ValueError("cannot shrink a lattice by padding")
    if target_cols == lattice.cols:
        return lattice
    extra = target_cols - lattice.cols
    rows = [list(row) + [False] * extra for row in lattice.sites]
    return Lattice(lattice.n, rows)


def lattice_or(a: Lattice, b: Lattice) -> Lattice:
    """Disjunction: side-by-side with a separating column of 0s."""
    if a.n != b.n:
        raise ValueError("operands live in different variable spaces")
    height = max(a.rows, b.rows)
    a = pad_rows(a, height)
    b = pad_rows(b, height)
    rows: list[list[Site]] = []
    for ra, rb in zip(a.sites, b.sites):
        rows.append(list(ra) + [False] + list(rb))
    return Lattice(a.n, rows)


def lattice_and(a: Lattice, b: Lattice) -> Lattice:
    """Conjunction: stacked with a separating row of 1s."""
    if a.n != b.n:
        raise ValueError("operands live in different variable spaces")
    width = max(a.cols, b.cols)
    a = pad_cols(a, width)
    b = pad_cols(b, width)
    rows: list[list[Site]] = [list(row) for row in a.sites]
    rows.append([True] * width)
    rows.extend(list(row) for row in b.sites)
    return Lattice(a.n, rows)


def lattice_or_many(lattices: list[Lattice]) -> Lattice:
    """Fold :func:`lattice_or` over a non-empty list."""
    if not lattices:
        raise ValueError("need at least one operand")
    result = lattices[0]
    for other in lattices[1:]:
        result = lattice_or(result, other)
    return result


def lattice_and_many(lattices: list[Lattice]) -> Lattice:
    """Fold :func:`lattice_and` over a non-empty list."""
    if not lattices:
        raise ValueError("need at least one operand")
    result = lattices[0]
    for other in lattices[1:]:
        result = lattice_and(result, other)
    return result


def lift_lattice(lattice: Lattice, var: int) -> Lattice:
    """Re-embed a lattice over n-1 variables into an n-variable space.

    Inserts a fresh (unused) variable at index ``var``; literals on
    variables >= var shift up by one.  This is how P-circuit cofactor
    blocks, synthesised in the (n-1)-dimensional sub-space, are placed back
    into the full space before composition.
    """

    def shift(site: Site) -> Site:
        if isinstance(site, Literal) and site.var >= var:
            return Literal(site.var + 1, site.positive)
        return site

    rows = [[shift(site) for site in row] for row in lattice.sites]
    return Lattice(lattice.n + 1, rows)
