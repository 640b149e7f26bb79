"""Post-synthesis lattice reduction (in the spirit of [11], Morgul & Altun).

The dual-based construction is frequently non-minimal (Section III-B).  Two
cheap semantic-preserving post-passes recover part of the gap:

* **row/column folding** — greedily delete whole rows or columns whenever
  the reduced lattice still implements the target;
* **site simplification** — rewrite individual sites to constants (``1``
  preferred: it only *adds* conduction, so when the function is unchanged
  the site's switch and its input wire can be dropped).

Both passes verify against the full truth table, so they are exact for the
function sizes used in the experiments.  A candidate is checked from the
current lattice's site masks with the row, column or site edited
(:func:`repro.xbareval.evaluate_masks`), one flood per candidate (over the
half of the assignments a site rewrite can change); a :class:`Lattice` is
built only from accepted edits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from ..xbareval.lattice_eval import SiteMasks, evaluate_masks, site_masks


def remove_row(lattice: Lattice, row: int) -> Lattice:
    """Delete one row (must leave at least one)."""
    if lattice.rows == 1:
        raise ValueError("cannot remove the only row")
    rows = [list(r) for i, r in enumerate(lattice.sites) if i != row]
    return Lattice(lattice.n, rows)


def remove_col(lattice: Lattice, col: int) -> Lattice:
    """Delete one column (must leave at least one)."""
    if lattice.cols == 1:
        raise ValueError("cannot remove the only column")
    rows = [[s for j, s in enumerate(r) if j != col] for r in lattice.sites]
    return Lattice(lattice.n, rows)


def _computes(n: int, masks: SiteMasks, target: TruthTable) -> bool:
    return bool(np.array_equal(evaluate_masks(n, masks), target.values))


def fold_lattice(lattice: Lattice, target: TruthTable) -> Lattice:
    """Greedy row/column deletion while the target function is preserved.

    Scans rows then columns repeatedly until a fixpoint; each accepted
    deletion is verified exhaustively.
    """
    if target.n != lattice.n:
        raise ValueError("variable space mismatch")
    current = lattice
    masks = site_masks(current)
    improved = True
    while improved:
        improved = False
        r = 0
        while current.rows > 1 and r < current.rows:
            candidate = tuple(np.delete(m, r, axis=0) for m in masks)
            if _computes(current.n, candidate, target):
                current, masks = remove_row(current, r), candidate
                improved = True
            else:
                r += 1
        c = 0
        while current.cols > 1 and c < current.cols:
            candidate = tuple(np.delete(m, c, axis=1) for m in masks)
            if _computes(current.n, candidate, target):
                current, masks = remove_col(current, c), candidate
                improved = True
            else:
                c += 1
    return current


def simplify_sites(lattice: Lattice, target: TruthTable) -> Lattice:
    """Replace sites with constants when the function is preserved.

    Tries ``1`` first (removes a switch), then ``0`` (documents that the
    site is dead).  Literal sites that survive both substitutions are kept.

    Forcing a literal site to a constant only changes the outputs where
    the literal differs from it, so a candidate floods just those
    assignments, half of them.  One flood on entry records where the
    input lattice already disagrees with the target; a candidate that
    cannot change all of those outputs is rejected without a flood.
    """
    if target.n != lattice.n:
        raise ValueError("variable space mismatch")
    n = lattice.n
    sites = [list(row) for row in lattice.sites]
    var, positive, is_literal, const = site_masks(lattice)
    is_literal, const = is_literal.copy(), const.copy()
    masks = (var, positive, is_literal, const)
    wanted = target.values
    wrong = evaluate_masks(n, masks) != wanted
    assignments = np.arange(1 << n)
    # by_bit[v][b]: the assignments whose bit v is b.
    by_bit = [(np.flatnonzero((assignments >> v) & 1 == 0),
               np.flatnonzero((assignments >> v) & 1 == 1)) for v in range(n)]
    for r, row in enumerate(sites):
        for c, site in enumerate(row):
            if site is True or site is False:
                continue
            is_literal[r, c] = False
            for replacement in (True, False):
                # The literal already equals the replacement where its
                # variable's bit is ``positive == replacement``; those
                # outputs stay as they are.
                kept = by_bit[site.var][site.positive == replacement]
                changed = by_bit[site.var][site.positive != replacement]
                if wrong[kept].any():
                    continue
                const[r, c] = replacement
                if np.array_equal(evaluate_masks(n, masks, changed),
                                  wanted[changed]):
                    row[c] = replacement
                    wrong[:] = False
                    break
            else:
                is_literal[r, c], const[r, c] = True, False
    return Lattice(lattice.n, sites)


@dataclass(frozen=True)
class OptimizationReport:
    """Before/after shapes for the folding experiment rows."""

    original_shape: tuple[int, int]
    folded_shape: tuple[int, int]
    original_area: int
    folded_area: int
    lattice: Lattice

    @property
    def area_saving(self) -> int:
        return self.original_area - self.folded_area


def optimize_lattice(lattice: Lattice,
                     target: TruthTable) -> OptimizationReport:
    """Fold, simplify sites and fold again, with verification."""
    folded = fold_lattice(lattice, target)
    folded = simplify_sites(folded, target)
    folded = fold_lattice(folded, target)
    if not folded.implements(target):
        raise RuntimeError("optimization broke the lattice (internal bug)")
    return OptimizationReport(
        original_shape=lattice.shape,
        folded_shape=folded.shape,
        original_area=lattice.area,
        folded_area=folded.area,
        lattice=folded,
    )
