"""Defect-aware mapping of switching lattices onto defective fabrics.

BISM (:mod:`repro.reliability.bism`) places *two-terminal* programs.  The
four-terminal story is richer because lattice sites are reprogrammable
literal holders with a useful asymmetry:

* a **stuck-OPEN** site can still host any site whose literal may be 0 —
  in fact it exactly realises the constant-0 padding site;
* a **stuck-CLOSED** site exactly realises the constant-1 padding site
  (the OR/AND separators of the composition algebra!), and can also host
  nothing else;
* an OK site hosts anything.

So a mapping of a target lattice onto a defective site fabric is valid iff
every stuck-CLOSED fabric site receives a constant-1 target site and every
stuck-OPEN fabric site receives a constant-0 (or the target is smaller and
the unused fabric border is... unused sites must be left non-conducting,
which stuck-CLOSED sites violate when adjacent — handled by requiring
unused columns to be separated; here we require unused sites to be
stuck-open or OK).

The mapper searches row/column permutations of the fabric (placement of
the target grid plus selection of spare lines), blind-BISM style, counting
trials.  Because padding rows/columns of the algebra are all-1/all-0, a
defective fabric whose defects line up with padding costs nothing; a
successful placement reports how many defects it put to such use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice, Site
from ..xbareval import lattice_truthtable
from .defects import OK, STUCK_CLOSED, STUCK_OPEN, DefectMap


def site_compatible(state: int, site: Site) -> bool:
    """Can a fabric site with crosspoint code ``state`` realise the target
    ``site``?"""
    if state == OK:
        return True
    if state == STUCK_CLOSED:
        return site is True
    return site is False  # STUCK_OPEN realises exactly the constant 0


def placement_valid(target: Lattice, defect_map: DefectMap,
                    row_map: tuple[int, ...], col_map: tuple[int, ...]) -> bool:
    """Check one placement against the operating model.

    Unused fabric *rows* are disconnected by the line-addressing scheme
    (the same assumption BISM makes), but within the selected rows every
    column is physically present.  Validity therefore requires:

    * every target site lands on a compatible fabric site, and
    * every fabric site on a selected row but an unused column is not
      stuck-closed (a permanently conducting stray site could bridge two
      used columns laterally and create new paths).
    """
    codes, cols = defect_map.codes, defect_map.cols
    used_cols = set(col_map)
    for i, fabric_row in enumerate(row_map):
        for j, fabric_col in enumerate(col_map):
            if not site_compatible(codes[fabric_row * cols + fabric_col],
                                   target.site(i, j)):
                return False
    for fabric_row in row_map:
        for c in range(cols):
            if c in used_cols:
                continue
            if codes[fabric_row * cols + c] == STUCK_CLOSED:
                return False
    return True


@dataclass
class LatticeMappingResult:
    """Outcome of the defect-aware lattice mapping search."""

    success: bool
    row_map: tuple[int, ...] | None
    col_map: tuple[int, ...] | None
    trials: int
    exploited_defects: int = 0

    def mapped_sites(self, target: Lattice) -> list[tuple[int, int, Site]]:
        if not self.success:
            return []
        return [
            (self.row_map[i], self.col_map[j], target.site(i, j))
            for i in range(target.rows)
            for j in range(target.cols)
        ]


def _exploited_defects(defect_map: DefectMap, row_map: tuple[int, ...],
                       col_map: tuple[int, ...]) -> int:
    codes, cols = defect_map.codes, defect_map.cols
    return sum(1 for r in row_map for c in col_map if codes[r * cols + c] != OK)


def map_lattice_random(target: Lattice, defect_map: DefectMap,
                       rng: random.Random,
                       max_trials: int = 500) -> LatticeMappingResult:
    """Blind random placement search (rows/cols drawn without replacement).

    Row order matters for lattices (paths cross rows in order), so row maps
    preserve relative order of the drawn physical rows; columns likewise.

    Each trial draws and checks a single placement with
    :func:`placement_valid` and stops at the first valid one.
    """
    if target.rows > defect_map.rows or target.cols > defect_map.cols:
        raise ValueError("target lattice larger than the fabric")
    for trial in range(1, max_trials + 1):
        row_map = tuple(sorted(rng.sample(range(defect_map.rows), target.rows)))
        col_map = tuple(sorted(rng.sample(range(defect_map.cols), target.cols)))
        if placement_valid(target, defect_map, row_map, col_map):
            return LatticeMappingResult(
                True, row_map, col_map, trial,
                _exploited_defects(defect_map, row_map, col_map))
    return LatticeMappingResult(False, None, None, max_trials)


def verify_mapped_lattice(target: Lattice, table: TruthTable,
                          defect_map: DefectMap,
                          result: LatticeMappingResult) -> bool:
    """Operate the mapped lattice under the defect overlay and check it
    still computes the target function.

    Builds the fabric-sized lattice: target sites at their mapped
    positions, constant-0 everywhere else (unused OK/stuck-open sites are
    left unprogrammed), then applies the physical defect overrides.
    """
    if not result.success:
        return False
    sites: list[list[Site]] = [
        [False] * defect_map.cols for _ in range(defect_map.rows)
    ]
    for r, c, site in result.mapped_sites(target):
        sites[r][c] = site
    # current must enter at the target's first mapped row and leave at the
    # last: restrict the fabric to exactly the used rows (physical row
    # selection), keeping all columns (unused ones are dead).
    used = [sites[r] for r in result.row_map]
    fabric_lattice = Lattice(target.n, used)

    # The physical overlay is static per site, so the whole 2^n check is
    # one batched truth-table evaluation with stuck-closed sites forced ON
    # and stuck-open sites forced OFF.
    states = defect_map.grid()[list(result.row_map), :]
    operated = lattice_truthtable(
        fabric_lattice,
        force_on=states == STUCK_CLOSED,
        force_off=states == STUCK_OPEN,
    )
    return operated == table


#: Side of the square fabric the mapping sweep places lattices on.
SWEEP_FABRIC_SIZE = 8


def mapping_success_sweep(target: Lattice, n: int, densities: list[float],
                          trials: int, rng: random.Random) -> list[dict]:
    """Success rate and exploited-defect counts across densities."""
    rows = []
    for density in densities:
        from .defects import random_defect_map

        successes = 0
        exploited_total = 0
        attempts = []
        for _ in range(trials):
            defect_map = random_defect_map(SWEEP_FABRIC_SIZE,
                                           SWEEP_FABRIC_SIZE, density, rng)
            result = map_lattice_random(target, defect_map, rng,
                                        max_trials=200)
            if result.success:
                successes += 1
                exploited_total += result.exploited_defects
            attempts.append(result.trials)
        rows.append({
            "density": density,
            "success_rate": successes / trials,
            "avg_trials": sum(attempts) / trials,
            "avg_exploited_defects": exploited_total / max(1, successes),
        })
    return rows
