"""Built-In Self-Mapping: blind, greedy and hybrid (Section IV-B).

An application configuration (an ``r x c`` program matrix from the
synthesis flows) must be placed on a partially defective ``N x M``
crossbar.  A *mapping* assigns application rows/columns to distinct
physical rows/columns; it is valid when

* every programmed crosspoint lands on a junction that can close
  (not stuck-open), and
* every unprogrammed crosspoint lands on a junction that can stay open
  (not stuck-closed).

The three paper strategies:

* **Blind** — draw a fresh random mapping, run application-dependent BIST,
  retry on failure.  No diagnosis hardware, very fast at low densities,
  degrades badly as the pass probability collapses.
* **Greedy** — after a failed BIST, run application-dependent BISD to find
  the defective junctions used by the current mapping, then *re-place only
  the affected physical lines*, keeping everything else.  Pays a diagnosis
  session per retry but converges at high densities.
* **Hybrid** — blind for a fixed retry budget, then switch to greedy; it
  adapts to unknown and locally varying densities.

Costs are counted in test sessions (BIST = 1, BISD = ``bisd_cost``,
default the logarithmic configuration count of
:mod:`repro.reliability.bisd`), which is the right proxy for self-mapping
time on chip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .defects import STUCK_CLOSED, STUCK_OPEN, DefectMap

Program = tuple[tuple[bool, ...], ...]


def as_program(matrix: Sequence[Sequence[bool]]) -> Program:
    return tuple(tuple(bool(x) for x in row) for row in matrix)


@dataclass(frozen=True)
class Mapping:
    """An injective placement of application lines onto physical lines."""

    row_map: tuple[int, ...]
    col_map: tuple[int, ...]


def mapping_is_valid(program: Program, mapping: Mapping,
                     defect_map: DefectMap) -> bool:
    """Ground-truth validity (what a full BIST session would conclude):
    no junction :func:`defective_junctions` would report."""
    codes, cols = defect_map.codes, defect_map.cols
    for row, phys_r in zip(program, mapping.row_map):
        base = phys_r * cols
        for programmed, phys_c in zip(row, mapping.col_map):
            if codes[base + phys_c] == (STUCK_OPEN if programmed
                                        else STUCK_CLOSED):
                return False
    return True


def defective_junctions(program: Program, mapping: Mapping,
                        defect_map: DefectMap) -> list[tuple[int, int]]:
    """Application-dependent diagnosis: offending (app_row, app_col) pairs.

    A programmed junction fails on a stuck-open crosspoint, an
    unprogrammed one on a stuck-closed crosspoint.
    """
    codes, cols = defect_map.codes, defect_map.cols
    bad = []
    for i, (row, phys_r) in enumerate(zip(program, mapping.row_map)):
        base = phys_r * cols
        for j, (programmed, phys_c) in enumerate(zip(row, mapping.col_map)):
            if codes[base + phys_c] == (STUCK_OPEN if programmed
                                        else STUCK_CLOSED):
                bad.append((i, j))
    return bad


def mapped_program(program: Program, mapping: Mapping,
                   rows: int, cols: int) -> Program:
    """Expand an application program to the full physical crossbar."""
    full = [[False] * cols for _ in range(rows)]
    for i, phys_r in enumerate(mapping.row_map):
        for j, phys_c in enumerate(mapping.col_map):
            full[phys_r][phys_c] = bool(program[i][j])
    return as_program(full)


@dataclass
class BismResult:
    """Outcome and cost accounting of one self-mapping run."""

    success: bool
    mapping: Mapping | None
    configurations_tried: int
    bist_sessions: int
    bisd_sessions: int
    strategy: str
    switched_to_greedy: bool = False

    def total_sessions(self, bisd_cost: float = 1.0) -> float:
        """Weighted session count (BISD may cost several configurations)."""
        return self.bist_sessions + bisd_cost * self.bisd_sessions


def _random_mapping(app_rows: int, app_cols: int, rows: int, cols: int,
                    rng: random.Random) -> Mapping:
    return Mapping(
        tuple(rng.sample(range(rows), app_rows)),
        tuple(rng.sample(range(cols), app_cols)),
    )


def blind_bism(program: Program, defect_map: DefectMap, rng: random.Random,
               max_retries: int = 200) -> BismResult:
    """Random configuration + BIST retry loop."""
    app_rows, app_cols = len(program), len(program[0])
    if app_rows > defect_map.rows or app_cols > defect_map.cols:
        raise ValueError("application larger than the crossbar")
    bist = 0
    for attempt in range(1, max_retries + 1):
        mapping = _random_mapping(app_rows, app_cols,
                                  defect_map.rows, defect_map.cols, rng)
        bist += 1
        if mapping_is_valid(program, mapping, defect_map):
            return BismResult(True, mapping, attempt, bist, 0, "blind")
    return BismResult(False, None, max_retries, bist, 0, "blind")


def greedy_bism(program: Program, defect_map: DefectMap, rng: random.Random,
                max_retries: int = 200) -> BismResult:
    """Diagnose after each failure and re-place only the defective lines."""
    app_rows, app_cols = len(program), len(program[0])
    if app_rows > defect_map.rows or app_cols > defect_map.cols:
        raise ValueError("application larger than the crossbar")
    mapping = _random_mapping(app_rows, app_cols,
                              defect_map.rows, defect_map.cols, rng)
    bist = bisd = 0
    for attempt in range(1, max_retries + 1):
        bist += 1
        if mapping_is_valid(program, mapping, defect_map):
            return BismResult(True, mapping, attempt, bist, bisd, "greedy")
        bisd += 1
        bad = defective_junctions(program, mapping, defect_map)
        bad_app_rows = sorted({i for i, _ in bad})
        bad_app_cols = sorted({j for _, j in bad})
        # Re-place the offending rows (columns) with fresh physical lines,
        # preferring lines not currently in use.
        row_map = list(mapping.row_map)
        col_map = list(mapping.col_map)
        free_rows = [r for r in range(defect_map.rows) if r not in row_map]
        free_cols = [c for c in range(defect_map.cols) if c not in col_map]
        rng.shuffle(free_rows)
        rng.shuffle(free_cols)
        for i in bad_app_rows:
            if free_rows:
                row_map[i] = free_rows.pop()
            else:
                # No spare rows left: swap with a random other row.
                other = rng.randrange(app_rows)
                row_map[i], row_map[other] = row_map[other], row_map[i]
        for j in bad_app_cols:
            if free_cols:
                col_map[j] = free_cols.pop()
            else:
                other = rng.randrange(app_cols)
                col_map[j], col_map[other] = col_map[other], col_map[j]
        mapping = Mapping(tuple(row_map), tuple(col_map))
    return BismResult(False, None, max_retries, bist, bisd, "greedy")


def hybrid_bism(program: Program, defect_map: DefectMap, rng: random.Random,
                blind_budget: int = 5, max_retries: int = 200) -> BismResult:
    """Blind first; switch to greedy after ``blind_budget`` failures."""
    blind = blind_bism(program, defect_map, rng, max_retries=blind_budget)
    if blind.success:
        return BismResult(True, blind.mapping, blind.configurations_tried,
                          blind.bist_sessions, 0, "hybrid")
    greedy = greedy_bism(program, defect_map, rng,
                         max_retries=max_retries - blind_budget)
    return BismResult(
        greedy.success,
        greedy.mapping,
        blind.configurations_tried + greedy.configurations_tried,
        blind.bist_sessions + greedy.bist_sessions,
        greedy.bisd_sessions,
        "hybrid",
        switched_to_greedy=True,
    )


STRATEGIES = {
    "blind": blind_bism,
    "greedy": greedy_bism,
    "hybrid": hybrid_bism,
}

#: Configurations each strategy may try per chip in the density sweep.
SWEEP_MAX_RETRIES = 150


@dataclass
class SweepPoint:
    """Monte-Carlo summary for one (strategy, density) point."""

    strategy: str
    density: float
    success_rate: float
    avg_bist_sessions: float
    avg_bisd_sessions: float
    avg_total_sessions: float


def bism_density_sweep(program: Program, crossbar_rows: int, crossbar_cols: int,
                       densities: Sequence[float], trials: int,
                       rng: random.Random) -> list[SweepPoint]:
    """The Section IV-B comparison: sessions/success vs defect density.

    Every strategy gets ``SWEEP_MAX_RETRIES`` configurations per chip, and a
    BISD session is weighted by the configurations it applies on the
    crossbar: one per codeword bit plus the two type probes.
    """
    from .defects import random_defect_map
    from .bisd import _codeword_bits

    bisd_cost = _codeword_bits(crossbar_rows, crossbar_cols) + 2
    points = []
    for density in densities:
        per_strategy: dict[str, list[BismResult]] = {s: [] for s in STRATEGIES}
        for _ in range(trials):
            defect_map = random_defect_map(crossbar_rows, crossbar_cols,
                                           density, rng)
            for name, strategy in STRATEGIES.items():
                result = strategy(program, defect_map, rng,
                                  max_retries=SWEEP_MAX_RETRIES)
                per_strategy[name].append(result)
        for name in STRATEGIES:
            results = per_strategy[name]
            points.append(SweepPoint(
                strategy=name,
                density=density,
                success_rate=sum(r.success for r in results) / trials,
                avg_bist_sessions=sum(r.bist_sessions for r in results) / trials,
                avg_bisd_sessions=sum(r.bisd_sessions for r in results) / trials,
                avg_total_sessions=sum(
                    r.total_sessions(bisd_cost) for r in results
                ) / trials,
            ))
    return points
