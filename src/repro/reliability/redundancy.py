"""Permanent and transient fault tolerance via redundancy ([15]).

The paper's reliability work package spans *lifetime* faults, not only
fabrication defects ("fault tolerance to ensure the lifetime reliability
(for errors during normal operation)").  Reference [15] (Tunali & Altun,
TCAD'16) covers both permanent and transient faults for reconfigurable
nano-crossbars; this module implements the two classic mechanisms in
crossbar form:

* **spare-line repair** for permanent faults: an ``(r+s) x (c+s)`` array
  carries spare rows/columns; after diagnosis, defective lines are
  remapped onto spares (:class:`SparedCrossbar`);
* **triple modular redundancy (TMR)** for transient faults: three copies
  of a lattice vote through a majority element that is itself a switching
  lattice (``maj3`` is self-dual, so its lattice is a compact 2x3).
  :func:`tmr_reliability` Monte-Carlo-estimates output correctness under
  per-site transient upset rates, including voter upsets, exhibiting the
  classic TMR crossover (TMR wins at low upset rates, loses once multi-copy
  errors dominate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from ..xbareval.connectivity import top_bottom_connected_batch
from ..xbareval.lattice_eval import conduction_tensor
from .defects import DefectMap
from .faults import CHUNK_ELEMENTS


# ----------------------------------------------------------------------
# Spare-line repair (permanent faults)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RepairResult:
    """Outcome of spare-line repair."""

    success: bool
    row_assignment: tuple[int, ...]  # logical row -> physical row
    col_assignment: tuple[int, ...]
    rows_replaced: int
    cols_replaced: int


def repair_with_spares(defect_map: DefectMap, logical_rows: int,
                       logical_cols: int) -> RepairResult:
    """Assign logical lines to physical lines, avoiding defective ones.

    A physical line is unusable when it carries *any* defect (universal
    usability, as in the defect-unaware flow).  Greedy first-fit: logical
    line i keeps physical line i when clean, otherwise takes the next
    clean spare.
    """
    if logical_rows > defect_map.rows or logical_cols > defect_map.cols:
        raise ValueError("logical array larger than the physical crossbar")
    codes, rows, cols = defect_map.codes, defect_map.rows, defect_map.cols
    clean_rows = [r for r in range(rows)
                  if not any(codes[r * cols:(r + 1) * cols])]
    clean_cols = [c for c in range(cols) if not any(codes[c::cols])]
    if len(clean_rows) < logical_rows or len(clean_cols) < logical_cols:
        return RepairResult(False, (), (), 0, 0)
    row_assignment = tuple(clean_rows[:logical_rows])
    col_assignment = tuple(clean_cols[:logical_cols])
    rows_replaced = sum(1 for i, r in enumerate(row_assignment) if r != i)
    cols_replaced = sum(1 for j, c in enumerate(col_assignment) if c != j)
    return RepairResult(True, row_assignment, col_assignment,
                        rows_replaced, cols_replaced)


# ----------------------------------------------------------------------
# TMR (transient faults)
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def majority_voter_lattice() -> Lattice:
    """A folded lattice computing maj3 (2x3 after folding; maj3 is self-dual)."""
    from ..synthesis.lattice_dual import synthesize_lattice_dual
    from ..synthesis.optimize import fold_lattice

    table = TruthTable.from_callable(3, lambda m: bin(m).count("1") >= 2)
    lattice = fold_lattice(synthesize_lattice_dual(table), table)
    if not lattice.implements(table):  # pragma: no cover - flow guard
        raise RuntimeError("majority voter lattice construction broken")
    return lattice


@dataclass(frozen=True)
class TmrSystem:
    """Three lattice replicas + a majority voter lattice."""

    replica: Lattice
    voter: Lattice

    @property
    def area(self) -> int:
        return 3 * self.replica.area + self.voter.area

    def evaluate(self, assignment: int, rng: random.Random | None = None,
                 upset_rate: float = 0.0) -> bool:
        """One evaluation with optional per-site transient upsets.

        An upset flips a site's conduction state for this evaluation only
        (transient).  The voter's sites are upset at the same rate.
        """

        def flip(nominal: bool) -> bool:
            if rng is not None and upset_rate > 0 and rng.random() < upset_rate:
                return not nominal
            return nominal

        def noisy_eval(lattice: Lattice, a: int) -> bool:
            return lattice.evaluate(a, lambda r, c, v: flip(v))

        votes = [noisy_eval(self.replica, assignment) for _ in range(3)]
        voter_input = sum(1 << i for i, v in enumerate(votes) if v)
        return noisy_eval(self.voter, voter_input)


def make_tmr(replica: Lattice) -> TmrSystem:
    return TmrSystem(replica=replica, voter=majority_voter_lattice())


@dataclass(frozen=True)
class ReliabilityPoint:
    """Monte-Carlo output correctness at one upset rate."""

    upset_rate: float
    simplex_correct: float
    tmr_correct: float

    @property
    def tmr_wins(self) -> bool:
        return self.tmr_correct >= self.simplex_correct


def tmr_reliability(replica: Lattice, table: TruthTable,
                    upset_rates: Sequence[float], trials: int,
                    rng: random.Random) -> list[ReliabilityPoint]:
    """Simplex vs TMR output correctness across transient upset rates.

    Each trial draws, in this order: the assignment (``rng.choice``), one
    ``rng.random()`` per simplex site (also at rate 0), and, only when the
    rate is above 0, one per site of each of the three replicas and then
    of the voter, row-major within a lattice — the draws of scalar
    ``replica.evaluate`` calls with a flipping ``site_override`` followed
    by :meth:`TmrSystem.evaluate`.  A site is upset when its draw is below
    the rate.  The draws are collected in that order and the trials are
    evaluated in batches of at most
    :data:`~repro.reliability.faults.CHUNK_ELEMENTS` sites: one flood for
    the simplex and the three replicas, one for the voter on the votes.
    """
    if table.n != replica.n:
        raise ValueError("truth table and lattice disagree on variables")
    voter = make_tmr(replica).voter
    assignments = list(range(1 << replica.n))
    area = replica.area
    width = 4 * area + voter.area
    step = max(1, CHUNK_ELEMENTS // width)
    points = []
    for rate in upset_rates:
        drawn = width if rate > 0 else area
        simplex_ok = 0
        tmr_ok = 0
        for start in range(0, trials, step):
            count = min(step, trials - start)
            picked = np.empty(count, dtype=np.int64)
            draws = np.empty((count, drawn))
            for trial in range(count):
                picked[trial] = rng.choice(assignments)
                draws[trial] = [rng.random() for _ in range(drawn)]
            upsets = np.zeros((count, width), dtype=bool)
            upsets[:, :drawn] = draws < rate
            golden = table.values[picked]
            copies = (conduction_tensor(replica, picked)[:, None]
                      ^ upsets[:, :4 * area].reshape(
                          count, 4, replica.rows, replica.cols))
            outputs = top_bottom_connected_batch(
                copies.reshape(4 * count, replica.rows, replica.cols)
            ).reshape(count, 4)
            votes = outputs[:, 1:] @ np.array([1, 2, 4])
            voted = top_bottom_connected_batch(
                conduction_tensor(voter, votes)
                ^ upsets[:, 4 * area:].reshape(count, voter.rows, voter.cols))
            simplex_ok += int((outputs[:, 0] == golden).sum())
            tmr_ok += int((voted == golden).sum())
        points.append(ReliabilityPoint(
            upset_rate=rate,
            simplex_correct=simplex_ok / trials,
            tmr_correct=tmr_ok / trials,
        ))
    return points
