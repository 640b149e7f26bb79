"""Defect models for reconfigurable nano-crossbars (Section IV).

A :class:`DefectMap` records the physical state of every crosspoint of an
``N x M`` crossbar:

* ``OK`` — programmable both ways;
* ``STUCK_OPEN`` — can never conduct (the dominant defect type in nanowire
  crossbars: broken/missing junctions);
* ``STUCK_CLOSED`` — always conducts.

Two generators model the paper's defect regimes: independent Bernoulli
defects (global density) and clustered defects (local density variation —
the motivation for *hybrid* BISM and for sampling defect densities per
crossbar in Fig. 6's flow).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class CrosspointState(Enum):
    """Physical state of one crosspoint."""

    OK = "ok"
    STUCK_OPEN = "stuck_open"
    STUCK_CLOSED = "stuck_closed"


#: Numeric codes of the defect states, the crosspoint values of the dense
#: state grids (:mod:`repro.faultlab.maps`,
#: :func:`repro.reliability.lattice_mapping.defect_map_states`); ``0`` is OK.
STATE_TO_CODE = {CrosspointState.STUCK_OPEN: 1, CrosspointState.STUCK_CLOSED: 2}
CODE_TO_STATE = {code: state for state, code in STATE_TO_CODE.items()}

#: Standard deviation, in crosspoints, of a defect's offset from its
#: cluster centre in the clustered model.
CLUSTER_RADIUS = 1.5

#: Default share of defects that are stuck-open in the Bernoulli and
#: clustered models (opens dominate in nanowire crossbars).
STUCK_OPEN_FRACTION = 0.8


@dataclass(frozen=True)
class DefectMap:
    """Immutable defect map of an ``rows x cols`` crossbar."""

    rows: int
    cols: int
    #: sparse map (r, c) -> non-OK state; OK crosspoints are absent.
    defects: dict[tuple[int, int], CrosspointState]

    def __post_init__(self) -> None:
        for (r, c), state in self.defects.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"defect at ({r},{c}) outside {self.rows}x{self.cols}")
            if state is CrosspointState.OK:
                raise ValueError("defect dict must not contain OK entries")

    # ------------------------------------------------------------------
    def state(self, r: int, c: int) -> CrosspointState:
        return self.defects.get((r, c), CrosspointState.OK)

    def is_ok(self, r: int, c: int) -> bool:
        return (r, c) not in self.defects

    def is_stuck_open(self, r: int, c: int) -> bool:
        return self.defects.get((r, c)) is CrosspointState.STUCK_OPEN

    def is_stuck_closed(self, r: int, c: int) -> bool:
        return self.defects.get((r, c)) is CrosspointState.STUCK_CLOSED

    @property
    def num_defects(self) -> int:
        return len(self.defects)

    @property
    def density(self) -> float:
        return self.num_defects / (self.rows * self.cols)

    def defective_rows(self) -> set[int]:
        return {r for r, _ in self.defects}

    def defective_cols(self) -> set[int]:
        return {c for _, c in self.defects}

    def is_clean(self, row_ids: list[int], col_ids: list[int]) -> bool:
        """True when the selected sub-crossbar has no defect at all."""
        col_set = set(col_ids)
        row_set = set(row_ids)
        return not any(
            r in row_set and c in col_set for (r, c) in self.defects
        )

    def render(self) -> str:
        """ASCII map: ``.`` OK, ``o`` stuck-open, ``x`` stuck-closed."""
        symbol = {
            CrosspointState.STUCK_OPEN: "o",
            CrosspointState.STUCK_CLOSED: "x",
        }
        lines = []
        for r in range(self.rows):
            lines.append("".join(
                symbol.get(self.defects.get((r, c)), ".") for c in range(self.cols)
            ))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def perfect_map(rows: int, cols: int) -> DefectMap:
    """A defect-free crossbar."""
    return DefectMap(rows, cols, {})


def random_defect_map(rows: int, cols: int, density: float,
                      rng: random.Random,
                      stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectMap:
    """Independent Bernoulli defects.

    Args:
        density: per-crosspoint defect probability.
        stuck_open_fraction: share of defects that are stuck-open (the
            literature reports opens dominate in nanowire crossbars).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if not 0.0 <= stuck_open_fraction <= 1.0:
        raise ValueError("stuck_open_fraction must be in [0, 1]")
    defects: dict[tuple[int, int], CrosspointState] = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                if rng.random() < stuck_open_fraction:
                    defects[(r, c)] = CrosspointState.STUCK_OPEN
                else:
                    defects[(r, c)] = CrosspointState.STUCK_CLOSED
    return DefectMap(rows, cols, defects)


def clustered_defect_map(rows: int, cols: int, density: float,
                         rng: random.Random,
                         stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectMap:
    """Clustered defects: Poisson cluster centres with Gaussian spread.

    The expected defect count matches ``density * rows * cols``; defects
    bunch around cluster centres, modelling local process variation.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    target = density * rows * cols
    defects_per_cluster = max(2.0, CLUSTER_RADIUS * 2)
    num_clusters = max(1, round(target / defects_per_cluster)) if target > 0 else 0
    defects: dict[tuple[int, int], CrosspointState] = {}
    placed = 0
    budget = round(target)
    for _ in range(num_clusters):
        if placed >= budget:
            break
        centre_r = rng.uniform(0, rows - 1)
        centre_c = rng.uniform(0, cols - 1)
        for _ in range(max(1, round(rng.expovariate(1.0 / defects_per_cluster)))):
            if placed >= budget:
                break
            r = int(round(rng.gauss(centre_r, CLUSTER_RADIUS)))
            c = int(round(rng.gauss(centre_c, CLUSTER_RADIUS)))
            if not (0 <= r < rows and 0 <= c < cols) or (r, c) in defects:
                continue
            state = (CrosspointState.STUCK_OPEN
                     if rng.random() < stuck_open_fraction
                     else CrosspointState.STUCK_CLOSED)
            defects[(r, c)] = state
            placed += 1
    return DefectMap(rows, cols, defects)
