"""Defect models for reconfigurable nano-crossbars (Section IV).

A :class:`DefectMap` records the physical state of every crosspoint of an
``N x M`` crossbar as one code per crosspoint, row-major:

* ``OK`` (0) — programmable both ways;
* ``STUCK_OPEN`` (1) — can never conduct (the dominant defect type in
  nanowire crossbars: broken/missing junctions);
* ``STUCK_CLOSED`` (2) — always conducts.

The batched ensembles of :mod:`repro.faultlab.maps` stack the same codes
into a ``(trials, rows, cols)`` uint8 tensor.

Two generators model the paper's defect regimes: independent Bernoulli
defects (global density) and clustered defects (local density variation —
the motivation for *hybrid* BISM and for sampling defect densities per
crossbar in Fig. 6's flow).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Crosspoint codes of a defect map.
OK = 0
STUCK_OPEN = 1
STUCK_CLOSED = 2

#: Standard deviation, in crosspoints, of a defect's offset from its
#: cluster centre in the clustered model.
CLUSTER_RADIUS = 1.5

#: Default share of defects that are stuck-open in the Bernoulli and
#: clustered models (opens dominate in nanowire crossbars).
STUCK_OPEN_FRACTION = 0.8

_CODES = bytes([OK, STUCK_OPEN, STUCK_CLOSED])
_SYMBOLS = bytes.maketrans(_CODES, b".ox")


@dataclass(frozen=True)
class DefectMap:
    """Immutable defect map of an ``rows x cols`` crossbar."""

    rows: int
    cols: int
    #: one crosspoint code per crosspoint, row-major: ``(r, c)`` is
    #: ``codes[r * cols + c]``.
    codes: bytes

    def __post_init__(self) -> None:
        if type(self.codes) is not bytes:
            raise TypeError("defect map codes must be bytes")
        if (self.rows < 0 or self.cols < 0
                or len(self.codes) != self.rows * self.cols):
            raise ValueError(f"{len(self.codes)} codes do not fill a "
                             f"{self.rows}x{self.cols} crossbar")
        if self.codes.translate(None, _CODES):
            raise ValueError("defect map contains unknown crosspoint codes")

    @staticmethod
    def from_grid(grid) -> "DefectMap":
        """The map of a 2-D array of codes (one trial of a defect batch)."""
        grid = np.asarray(grid, dtype=np.uint8)
        rows, cols = grid.shape
        return DefectMap(rows, cols, grid.tobytes())

    def grid(self) -> np.ndarray:
        """A read-only ``(rows, cols)`` uint8 view of the codes (no copy)."""
        return np.frombuffer(self.codes, dtype=np.uint8).reshape(
            self.rows, self.cols)

    # ------------------------------------------------------------------
    def state(self, r: int, c: int) -> int:
        """The code of crosspoint ``(r, c)``."""
        return self.codes[r * self.cols + c]

    @property
    def num_defects(self) -> int:
        return len(self.codes) - self.codes.count(OK)

    @property
    def density(self) -> float:
        return self.num_defects / (self.rows * self.cols)

    def is_clean(self, row_ids: Sequence[int],
                 col_ids: Sequence[int]) -> bool:
        """True when the selected sub-crossbar has no defect at all."""
        codes, cols = self.codes, self.cols
        return not any(codes[r * cols + c] for r in row_ids for c in col_ids)

    def render(self) -> str:
        """ASCII map: ``.`` OK, ``o`` stuck-open, ``x`` stuck-closed."""
        text = self.codes.translate(_SYMBOLS).decode()
        return "\n".join(text[r * self.cols:(r + 1) * self.cols]
                         for r in range(self.rows))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def check_model(rows: int, cols: int, density: float,
                stuck_open_fraction: float) -> None:
    """Reject a crossbar size or defect model no generator can sample."""
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if not 0.0 <= stuck_open_fraction <= 1.0:
        raise ValueError("stuck_open_fraction must be in [0, 1]")


def perfect_map(rows: int, cols: int) -> DefectMap:
    """A defect-free crossbar."""
    return DefectMap(rows, cols, bytes(rows * cols))


def random_defect_map(rows: int, cols: int, density: float,
                      rng: random.Random,
                      stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectMap:
    """Independent Bernoulli defects, drawn crosspoint by crosspoint in
    row-major order.

    Args:
        density: per-crosspoint defect probability.
        stuck_open_fraction: share of defects that are stuck-open (the
            literature reports opens dominate in nanowire crossbars).
    """
    check_model(rows, cols, density, stuck_open_fraction)
    draw = rng.random
    codes = bytearray(rows * cols)
    for i in range(len(codes)):
        if draw() < density:
            codes[i] = (STUCK_OPEN if draw() < stuck_open_fraction
                        else STUCK_CLOSED)
    return DefectMap(rows, cols, bytes(codes))


def clustered_defect_map(rows: int, cols: int, density: float,
                         rng: random.Random,
                         stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectMap:
    """Clustered defects: Poisson cluster centres with Gaussian spread.

    The expected defect count matches ``density * rows * cols``; defects
    bunch around cluster centres, modelling local process variation.
    """
    check_model(rows, cols, density, stuck_open_fraction)
    target = density * rows * cols
    defects_per_cluster = max(2.0, CLUSTER_RADIUS * 2)
    num_clusters = max(1, round(target / defects_per_cluster)) if target > 0 else 0
    codes = bytearray(rows * cols)
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
            if not (0 <= r < rows and 0 <= c < cols) or codes[r * cols + c]:
                continue
            codes[r * cols + c] = (STUCK_OPEN
                                   if rng.random() < stuck_open_fraction
                                   else STUCK_CLOSED)
            placed += 1
    return DefectMap(rows, cols, bytes(codes))
