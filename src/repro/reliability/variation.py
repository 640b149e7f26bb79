"""Parametric variation models and variation-aware mapping (Section IV).

Nanowire crosspoints show large device-to-device spread; the standard
model is a lognormal resistance per junction.  The module provides:

* :class:`VariationMap` — per-crosspoint resistance samples;
* delay models: for a configured lattice, the delay of an input is the
  best (minimum total resistance) conducting top-bottom path — computed
  with Dijkstra on the conduction grid — and the array's *critical delay*
  is the worst such value over the on-set;
* a diode-array delay proxy (worst row series resistance);
* **variation-aware mapping**: choose the physical rows/columns with the
  lowest resistance budget instead of arbitrary ones, and compare the
  resulting delay distributions (the "variation tolerance ensures
  predictability and performance" claim).

These are the scalar, one-chip-at-a-time references.  The batched
production path — `(trials, rows, cols)` resistance ensembles, vectorized
selection and Bellman-Ford delay relaxation, sharded campaign runs — is
:mod:`repro.varsim` (built on :mod:`repro.xbareval.delay`); every varsim
kernel is validated against the functions in this module.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice


@dataclass(frozen=True)
class VariationMap:
    """Per-crosspoint resistance samples (arbitrary units, nominal 1.0)."""

    resistance: np.ndarray  # shape (rows, cols)

    def __post_init__(self) -> None:
        if self.resistance.ndim != 2:
            raise ValueError("resistance map must be 2-D")
        if (self.resistance <= 0).any():
            raise ValueError("resistances must be positive")

    @property
    def rows(self) -> int:
        return int(self.resistance.shape[0])

    @property
    def cols(self) -> int:
        return int(self.resistance.shape[1])

    def submap(self, row_ids: Sequence[int], col_ids: Sequence[int]) -> "VariationMap":
        return VariationMap(self.resistance[np.ix_(list(row_ids), list(col_ids))])


def lognormal_variation(rows: int, cols: int, sigma: float,
                        rng: random.Random | np.random.Generator,
                        nominal: float = 1.0) -> VariationMap:
    """Sample a lognormal variation map: ``R = nominal * exp(N(0, sigma))``.

    The whole map is one vectorized ``numpy.random.Generator`` normal draw.
    A :class:`random.Random` seeds a dedicated ``Generator`` from its own
    stream, so repeated calls with the same scalar RNG stay deterministic
    and distinct: that is the path :func:`variation_sweep`, and with it
    the paper's ``variation`` experiment, takes on every call.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if isinstance(rng, np.random.Generator):
        gen = rng
    else:
        gen = np.random.default_rng(rng.getrandbits(128))
    values = nominal * np.exp(gen.normal(0.0, sigma, size=(rows, cols)))
    return VariationMap(values)


# ----------------------------------------------------------------------
# Lattice delay
# ----------------------------------------------------------------------
def best_path_delay(conduction: list[list[bool]],
                    resistance: np.ndarray) -> float | None:
    """Minimum total resistance over conducting top-bottom 4-paths.

    Dijkstra with node weights; ``None`` when the grid does not conduct.
    """
    rows = len(conduction)
    cols = len(conduction[0]) if rows else 0
    dist: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, tuple[int, int]]] = []
    for c in range(cols):
        if conduction[0][c]:
            weight = float(resistance[0][c])
            if dist.get((0, c), float("inf")) > weight:
                dist[(0, c)] = weight
                heapq.heappush(heap, (weight, (0, c)))
    best: float | None = None
    while heap:
        d, (r, c) = heapq.heappop(heap)
        if d > dist.get((r, c), float("inf")):
            continue
        if r == rows - 1:
            best = d if best is None else min(best, d)
            # Dijkstra pops in nondecreasing order: first bottom hit is best.
            return best
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            if not conduction[nr][nc]:
                continue
            nd = d + float(resistance[nr][nc])
            if nd < dist.get((nr, nc), float("inf")):
                dist[(nr, nc)] = nd
                heapq.heappush(heap, (nd, (nr, nc)))
    return best


def lattice_critical_delay(lattice: Lattice, variation: VariationMap,
                           table: TruthTable | None = None) -> float:
    """Worst-case best-path delay over the on-set of the lattice function.

    Raises:
        ValueError: for a constant-0 function (empty on-set) — there is no
            conducting input, so "critical delay" is undefined and a
            silent ``0.0`` would read as an infinitely fast array.
    """
    if variation.rows != lattice.rows or variation.cols != lattice.cols:
        raise ValueError("variation map shape must match the lattice")
    if table is None:
        table = lattice.to_truth_table()
    if table.count_ones() == 0:
        raise ValueError(
            "critical delay is undefined for a constant-0 function: "
            "the lattice conducts for no input (empty on-set)")
    worst = 0.0
    for m in table.minterms():
        delay = best_path_delay(lattice.conduction_grid(m), variation.resistance)
        if delay is None:
            raise ValueError("lattice does not conduct on its own on-set")
        worst = max(worst, delay)
    return worst


def diode_row_delay(program: Sequence[Sequence[bool]],
                    variation: VariationMap) -> float:
    """Worst row series-resistance (two-terminal array delay proxy)."""
    worst = 0.0
    for r, row in enumerate(program):
        total = sum(
            float(variation.resistance[r][c]) for c, on in enumerate(row) if on
        )
        worst = max(worst, total)
    return worst


# ----------------------------------------------------------------------
# Variation-aware mapping
# ----------------------------------------------------------------------
def variation_aware_selection(variation: VariationMap, app_rows: int,
                              app_cols: int) -> tuple[list[int], list[int]]:
    """Pick the physical lines with the smallest resistance budgets.

    Ties are broken by physical line index (``kind="stable"``), so the
    selected set is bit-reproducible across numpy builds — the default
    introsort picks platform-dependent lines on tied budgets, which made
    seeded sweeps non-deterministic.  The batched counterpart is
    :func:`repro.varsim.variation_aware_selection_batch`.
    """
    row_budget = variation.resistance.sum(axis=1)
    col_budget = variation.resistance.sum(axis=0)
    rows = sorted(np.argsort(row_budget, kind="stable")[:app_rows].tolist())
    cols = sorted(np.argsort(col_budget, kind="stable")[:app_cols].tolist())
    return rows, cols


def oblivious_selection(variation: VariationMap, app_rows: int, app_cols: int,
                        rng: random.Random) -> tuple[list[int], list[int]]:
    """Random placement baseline."""
    rows = sorted(rng.sample(range(variation.rows), app_rows))
    cols = sorted(rng.sample(range(variation.cols), app_cols))
    return rows, cols


@dataclass(frozen=True)
class VariationPoint:
    """Monte-Carlo summary for one sigma value."""

    sigma: float
    aware_mean: float
    aware_p95: float
    oblivious_mean: float
    oblivious_p95: float

    @property
    def mean_improvement(self) -> float:
        if self.oblivious_mean == 0:
            return 0.0
        return 1.0 - self.aware_mean / self.oblivious_mean


def variation_sweep(lattice: Lattice, sigmas: Sequence[float],
                    crossbar_rows: int, crossbar_cols: int,
                    trials: int, rng: random.Random) -> list[VariationPoint]:
    """Aware vs oblivious mapping delay across variation strengths.

    The lattice is placed on a larger crossbar; the selected physical
    sub-grid's resistances determine the critical delay.

    This is the scalar reference loop (one lognormal map, one Dijkstra per
    minterm per trial); the batched production path is
    :func:`repro.varsim.run_variation_campaign`.
    """
    if crossbar_rows < lattice.rows or crossbar_cols < lattice.cols:
        raise ValueError("crossbar smaller than the lattice")
    table = lattice.to_truth_table()
    if table.count_ones() == 0:
        raise ValueError(
            "variation sweep is undefined for a constant-0 lattice: "
            "critical delay has no conducting on-set input")
    points = []
    for sigma in sigmas:
        aware_delays = []
        oblivious_delays = []
        for _ in range(trials):
            variation = lognormal_variation(crossbar_rows, crossbar_cols,
                                            sigma, rng)
            rows_a, cols_a = variation_aware_selection(
                variation, lattice.rows, lattice.cols)
            rows_o, cols_o = oblivious_selection(
                variation, lattice.rows, lattice.cols, rng)
            aware_delays.append(lattice_critical_delay(
                lattice, variation.submap(rows_a, cols_a), table))
            oblivious_delays.append(lattice_critical_delay(
                lattice, variation.submap(rows_o, cols_o), table))
        aware = np.array(aware_delays)
        oblivious = np.array(oblivious_delays)
        points.append(VariationPoint(
            sigma=sigma,
            aware_mean=float(aware.mean()),
            aware_p95=float(np.percentile(aware, 95)),
            oblivious_mean=float(oblivious.mean()),
            oblivious_p95=float(np.percentile(oblivious, 95)),
        ))
    return points
