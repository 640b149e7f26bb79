"""Batched lognormal resistance ensembles and vectorized line selection.

Paper anchor: Section IV (variation tolerance).  The scalar models live in
:mod:`repro.reliability.variation` — one :class:`VariationMap` per trial,
one ``argsort`` per selection.  Here a whole Monte-Carlo ensemble is one
dense ``(trials, rows, cols)`` float64 tensor drawn in a single
``numpy.random.Generator`` call, and both mapping policies of the paper's
"variation awareness ensures predictability and performance" comparison
are answered for every trial at once:

* :class:`VariationBatch` — the resistance ensemble plus conversions to
  the scalar :class:`~repro.reliability.variation.VariationMap`;
* :func:`lognormal_variation_batch` — ``R = nominal * exp(N(0, sigma))``
  for all trials in one draw;
* :func:`variation_aware_selection_batch` — per-trial choice of the
  physical lines with the smallest resistance budgets, one
  ``argpartition`` pass with ties broken by line index (bit-identical to
  the stable scalar :func:`~repro.reliability.variation.
  variation_aware_selection`);
* :func:`oblivious_selection_batch` — uniform random line subsets, the
  batched placement baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..reliability.variation import VariationMap


@dataclass(frozen=True)
class VariationBatch:
    """An ensemble of same-sized resistance maps as one dense tensor."""

    resistance: np.ndarray  # (trials, rows, cols) float64, all > 0

    def __post_init__(self) -> None:
        if self.resistance.ndim != 3:
            raise ValueError("variation batch tensor must be 3-D "
                             "(trials, rows, cols)")
        if self.resistance.size and (self.resistance <= 0).any():
            raise ValueError("resistances must be positive")

    @property
    def trials(self) -> int:
        return int(self.resistance.shape[0])

    def to_variation_map(self, trial: int) -> VariationMap:
        """Materialise one trial as a scalar :class:`VariationMap`."""
        return VariationMap(self.resistance[trial])

    def submaps(self, row_ids: np.ndarray, col_ids: np.ndarray) -> np.ndarray:
        """Per-trial sub-grids, shape ``(trials, app_rows, app_cols)``.

        Args:
            row_ids / col_ids: integer ``(trials, app_rows)`` /
                ``(trials, app_cols)`` selections — one line subset per
                trial, as produced by the selection kernels.
        """
        row_ids = np.asarray(row_ids)
        col_ids = np.asarray(col_ids)
        trial_idx = np.arange(self.trials)[:, None, None]
        return self.resistance[trial_idx, row_ids[:, :, None],
                               col_ids[:, None, :]]


def lognormal_variation_batch(trials: int, rows: int, cols: int, sigma: float,
                              gen: np.random.Generator,
                              nominal: float = 1.0) -> VariationBatch:
    """Sample a whole lognormal ensemble in one vectorized draw.

    Distribution-identical to ``trials`` calls of
    :func:`repro.reliability.variation.lognormal_variation` with the same
    generator: each crosspoint is ``nominal * exp(N(0, sigma))``, and the
    single ``(trials, rows, cols)`` normal draw keeps the ensemble a pure
    function of the generator state (the campaign runner's determinism
    contract).
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and non-negative")
    if not (math.isfinite(nominal) and nominal > 0):
        raise ValueError("nominal resistance must be finite and positive")
    # One standard-normal draw, transformed in place (the ensemble draw is
    # the hot allocation of a campaign batch).
    values = gen.standard_normal((trials, rows, cols))
    if sigma != 1.0:
        np.multiply(values, sigma, out=values)
    np.exp(values, out=values)
    if nominal != 1.0:
        np.multiply(values, nominal, out=values)
    return VariationBatch(values)


def smallest_k_indices(budgets: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` smallest budgets, ties by index.

    One ``np.partition`` pass finds each row's ``k``-th smallest value;
    everything strictly below it is selected, and ties on the threshold
    are filled in ascending index order until ``k`` lines are chosen.
    The selection is exactly ``sorted(np.argsort(row, kind="stable")[:k])``
    per row — the stable scalar semantics — without the full sort.

    Args:
        budgets: float ``(B, L)`` per-line budgets.
        k: lines to select per row, ``0 <= k <= L``.

    Returns:
        Integer ``(B, k)`` array of selected indices, ascending per row.
    """
    budgets = np.asarray(budgets)
    if budgets.ndim != 2:
        raise ValueError("budgets must be (batch, lines)")
    batch, lines = budgets.shape
    if not 0 <= k <= lines:
        raise ValueError(f"need 0 <= k <= {lines}, got {k}")
    if k == 0:
        return np.zeros((batch, 0), dtype=np.int64)
    if k == lines:
        return np.broadcast_to(np.arange(lines, dtype=np.int64),
                               (batch, lines)).copy()
    kth = np.partition(budgets, k - 1, axis=1)[:, k - 1:k]   # (B, 1)
    below = budgets < kth
    tie = budgets == kth
    need = k - below.sum(axis=1, keepdims=True)
    take_tie = tie & (np.cumsum(tie, axis=1) <= need)
    mask = below | take_tie                  # exactly k True per row
    return np.nonzero(mask)[1].reshape(batch, k).astype(np.int64)


def variation_aware_selection_batch(resistance: np.ndarray, app_rows: int,
                                    app_cols: int
                                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-budget physical lines for every trial of an ensemble.

    The batched analogue of
    :func:`repro.reliability.variation.variation_aware_selection`:
    per-trial row/column resistance budgets are reduced in two sums and
    the ``argpartition``-based :func:`smallest_k_indices` picks the lines,
    ties broken by physical index — trial ``t`` of the result is
    bit-identical to the scalar selection on ``resistance[t]``.

    Returns:
        ``(row_ids, col_ids)`` integer arrays of shape
        ``(trials, app_rows)`` / ``(trials, app_cols)``, ascending per
        trial.
    """
    resistance = np.asarray(resistance)
    if resistance.ndim != 3:
        raise ValueError("resistance ensemble must be (trials, rows, cols)")
    row_budget = resistance.sum(axis=2)
    col_budget = resistance.sum(axis=1)
    return (smallest_k_indices(row_budget, app_rows),
            smallest_k_indices(col_budget, app_cols))


def oblivious_selection_batch(trials: int, lines: int, k: int,
                              gen: np.random.Generator) -> np.ndarray:
    """Uniform random ``k``-subsets of ``lines``, one per trial, sorted.

    The batched placement baseline (scalar reference:
    :func:`repro.reliability.variation.oblivious_selection`): each trial's
    subset is the ``k`` smallest of one uniform draw per line — a
    Fisher-Yates-equivalent uniform subset — returned in ascending order.
    """
    if not 0 <= k <= lines:
        raise ValueError(f"need 0 <= k <= {lines}, got {k}")
    u = gen.random((trials, lines))
    if k == lines:
        picks = np.broadcast_to(np.arange(lines), (trials, lines)).copy()
    else:
        # Continuous draws are tie-free almost surely, so the k-smallest
        # subset is unique and argpartition is as deterministic as a sort.
        picks = np.argpartition(u, k - 1, axis=1)[:, :k] if k else \
            np.zeros((trials, 0), dtype=np.int64)
    return np.sort(picks, axis=1).astype(np.int64)
