"""Batched defect maps for Monte-Carlo fault-tolerance campaigns.

Paper anchor: Section IV (defect tolerance) — the defect regimes whose
scalar, one-chip-at-a-time models live in :mod:`repro.reliability.defects`.
Here a whole *ensemble* of crossbars is one dense ``(trials, rows, cols)``
``uint8`` tensor of the same crosspoint codes (``OK``, ``STUCK_OPEN``,
``STUCK_CLOSED`` of :mod:`repro.reliability.defects`), so the Section IV
questions (Fig. 6 recovery, yield) can be answered for thousands of
sampled chips per NumPy kernel call:

* :class:`DefectBatch` — the tensor; one trial is
  ``DefectMap.from_grid(batch.states[t])``, and a map's
  :meth:`~repro.reliability.defects.DefectMap.grid` stacks into a batch;
* :func:`bernoulli_defect_batch` — iid Bernoulli defects (global density),
  the batched analogue of
  :func:`~repro.reliability.defects.random_defect_map`;
* :func:`clustered_defect_batch` — Poisson cluster centres with Gaussian
  spread (local density variation), the batched analogue of
  :func:`~repro.reliability.defects.clustered_defect_map`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..reliability.defects import (
    CLUSTER_RADIUS,
    OK,
    STUCK_CLOSED,
    STUCK_OPEN,
    STUCK_OPEN_FRACTION,
    check_model,
)
from ..reliability.faults import CHUNK_ELEMENTS


@dataclass(frozen=True)
class DefectBatch:
    """An ensemble of same-sized defect maps as one dense uint8 tensor."""

    states: np.ndarray  # (trials, rows, cols) uint8, values in {0, 1, 2}

    def __post_init__(self) -> None:
        if self.states.ndim != 3:
            raise ValueError("defect batch tensor must be 3-D "
                             "(trials, rows, cols)")
        if self.states.dtype != np.uint8:
            raise ValueError("defect batch tensor must be uint8")
        if self.states.size and int(self.states.max()) > STUCK_CLOSED:
            raise ValueError("defect batch contains unknown state codes")

    def defective(self) -> np.ndarray:
        """Boolean ``(trials, rows, cols)`` mask of non-OK crosspoints."""
        return self.states != OK


def _validate(trials: int, rows: int, cols: int, density: float,
              stuck_open_fraction: float) -> None:
    if trials < 0:
        raise ValueError("trials must be non-negative")
    check_model(rows, cols, density, stuck_open_fraction)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _trial_chunks(trials: int, per_trial: int) -> Iterator[slice]:
    """Consecutive trial slices of at most :data:`CHUNK_ELEMENTS` elements
    (``per_trial`` each), one trial at least."""
    step = max(1, CHUNK_ELEMENTS // max(1, per_trial))
    for start in range(0, trials, step):
        yield slice(start, min(start + step, trials))


def bernoulli_defect_batch(trials: int, rows: int, cols: int, density: float,
                           gen: np.random.Generator,
                           stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectBatch:
    """Independent Bernoulli defects for a whole ensemble, one uniform each.

    Distribution-equivalent to ``trials`` calls of
    :func:`~repro.reliability.defects.random_defect_map`: each crosspoint
    is defective with probability ``density``, and a defect is stuck-open
    with probability ``stuck_open_fraction``.  A single uniform draw
    decides both: ``u < density`` marks the defect and — since ``u`` is
    then uniform on ``[0, density)`` — ``u < density * stuck_open_fraction``
    splits opens from closeds with the right conditional probability.  The
    uniforms are drawn in trial chunks of at most :data:`CHUNK_ELEMENTS`,
    the same stream as one ``(trials, rows, cols)`` draw.
    """
    _validate(trials, rows, cols, density, stuck_open_fraction)
    states = np.empty((trials, rows, cols), dtype=np.uint8)
    for chunk in _trial_chunks(trials, rows * cols):
        u = gen.random((chunk.stop - chunk.start, rows, cols))
        states[chunk] = np.where(
            u < density * stuck_open_fraction,
            np.uint8(STUCK_OPEN),
            np.where(u < density, np.uint8(STUCK_CLOSED), np.uint8(OK)),
        )
    return DefectBatch(states)


def clustered_defect_batch(trials: int, rows: int, cols: int, density: float,
                           gen: np.random.Generator,
                           stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectBatch:
    """Clustered defects, batched: Poisson centres with Gaussian spread.

    Distribution-equivalent to ``trials`` calls of
    :func:`~repro.reliability.defects.clustered_defect_map`: per trial,
    ``num_clusters`` uniform centres each attempt an
    ``Exp(defects_per_cluster)``-sized burst of Gaussian-offset defects;
    attempts that fall outside the crossbar or on an already-defective
    crosspoint are skipped, and placements stop once the per-trial budget
    ``round(density * rows * cols)`` is reached — exactly the scalar
    semantics, evaluated for all trials at once.

    Cost: the row offsets, column offsets and open/closed uniforms are
    three draws over the ``(trials, num_clusters, max_size)`` tensor of
    bursts padded to the largest one, consumed from ``gen`` in that order
    and in trial chunks of at most :data:`CHUNK_ELEMENTS` (the same stream
    as one dense draw each).  Each chunk keeps only its live attempts
    (a tenth to a fifth of the padding on 16 to 128 wide crossbars), and
    everything after the draws — bounds, first attempt per crosspoint,
    budget, scatter — grows with the live attempts.
    """
    _validate(trials, rows, cols, density, stuck_open_fraction)
    states = np.zeros((trials, rows, cols), dtype=np.uint8)
    target = density * rows * cols
    budget = round(target)
    defects_per_cluster = max(2.0, CLUSTER_RADIUS * 2)
    num_clusters = max(1, round(target / defects_per_cluster)) if target > 0 else 0
    if trials == 0 or budget <= 0 or num_clusters == 0:
        return DefectBatch(states)

    # Per-cluster attempt counts.  The cap only bounds the padded attempt
    # tensor: it sits at the ~2e-9 tail of the exponential, so unlike a
    # budget-sized cap it does not starve small-budget regimes of the
    # retry attempts the scalar generator gets (out-of-bounds/duplicate
    # attempts consume no budget on either side).
    attempt_cap = max(16, round(defects_per_cluster * 20))
    sizes = np.maximum(
        1, np.rint(gen.exponential(defects_per_cluster,
                                   size=(trials, num_clusters))))
    sizes = np.minimum(sizes, attempt_cap).astype(np.int64)
    max_size = int(sizes.max())

    centre_r = gen.uniform(0, rows - 1, size=(trials, num_clusters))
    centre_c = gen.uniform(0, cols - 1, size=(trials, num_clusters))

    def live(draw) -> np.ndarray:
        """One padded draw, chunk by chunk, kept at its live attempts in
        (trial, cluster, attempt) order: the scalar generator's order."""
        kept = []
        for chunk in _trial_chunks(trials, num_clusters * max_size):
            padded = draw((chunk.stop - chunk.start, num_clusters, max_size))
            kept.append(padded[np.arange(max_size) < sizes[chunk, :, None]])
        return np.concatenate(kept)

    r = np.rint(np.repeat(centre_r.ravel(), sizes.ravel())
                + live(lambda shape: gen.normal(0.0, CLUSTER_RADIUS, shape)))
    c = np.rint(np.repeat(centre_c.ravel(), sizes.ravel())
                + live(lambda shape: gen.normal(0.0, CLUSTER_RADIUS, shape)))
    opens = live(gen.random) < stuck_open_fraction
    trial = np.repeat(np.arange(trials), sizes.sum(axis=1))

    inside = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    trial, opens = trial[inside], opens[inside]
    key = (trial * (rows * cols) + r[inside].astype(np.int64) * cols
           + c[inside].astype(np.int64))
    # Among the attempts on one crosspoint of one trial only the first
    # places a defect (scalar "skip duplicates").  The keys are
    # trial-major, so the first attempts, back in attempt order, come
    # grouped by trial.
    _, first = np.unique(key, return_index=True)
    first.sort()
    # Budget: the scalar loop stops placing once `budget` defects landed;
    # duplicates and out-of-bounds attempts never consume budget.
    rank = np.arange(first.size) - np.searchsorted(trial[first], trial[first])
    placed = first[rank < budget]
    states.reshape(-1)[key[placed]] = np.where(
        opens[placed], np.uint8(STUCK_OPEN), np.uint8(STUCK_CLOSED))
    return DefectBatch(states)
