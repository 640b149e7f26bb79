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

import numpy as np

from ..reliability.defects import (
    CLUSTER_RADIUS,
    OK,
    STUCK_CLOSED,
    STUCK_OPEN,
    STUCK_OPEN_FRACTION,
    check_model,
)


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
def bernoulli_defect_batch(trials: int, rows: int, cols: int, density: float,
                           gen: np.random.Generator,
                           stuck_open_fraction: float = STUCK_OPEN_FRACTION) -> DefectBatch:
    """Independent Bernoulli defects for a whole ensemble in two draws.

    Distribution-equivalent to ``trials`` calls of
    :func:`~repro.reliability.defects.random_defect_map`: each crosspoint
    is defective with probability ``density``, and a defect is stuck-open
    with probability ``stuck_open_fraction``.  A single uniform draw
    decides both: ``u < density`` marks the defect and — since ``u`` is
    then uniform on ``[0, density)`` — ``u < density * stuck_open_fraction``
    splits opens from closeds with the right conditional probability.
    """
    _validate(trials, rows, cols, density, stuck_open_fraction)
    u = gen.random((trials, rows, cols))
    states = np.where(
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
    """
    _validate(trials, rows, cols, density, stuck_open_fraction)
    states = np.zeros((trials, rows, cols), dtype=np.uint8)
    target = density * rows * cols
    budget = round(target)
    defects_per_cluster = max(2.0, CLUSTER_RADIUS * 2)
    num_clusters = max(1, round(target / defects_per_cluster)) if target > 0 else 0
    if trials == 0 or budget <= 0 or num_clusters == 0:
        return DefectBatch(states)

    # Per-cluster attempt counts.  The cap only bounds the dense attempt
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
    attempt_shape = (trials, num_clusters, max_size)
    r = np.rint(centre_r[..., None]
                + gen.normal(0.0, CLUSTER_RADIUS, size=attempt_shape))
    c = np.rint(centre_c[..., None]
                + gen.normal(0.0, CLUSTER_RADIUS, size=attempt_shape))
    opens = gen.random(attempt_shape) < stuck_open_fraction

    # Flatten to (trials, attempts) in cluster-major attempt order — the
    # order the scalar generator visits them in.
    attempts = num_clusters * max_size
    live = np.arange(max_size)[None, None, :] < sizes[..., None]
    in_bounds = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    valid = (live & in_bounds).reshape(trials, attempts)
    flat = (np.clip(r, 0, max(rows - 1, 0)) * cols
            + np.clip(c, 0, max(cols - 1, 0))).astype(np.int64)
    flat = flat.reshape(trials, attempts)
    opens = opens.reshape(trials, attempts)

    # Order-preserving dedup per trial: among valid attempts on the same
    # crosspoint only the first places a defect (scalar "skip duplicates").
    order = np.broadcast_to(np.arange(attempts), (trials, attempts))
    trial_ids = np.broadcast_to(np.arange(trials)[:, None], (trials, attempts))
    # Invalid attempts are pushed to a sentinel bucket so they never shadow
    # a valid first occurrence.
    key = np.where(valid, flat, rows * cols)
    perm = np.lexsort((order.ravel(), key.ravel(), trial_ids.ravel()))
    sorted_trials = trial_ids.ravel()[perm]
    sorted_key = key.ravel()[perm]
    first = np.ones(trials * attempts, dtype=bool)
    first[1:] = (sorted_trials[1:] != sorted_trials[:-1]) | \
                (sorted_key[1:] != sorted_key[:-1])
    keep = np.empty(trials * attempts, dtype=bool)
    keep[perm] = first
    keep = keep.reshape(trials, attempts) & valid

    # Budget: the scalar loop stops placing once `budget` defects landed;
    # duplicates and out-of-bounds attempts never consume budget.
    rank = np.cumsum(keep, axis=1)
    place = keep & (rank <= budget)

    t_idx, a_idx = np.nonzero(place)
    codes = np.where(opens[t_idx, a_idx], STUCK_OPEN,
                     STUCK_CLOSED).astype(np.uint8)
    states.reshape(trials, -1)[t_idx, flat[t_idx, a_idx]] = codes
    return DefectBatch(states)
