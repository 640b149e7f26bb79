"""Vectorized fault-tolerance kernels operating on whole trial batches.

Paper anchors:

* **Fig. 6 / Section IV-C** — clean-subarray recovery: the greedy
  worst-line-elimination extractor, run for every trial of a
  :class:`~repro.faultlab.maps.DefectBatch` at once
  (:func:`~repro.reliability.defect_unaware.greedy_clean_subarray_batch`,
  which sits beside its scalar reference and is re-exported here) and
  **bit-exact** against it (both sides break ties toward the
  lowest-numbered line);
* **Section IV (manufacturing yield)** — clean-``k`` feasibility over the
  ensemble, the quantity behind
  :func:`repro.reliability.yield_model.monte_carlo_yield`;
* **Section IV-B (self-mapping)** — batched placement-validity and random
  mapping-success checks against defective fabrics, the vectorized
  counterparts of :func:`repro.reliability.lattice_mapping.placement_valid`
  and :func:`repro.reliability.lattice_mapping.map_lattice_random`.

All kernels take plain ``numpy`` arrays: a ``(trials, rows, cols)`` uint8
state tensor (codes of :mod:`repro.faultlab.maps`) or its boolean
defectiveness mask.
"""

from __future__ import annotations

import numpy as np

from ..crossbar.lattice import Lattice
from ..reliability.defect_unaware import (
    greedy_clean_subarray_batch,  # noqa: F401 - re-exported by repro.faultlab
    max_clean_square_exact,
    recovered_k_batch,
)
from ..xbareval import placement_valid_batch as _placement_valid_batch
from ..xbareval.placement import lattice_site_codes
from .maps import DefectBatch


# ----------------------------------------------------------------------
# Clean-subarray extraction (Fig. 6)
# ----------------------------------------------------------------------
def recovered_k_exact_batch(batch: DefectBatch) -> np.ndarray:
    """Exact recovered ``k`` per trial via the scalar branch-and-bound.

    Not vectorized (the search is exponential and per-map); provided so
    campaigns can run the validation-grade ``"exact"`` strategy through
    the same batched interface, and so tests can bound the greedy kernel.
    """
    return np.array([
        max_clean_square_exact(defect_map).k
        for defect_map in batch.iter_defect_maps()
    ], dtype=np.int64)


def clean_feasibility_batch(defective: np.ndarray, k: int) -> np.ndarray:
    """Per-trial "recovers a clean ``k x k``" flags (greedy lower bound)."""
    return recovered_k_batch(defective) >= k


# ----------------------------------------------------------------------
# Defect-aware mapping checks (Section IV-B)
# ----------------------------------------------------------------------
def target_site_codes(target: Lattice) -> np.ndarray:
    """Encode a target lattice's sites for the mapping kernels.

    Thin alias of :func:`repro.xbareval.lattice_site_codes` (the encoding
    moved into the evaluation core); kept so campaign code keeps one
    import site.
    """
    return lattice_site_codes(target)


def placement_valid_batch(states: np.ndarray, codes: np.ndarray,
                          row_maps: np.ndarray,
                          col_maps: np.ndarray) -> np.ndarray:
    """Validity of one placement per trial, shape ``(trials,)``.

    Delegates to :func:`repro.xbareval.placement_valid_batch`; per trial
    identical to the scalar
    :func:`repro.reliability.lattice_mapping.placement_valid`: every target
    site must land on a compatible fabric site, and no selected row may
    carry a stuck-closed site on an unused column (a permanently
    conducting stray bridge).
    """
    return _placement_valid_batch(states, codes, row_maps, col_maps)


def sample_line_subsets(gen: np.random.Generator, trials: int, n: int,
                        k: int) -> np.ndarray:
    """``(trials, k)`` sorted uniform ``k``-subsets of ``range(n)``.

    Sorted selections preserve relative line order — the same constraint
    the scalar mapper obeys (paths cross rows in order).
    """
    if k > n:
        raise ValueError("cannot draw more lines than the fabric has")
    scores = gen.random((trials, n))
    picks = np.argsort(scores, axis=1, kind="stable")[:, :k]
    return np.sort(picks, axis=1)


def map_lattice_random_batch(states: np.ndarray, codes: np.ndarray,
                             gen: np.random.Generator,
                             max_trials: int = 500
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Blind random placement search for every fabric of a batch at once.

    The batched counterpart of
    :func:`repro.reliability.lattice_mapping.map_lattice_random`: up to
    ``max_trials`` order-preserving random placements per fabric, stopping
    per trial at the first valid one.  Placements are drawn for the whole
    batch each attempt (already-mapped trials' draws are discarded), which
    keeps the stream layout-independent.

    Returns:
        ``(success, attempts)`` arrays of shape ``(trials,)``; ``attempts``
        is the 1-based attempt index that succeeded, or ``max_trials`` for
        failures — the same accounting as the scalar result's ``trials``.
    """
    trials, rows, cols = states.shape
    t_rows, t_cols = codes.shape
    if t_rows > rows or t_cols > cols:
        raise ValueError("target lattice larger than the fabric")
    success = np.zeros(trials, dtype=bool)
    attempts = np.full(trials, max_trials, dtype=np.int64)
    for attempt in range(1, max_trials + 1):
        if success.all():
            break
        row_maps = sample_line_subsets(gen, trials, rows, t_rows)
        col_maps = sample_line_subsets(gen, trials, cols, t_cols)
        valid = placement_valid_batch(states, codes, row_maps, col_maps)
        newly = valid & ~success
        attempts[newly] = attempt
        success |= valid
    return success, attempts
