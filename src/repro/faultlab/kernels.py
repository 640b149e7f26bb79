"""Vectorized fault-tolerance kernels operating on whole trial batches.

Paper anchor: **Fig. 6 / Section IV-C** — clean-subarray recovery.  The
greedy worst-line-elimination extractor runs for every trial of a
:class:`~repro.faultlab.maps.DefectBatch` at once
(:func:`~repro.reliability.defect_unaware.greedy_clean_subarray_batch`,
which sits beside its scalar reference and is re-exported here) and is
**bit-exact** against it (both sides break ties toward the
lowest-numbered line); it takes the batch's boolean ``(trials, rows,
cols)`` defectiveness mask.  :func:`recovered_k_exact_batch` runs the
exact search over a whole :class:`~repro.faultlab.maps.DefectBatch`.
"""

from __future__ import annotations

import numpy as np

from ..reliability.defect_unaware import (
    greedy_clean_subarray_batch,  # noqa: F401 - re-exported by repro.faultlab
    max_clean_square_exact,
    recovered_k_batch,  # noqa: F401 - re-exported by repro.faultlab
)
from ..reliability.defects import DefectMap
from .maps import DefectBatch


def recovered_k_exact_batch(batch: DefectBatch) -> np.ndarray:
    """Exact recovered ``k`` per trial via the scalar branch-and-bound.

    Not vectorized (the search is exponential and per-map); provided so
    campaigns can run the validation-grade ``"exact"`` strategy through
    the same batched interface, and so tests can bound the greedy kernel.
    """
    return np.array([
        max_clean_square_exact(DefectMap.from_grid(grid)).k
        for grid in batch.states
    ], dtype=np.int64)
