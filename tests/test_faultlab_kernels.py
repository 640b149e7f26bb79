"""Property tests: faultlab's vectorized kernels vs the scalar references."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faultlab import (
    DefectBatch,
    greedy_clean_subarray_batch,
    recovered_k_batch,
    recovered_k_exact_batch,
)
from repro.reliability import (
    greedy_clean_subarray,
    max_clean_square_exact,
    perfect_map,
    random_defect_map,
)


def _stack(maps):
    """The batch of same-sized maps: their grids stacked trial by trial."""
    return DefectBatch(np.stack([m.grid() for m in maps]))


def _random_maps(seed, count, max_side=10):
    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        rows = rng.randint(1, max_side)
        cols = rng.randint(1, max_side)
        density = rng.choice([0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0])
        maps.append(random_defect_map(rows, cols, density, rng))
    return maps


# ----------------------------------------------------------------------
# Clean-subarray extraction
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=9),
    cols=st.integers(min_value=1, max_value=9),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_greedy_kernel_matches_scalar_exactly(rows, cols, density,
                                                       seed):
    """The deterministic greedy algorithm: vectorized == scalar, bit-exact
    (same selected lines, not just the same k)."""
    defect_map = random_defect_map(rows, cols, density, random.Random(seed))
    batch = _stack([defect_map])
    row_mask, col_mask = greedy_clean_subarray_batch(batch.defective())
    reference = greedy_clean_subarray(defect_map)
    assert tuple(np.nonzero(row_mask[0])[0].tolist()) == reference.rows
    assert tuple(np.nonzero(col_mask[0])[0].tolist()) == reference.cols


def test_greedy_kernel_matches_scalar_across_a_batch():
    maps = _random_maps(seed=1, count=60)
    # Same-shape groups batch together; check each group.
    by_shape: dict = {}
    for m in maps:
        by_shape.setdefault((m.rows, m.cols), []).append(m)
    for group in by_shape.values():
        batch = _stack(group)
        ks = recovered_k_batch(batch.defective())
        for trial, defect_map in enumerate(group):
            assert ks[trial] == greedy_clean_subarray(defect_map).k


@settings(max_examples=25, deadline=None)
@given(
    side=st.integers(min_value=1, max_value=7),
    density=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_greedy_bounded_by_exact(side, density, seed):
    defect_map = random_defect_map(side, side, density, random.Random(seed))
    batch = _stack([defect_map])
    greedy_k = int(recovered_k_batch(batch.defective())[0])
    exact_k = int(recovered_k_exact_batch(batch)[0])
    assert greedy_k <= exact_k
    assert exact_k == max_clean_square_exact(defect_map).k


def test_perfect_batch_recovers_everything():
    batch = _stack([perfect_map(6, 4)] * 3)
    row_mask, col_mask = greedy_clean_subarray_batch(batch.defective())
    assert row_mask.all() and col_mask.all()
    assert (recovered_k_batch(batch.defective()) == 4).all()
