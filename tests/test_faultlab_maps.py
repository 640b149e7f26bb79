"""Tests for faultlab's batched defect maps and generators."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faultlab import (
    OK,
    STUCK_CLOSED,
    STUCK_OPEN,
    DefectBatch,
    bernoulli_defect_batch,
    clustered_defect_batch,
)
from repro.reliability import (
    DefectMap,
    clustered_defect_map,
    random_defect_map,
)
from repro.reliability.defects import CLUSTER_RADIUS
from repro.reliability.faults import CHUNK_ELEMENTS


def _stack(maps):
    """The batch of same-sized maps: their grids stacked trial by trial."""
    return DefectBatch(np.stack([m.grid() for m in maps]))


class TestDefectBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            DefectBatch(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            DefectBatch(np.zeros((2, 3, 3), dtype=np.int64))
        bad = np.zeros((1, 2, 2), dtype=np.uint8)
        bad[0, 0, 0] = 7
        with pytest.raises(ValueError):
            DefectBatch(bad)

    def test_round_trip_through_scalar_maps(self):
        rng = random.Random(3)
        maps = [random_defect_map(5, 4, d, rng)
                for d in (0.0, 0.1, 0.3, 0.8)]
        batch = _stack(maps)
        assert batch.states.shape == (4, 5, 4)
        assert [DefectMap.from_grid(grid) for grid in batch.states] == maps

    def test_densities_match_scalar(self):
        rng = random.Random(5)
        maps = [random_defect_map(6, 6, 0.2, rng) for _ in range(8)]
        batch = _stack(maps)
        assert np.allclose(batch.defective().mean(axis=(1, 2)),
                           [m.density for m in maps])


class TestBernoulliBatch:
    def test_validation(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bernoulli_defect_batch(1, 2, 2, 1.5, gen)
        with pytest.raises(ValueError):
            bernoulli_defect_batch(1, 2, 2, 0.1, gen,
                                   stuck_open_fraction=-0.1)

    def test_extremes(self):
        gen = np.random.default_rng(0)
        assert (bernoulli_defect_batch(4, 5, 5, 0.0, gen).states == OK).all()
        full = bernoulli_defect_batch(4, 5, 5, 1.0, gen,
                                      stuck_open_fraction=1.0)
        assert (full.states == STUCK_OPEN).all()
        closed = bernoulli_defect_batch(4, 5, 5, 1.0, gen,
                                        stuck_open_fraction=0.0)
        assert (closed.states == STUCK_CLOSED).all()

    def test_statistics_match_scalar_reference(self):
        """Same parameters -> same defect rate and open/closed split as
        the scalar ``random_defect_map`` ensemble (within MC noise)."""
        trials, n, density, sof = 300, 16, 0.1, 0.8
        gen = np.random.default_rng(7)
        batch = bernoulli_defect_batch(trials, n, n, density, gen, sof)
        rng = random.Random(7)
        scalar = [random_defect_map(n, n, density, rng, sof)
                  for _ in range(trials)]
        vec_density = float(batch.defective().mean())
        ref_density = sum(m.density for m in scalar) / trials
        assert abs(vec_density - ref_density) < 0.01
        vec_defects = batch.defective().sum()
        vec_open = (batch.states == STUCK_OPEN).sum() / vec_defects
        ref_counts = [m.codes.count(STUCK_OPEN) for m in scalar]
        ref_open = sum(ref_counts) / sum(m.num_defects for m in scalar)
        assert abs(float(vec_open) - ref_open) < 0.03

    def test_seeded_reproducibility(self):
        a = bernoulli_defect_batch(5, 8, 8, 0.2, np.random.default_rng(11))
        b = bernoulli_defect_batch(5, 8, 8, 0.2, np.random.default_rng(11))
        assert (a.states == b.states).all()


class TestClusteredBatch:
    def test_statistics_match_scalar_reference(self):
        trials, n, density = 250, 16, 0.1
        gen = np.random.default_rng(13)
        batch = clustered_defect_batch(trials, n, n, density, gen)
        scalar = [clustered_defect_map(n, n, density, random.Random(i))
                  for i in range(trials)]
        vec_density = float(batch.defective().mean())
        ref_density = sum(m.density for m in scalar) / trials
        # Both lose the same mass to out-of-bounds / duplicate attempts.
        assert abs(vec_density - ref_density) < 0.02
        # Clustering: defects bunch, so per-map occupied-row spread is
        # narrower than the Bernoulli equivalent.
        bern = bernoulli_defect_batch(trials, n, n, density,
                                      np.random.default_rng(13))
        clustered_rows = (batch.defective().any(axis=2).sum(axis=1)).mean()
        bern_rows = (bern.defective().any(axis=2).sum(axis=1)).mean()
        assert clustered_rows < bern_rows

    def test_budget_respected(self):
        trials, n, density = 50, 12, 0.2
        batch = clustered_defect_batch(trials, n, n, density,
                                       np.random.default_rng(3))
        budget = round(density * n * n)
        per_trial = batch.defective().sum(axis=(1, 2))
        assert (per_trial <= budget).all()

    def test_zero_density(self):
        batch = clustered_defect_batch(4, 8, 8, 0.0,
                                       np.random.default_rng(0))
        assert (batch.states == OK).all()

    def test_small_budget_regime_matches_scalar(self):
        """budget=1 (N=8, d=0.02): the attempt cap must not starve the
        batch of the retry attempts the scalar generator gets."""
        trials, n, density = 4000, 8, 0.02
        vec = clustered_defect_batch(trials, n, n, density,
                                     np.random.default_rng(1))
        ref = np.mean([clustered_defect_map(n, n, density,
                                            random.Random(i)).density
                       for i in range(trials)])
        assert abs(float(vec.defective().mean()) - ref) < 0.15 * ref + 1e-4


@settings(max_examples=30, deadline=None)
@given(
    trials=st.integers(min_value=1, max_value=5),
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_batch_state_codes_round_trip(trials, rows, cols, density,
                                               seed):
    """Any generated batch survives the scalar-map round trip unchanged."""
    gen = np.random.default_rng(seed)
    batch = bernoulli_defect_batch(trials, rows, cols, density, gen)
    rebuilt = _stack([DefectMap.from_grid(grid) for grid in batch.states])
    assert (rebuilt.states == batch.states).all()


def _dense_bernoulli(trials, rows, cols, density, gen, share):
    """The Bernoulli sampler as one dense uniform draw (the oracle)."""
    u = gen.random((trials, rows, cols))
    return np.where(u < density * share, np.uint8(STUCK_OPEN),
                    np.where(u < density, np.uint8(STUCK_CLOSED),
                             np.uint8(OK)))


def _dense_clustered(trials, rows, cols, density, gen, share):
    """The clustered sampler over the whole padded attempt tensor, with a
    three-key lexsort for the first attempt per crosspoint (the oracle)."""
    states = np.zeros((trials, rows, cols), dtype=np.uint8)
    target = density * rows * cols
    budget = round(target)
    defects_per_cluster = max(2.0, CLUSTER_RADIUS * 2)
    num_clusters = max(1, round(target / defects_per_cluster)) \
        if target > 0 else 0
    if trials == 0 or budget <= 0 or num_clusters == 0:
        return states
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
    opens = gen.random(attempt_shape) < share

    attempts = num_clusters * max_size
    live = np.arange(max_size)[None, None, :] < sizes[..., None]
    in_bounds = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
    valid = (live & in_bounds).reshape(trials, attempts)
    flat = (np.clip(r, 0, rows - 1) * cols
            + np.clip(c, 0, cols - 1)).astype(np.int64)
    flat = flat.reshape(trials, attempts)
    opens = opens.reshape(trials, attempts)
    order = np.broadcast_to(np.arange(attempts), (trials, attempts))
    trial_ids = np.broadcast_to(np.arange(trials)[:, None],
                                (trials, attempts))
    key = np.where(valid, flat, rows * cols)
    perm = np.lexsort((order.ravel(), key.ravel(), trial_ids.ravel()))
    sorted_trials = trial_ids.ravel()[perm]
    sorted_key = key.ravel()[perm]
    first = np.ones(trials * attempts, dtype=bool)
    first[1:] = ((sorted_trials[1:] != sorted_trials[:-1])
                 | (sorted_key[1:] != sorted_key[:-1]))
    keep = np.empty(trials * attempts, dtype=bool)
    keep[perm] = first
    keep = keep.reshape(trials, attempts) & valid
    place = keep & (np.cumsum(keep, axis=1) <= budget)
    t_idx, a_idx = np.nonzero(place)
    states.reshape(trials, -1)[t_idx, flat[t_idx, a_idx]] = np.where(
        opens[t_idx, a_idx], STUCK_OPEN, STUCK_CLOSED)
    return states


@settings(max_examples=80, deadline=None)
@given(
    sampler=st.sampled_from(["bernoulli", "clustered"]),
    trials=st.integers(min_value=0, max_value=6),
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.0, max_value=1.0),
    share=st.floats(min_value=0.0, max_value=1.0),
    chunk=st.sampled_from([1, 40, 400, CHUNK_ELEMENTS]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_samplers_match_dense_reference(sampler, trials, rows, cols,
                                                 density, share, chunk, seed):
    """Chunked, live-only sampling draws what the dense oracle draws: the
    same batch and the same generator end state, however the trials fall
    into chunks (a budget of 1 puts each trial in a chunk of its own)."""
    sample, oracle = {
        "bernoulli": (bernoulli_defect_batch, _dense_bernoulli),
        "clustered": (clustered_defect_batch, _dense_clustered)}[sampler]
    gen = np.random.default_rng(seed)
    with mock.patch("repro.faultlab.maps.CHUNK_ELEMENTS", chunk):
        batch = sample(trials, rows, cols, density, gen,
                       stuck_open_fraction=share)
    reference = np.random.default_rng(seed)
    expected = oracle(trials, rows, cols, density, reference, share)
    assert np.array_equal(batch.states, expected)
    assert gen.bit_generator.state == reference.bit_generator.state
