"""Property suite for the batched delay kernel (repro.xbareval.delay).

The batched Bellman-Ford relaxation must agree with the scalar Dijkstra
reference :func:`repro.reliability.variation.best_path_delay` on every
grid — conducting and non-conducting alike (the scalar ``None`` reads as
``np.inf``), to float tolerance (equal-cost path ties may be broken
differently, so the agreement bound is relative, not bit-exact).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Literal
from repro.crossbar.lattice import Lattice
from repro.reliability.variation import (
    VariationMap,
    best_path_delay,
    lattice_critical_delay,
)
from repro.xbareval import (
    best_path_delay_batch,
    onset_critical_delay_batch,
)

RTOL = 1e-9


@st.composite
def weighted_grid_batches(draw):
    batch = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    cells = batch * rows * cols
    bits = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    weights = draw(st.lists(
        st.floats(min_value=0.05, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=cells, max_size=cells))
    conduction = np.array(bits, dtype=bool).reshape(batch, rows, cols)
    resistance = np.array(weights).reshape(batch, rows, cols)
    return conduction, resistance


@st.composite
def small_lattices(draw, max_vars: int = 3, max_side: int = 3):
    n = draw(st.integers(1, max_vars))
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    site = st.one_of(
        st.just(True),
        st.just(False),
        st.builds(Literal, st.integers(0, n - 1), st.booleans()),
    )
    sites = draw(st.lists(st.lists(site, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return Lattice(n, sites)


def _assert_matches_scalar(got: np.ndarray, conduction: np.ndarray,
                           resistance: np.ndarray) -> None:
    for b in range(conduction.shape[0]):
        want = best_path_delay(conduction[b].tolist(), resistance[b])
        if want is None:
            assert np.isinf(got[b])
        else:
            assert np.isclose(got[b], want, rtol=RTOL)


@settings(max_examples=150, deadline=None)
@given(weighted_grid_batches())
def test_best_path_delay_batch_matches_dijkstra(case):
    conduction, resistance = case
    got = best_path_delay_batch(conduction, resistance)
    _assert_matches_scalar(got, conduction, resistance)


@settings(max_examples=60, deadline=None)
@given(weighted_grid_batches())
def test_best_path_delay_batch_broadcast_resistance(case):
    """A single shared (R, C) map must broadcast across the batch."""
    conduction, resistance = case
    shared = resistance[0]
    got = best_path_delay_batch(conduction, shared)
    full = np.broadcast_to(shared, conduction.shape)
    _assert_matches_scalar(got, conduction, full)


def test_best_path_delay_batch_non_conducting_grid():
    grids = np.zeros((3, 4, 4), dtype=bool)
    grids[1] = True          # one fully conducting grid in the middle
    res = np.full((3, 4, 4), 2.0)
    got = best_path_delay_batch(grids, res)
    assert np.isinf(got[0]) and np.isinf(got[2])
    assert np.isclose(got[1], 8.0)   # straight 4-site column of cost 2


def test_best_path_delay_batch_rejects_bad_inputs():
    with pytest.raises(ValueError):
        best_path_delay_batch(np.ones((2, 2), dtype=bool), np.ones((2, 2)))
    with pytest.raises(ValueError):
        best_path_delay_batch(np.ones((1, 2, 2), dtype=bool),
                              np.zeros((1, 2, 2)))


def test_best_path_delay_batch_rejects_nan_resistance():
    """NaN is rejected up front; it would otherwise keep the fixpoint
    loop from ever settling (NaN never compares equal).  The call runs
    on a daemon thread so a regression fails here instead of hanging."""
    grids = np.ones((1, 3, 3), dtype=bool)
    res = np.ones((1, 3, 3))
    res[0, 1, 1] = np.nan
    outcome = []

    def call():
        try:
            best_path_delay_batch(grids, res)
            outcome.append("returned")
        except ValueError as error:
            outcome.append(str(error))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive(), "still running after 10 s"
    assert outcome == ["resistances must be positive"]
    # an infinite resistance stays accepted: the path routes around it
    res[0, 1, 1] = np.inf
    assert best_path_delay_batch(grids, res).tolist() == [3.0]


@settings(max_examples=60, deadline=None)
@given(small_lattices(), st.integers(0, 2 ** 32 - 1))
def test_lattice_critical_delay_batch_matches_scalar(lattice, seed):
    table = lattice.to_truth_table()
    gen = np.random.default_rng(seed)
    ensemble = gen.lognormal(0.0, 0.4,
                             size=(4, lattice.rows, lattice.cols))
    onset = np.fromiter(table.minterms(), dtype=np.int64)
    if table.count_ones() == 0:
        with pytest.raises(ValueError):
            onset_critical_delay_batch(lattice, onset, ensemble)
        return
    got = onset_critical_delay_batch(lattice, onset, ensemble)
    for t in range(ensemble.shape[0]):
        want = lattice_critical_delay(lattice, VariationMap(ensemble[t]),
                                      table)
        assert np.isclose(got[t], want, rtol=RTOL)


def test_critical_delay_chunked_expansion_matches_unchunked(monkeypatch):
    """Chunking over trials must not change any delay."""
    from repro.xbareval import delay as delay_module

    lattice = Lattice(2, [[Literal(0, True), Literal(1, True)],
                          [Literal(1, False), Literal(0, False)]])
    gen = np.random.default_rng(3)
    ensemble = gen.lognormal(0.0, 0.5, size=(13, 2, 2))
    onset = np.fromiter(lattice.to_truth_table().minterms(), dtype=np.int64)
    full = onset_critical_delay_batch(lattice, onset, ensemble)
    monkeypatch.setattr(delay_module, "CHUNK_GRIDS", 4)
    chunked = delay_module.onset_critical_delay_batch(lattice, onset, ensemble)
    assert np.array_equal(full, chunked)


def test_constant_zero_lattice_raises_everywhere():
    """Satellite fix: constant-0 must raise, not read as zero delay."""
    lattice = Lattice(1, [[False]])
    variation = VariationMap(np.ones((1, 1)))
    with pytest.raises(ValueError, match="constant-0"):
        lattice_critical_delay(lattice, variation)
    with pytest.raises(ValueError, match="constant-0"):
        onset_critical_delay_batch(lattice, np.array([], dtype=np.int64),
                                   np.ones((2, 1, 1)))
