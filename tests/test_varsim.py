"""Suite for the batched variation-campaign subsystem (repro.varsim).

Covers the tentpole contracts:

* ensemble and selection kernels bit-identical to their scalar
  :mod:`repro.reliability.variation` references (ties included — the
  stable-sort determinism fix);
* seeded campaigns bit-reproducible serial vs pooled and across store
  hits/misses;
* the constant-0 guard and the CLI entry point.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Literal
from repro.crossbar.lattice import Lattice
from repro.engine.store import JsonStore
from repro.eval.cli import main as cli_main
from repro.reliability.variation import (
    VariationMap,
    oblivious_selection,
    variation_aware_selection,
)
from repro.varsim import (
    VariationBatch,
    VariationCampaignSpec,
    lattice_content_hash,
    lognormal_variation_batch,
    oblivious_selection_batch,
    run_variation_campaign,
    smallest_k_indices,
    variation_aware_selection_batch,
)

XNOR2 = Lattice(2, [[Literal(0, True), Literal(1, True)],
                    [Literal(1, False), Literal(0, False)]])


# ----------------------------------------------------------------------
# Ensembles
# ----------------------------------------------------------------------
def test_lognormal_batch_is_one_deterministic_draw():
    a = lognormal_variation_batch(5, 3, 4, 0.5, np.random.default_rng(9))
    b = lognormal_variation_batch(5, 3, 4, 0.5, np.random.default_rng(9))
    assert np.array_equal(a.resistance, b.resistance)
    assert a.resistance.shape == (5, 3, 4) and a.trials == 5
    assert (a.resistance > 0).all()


def test_lognormal_batch_sigma_zero_is_nominal():
    batch = lognormal_variation_batch(3, 2, 2, 0.0,
                                      np.random.default_rng(0), nominal=2.5)
    assert np.allclose(batch.resistance, 2.5)


def test_lognormal_batch_rejects_bad_parameters():
    gen = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lognormal_variation_batch(2, 2, 2, -0.1, gen)
    with pytest.raises(ValueError):
        lognormal_variation_batch(2, 2, 2, 0.1, gen, nominal=0.0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lognormal_variation_batch(2, 2, 2, sigma, gen)
    for nominal in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lognormal_variation_batch(2, 2, 2, 0.1, gen, nominal=nominal)
    with pytest.raises(ValueError):
        lognormal_variation_batch(-1, 2, 2, 0.1, gen)


def test_variation_batch_submaps_gather():
    resistance = np.arange(1, 2 * 3 * 3 + 1, dtype=float).reshape(2, 3, 3)
    batch = VariationBatch(resistance)
    rows = np.array([[0, 2], [1, 2]])
    cols = np.array([[1, 2], [0, 1]])
    sub = batch.submaps(rows, cols)
    assert sub.shape == (2, 2, 2)
    assert np.array_equal(sub[0], resistance[0][np.ix_([0, 2], [1, 2])])
    assert np.array_equal(sub[1], resistance[1][np.ix_([1, 2], [0, 1])])
    assert np.array_equal(batch.to_variation_map(1).resistance,
                          resistance[1])


# ----------------------------------------------------------------------
# Selection kernels vs the scalar references
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 8),
       st.data())
def test_aware_selection_batch_matches_scalar(seed, rows, cols, data):
    app_rows = data.draw(st.integers(1, rows))
    app_cols = data.draw(st.integers(1, cols))
    gen = np.random.default_rng(seed)
    resistance = gen.lognormal(0.0, 0.6, size=(4, rows, cols))
    got_rows, got_cols = variation_aware_selection_batch(
        resistance, app_rows, app_cols)
    for t in range(4):
        want_rows, want_cols = variation_aware_selection(
            VariationMap(resistance[t]), app_rows, app_cols)
        assert got_rows[t].tolist() == want_rows
        assert got_cols[t].tolist() == want_cols


def test_aware_selection_ties_pick_lowest_indices():
    """The stable-sort determinism fix, scalar and batched.

    With every budget identical, any non-stable selection could return an
    arbitrary platform-dependent subset; the contract is the lowest
    physical line indices.
    """
    flat = VariationMap(np.ones((6, 6)))
    rows, cols = variation_aware_selection(flat, 3, 2)
    assert rows == [0, 1, 2]
    assert cols == [0, 1]
    batch_rows, batch_cols = variation_aware_selection_batch(
        np.ones((5, 6, 6)), 3, 2)
    assert np.array_equal(batch_rows, np.tile([0, 1, 2], (5, 1)))
    assert np.array_equal(batch_cols, np.tile([0, 1], (5, 1)))


def test_aware_selection_partial_ties_on_threshold():
    # budgets: rows 0 and 3 share the smallest value, rows 2 and 4 share
    # the threshold value -> stable pick is index order within each tie.
    budgets = np.array([[1.0, 5.0, 2.0, 1.0, 2.0, 9.0]])
    assert smallest_k_indices(budgets, 3).tolist() == [[0, 2, 3]]
    assert smallest_k_indices(budgets, 4).tolist() == [[0, 2, 3, 4]]
    resistance = np.broadcast_to(budgets[0][None, :, None] / 6.0,
                                 (1, 6, 6)).copy()
    got_rows, _ = variation_aware_selection_batch(resistance, 3, 6)
    want_rows, _ = variation_aware_selection(
        VariationMap(resistance[0]), 3, 6)
    assert got_rows[0].tolist() == want_rows == [0, 2, 3]


def test_smallest_k_indices_edges():
    budgets = np.array([[3.0, 1.0, 2.0]])
    assert smallest_k_indices(budgets, 0).shape == (1, 0)
    assert smallest_k_indices(budgets, 3).tolist() == [[0, 1, 2]]
    with pytest.raises(ValueError):
        smallest_k_indices(budgets, 4)


def test_oblivious_selection_batch_is_uniform_subset():
    gen = np.random.default_rng(5)
    picks = oblivious_selection_batch(200, 8, 3, gen)
    assert picks.shape == (200, 3)
    # sorted, unique per trial, full range covered across trials
    assert (np.diff(picks, axis=1) > 0).all()
    assert set(np.unique(picks)) == set(range(8))
    # scalar reference has the same support
    rng = random.Random(5)
    rows, _ = oblivious_selection(VariationMap(np.ones((8, 8))), 3, 3, rng)
    assert len(rows) == 3 and rows == sorted(set(rows))


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def _spec(**overrides) -> VariationCampaignSpec:
    defaults = dict(lattice=XNOR2, sigmas=(0.2, 0.6), crossbar_rows=10,
                    crossbar_cols=10, trials=60, batch_size=25, seed=3)
    defaults.update(overrides)
    return VariationCampaignSpec(**defaults)


def test_campaign_rejects_a_repeated_sigma():
    with pytest.raises(ValueError, match="'sigmas' repeats 0.2$"):
        _spec(sigmas=(0.2, 0.6, 0.2))


def test_campaign_serial_vs_pooled_bit_identical():
    serial = run_variation_campaign(_spec(), processes=1)
    pooled = run_variation_campaign(_spec(), processes=2)
    assert [e.aware_delays for e in serial.estimates] == \
           [e.aware_delays for e in pooled.estimates]
    assert [e.oblivious_delays for e in serial.estimates] == \
           [e.oblivious_delays for e in pooled.estimates]
    for est in serial.estimates:
        assert est.trials == 60
        assert all(d > 0 for d in est.aware_delays)


def test_campaign_independent_of_sigma_order():
    forward = run_variation_campaign(_spec(sigmas=(0.2, 0.6)))
    backward = run_variation_campaign(_spec(sigmas=(0.6, 0.2)))
    forward_by = {est.point.sigma: est for est in forward.estimates}
    backward_by = {est.point.sigma: est for est in backward.estimates}
    assert forward_by[0.6].aware_delays == backward_by[0.6].aware_delays
    assert forward_by[0.2].oblivious_delays == \
        backward_by[0.2].oblivious_delays


def test_campaign_store_round_trip(tmp_path):
    path = str(tmp_path / "campaigns.sqlite")
    cold = run_variation_campaign(_spec(), store=path)
    warm = run_variation_campaign(_spec(), store=path)
    assert cold.cache_hits == 0 and cold.trials_sampled == 120
    assert warm.cache_hits == 2 and warm.trials_sampled == 0
    assert [e.aware_delays for e in cold.estimates] == \
           [e.aware_delays for e in warm.estimates]
    assert all(e.cache_hit for e in warm.estimates)


def test_campaign_store_corruption_reads_as_miss():
    store = JsonStore(":memory:")
    spec = _spec(sigmas=(0.4,))
    first = run_variation_campaign(spec, store=store)
    key = spec.points()[0].key()
    store.put(key, {"aware": [1.0], "oblivious": "garbage"})
    again = run_variation_campaign(spec, store=store)
    assert again.cache_hits == 0
    assert first.estimates[0].aware_delays == \
        again.estimates[0].aware_delays
    store.close()


def test_campaign_aware_not_worse_and_monotone_gain():
    result = run_variation_campaign(_spec(sigmas=(0.1, 0.8), trials=120,
                                          batch_size=60))
    rows = result.rows()
    for row in rows:
        assert row["aware_mean"] <= row["oblivious_mean"] * 1.02
    assert rows[1]["mean_gain"] > rows[0]["mean_gain"]
    assert "aware vs oblivious" in result.render()


def test_campaign_rejects_bad_specs():
    with pytest.raises(ValueError):
        _spec(sigmas=())
    with pytest.raises(ValueError):
        _spec(crossbar_rows=1)
    with pytest.raises(ValueError):
        _spec(trials=0)
    with pytest.raises(ValueError):
        _spec(nominal=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _spec(sigmas=(0.2, value))
        with pytest.raises(ValueError):
            _spec(nominal=value)
    with pytest.raises(ValueError, match="constant-0"):
        run_variation_campaign(_spec(lattice=Lattice(1, [[False]]),
                                     crossbar_rows=4, crossbar_cols=4))


@pytest.mark.parametrize("overrides,field", [
    (dict(crossbar_rows=257), "crossbar_rows"),
    (dict(crossbar_rows=100_000, crossbar_cols=100_000), "crossbar_rows"),
    (dict(crossbar_cols=257), "crossbar_cols"),
    (dict(crossbar_rows=256, crossbar_cols=256, trials=1000,
          batch_size=257), "batch_size"),
    # Two sigmas of 8193 trials on 256 x 256: 2**30 + 2**17.
    (dict(crossbar_rows=256, crossbar_cols=256, trials=8193,
          batch_size=128), "trials"),
])
def test_campaign_cost_is_bounded(overrides, field):
    """Rejected on construction, never run."""
    with pytest.raises(ValueError, match=f"^{field} must"):
        _spec(**overrides)


def test_campaign_at_the_bounds_parses():
    _spec(crossbar_rows=256, crossbar_cols=256, trials=8192, batch_size=256)


def test_lattice_content_hash_tracks_content_not_identity():
    twin = Lattice(2, [[Literal(0, True), Literal(1, True)],
                       [Literal(1, False), Literal(0, False)]])
    assert lattice_content_hash(XNOR2) == lattice_content_hash(twin)
    other = XNOR2.with_site(0, 0, True)
    assert lattice_content_hash(XNOR2) != lattice_content_hash(other)


def test_cli_varsweep_smoke(capsys):
    code = cli_main(["varsweep", "--bench", "xnor2", "--sigmas", "0.3",
                     "--crossbar-rows", "6", "--crossbar-cols", "6",
                     "--trials", "20", "--batch-size", "10", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "varsim campaign" in out


def test_cli_varsweep_rejects_a_repeated_sigma(capsys):
    code = cli_main(["varsweep", "--bench", "xnor2", "--sigmas", "0.3",
                     "0.3", "--trials", "5", "--no-cache"])
    assert code == 2
    assert "'sigmas' repeats 0.3" in capsys.readouterr().err


def test_cli_varsweep_rejects_an_oversized_crossbar(capsys, monkeypatch):
    import dataclasses

    from repro.grid.families import CAMPAIGNS

    def never(*_args, **_kwargs):
        raise AssertionError("an oversized campaign reached the runner")

    monkeypatch.setitem(CAMPAIGNS, "varsweep", dataclasses.replace(
        CAMPAIGNS["varsweep"], run=never))
    code = cli_main(["varsweep", "--bench", "xnor2", "--sigmas", "0.3",
                     "--crossbar-rows", "100000", "--crossbar-cols", "8",
                     "--no-cache"])
    assert code == 2
    assert "crossbar_rows must be at most 256" in capsys.readouterr().err


def test_cli_varsweep_unknown_bench(capsys):
    code = cli_main(["varsweep", "--bench", "no-such-bench", "--no-cache"])
    assert code == 2
    assert "error" in capsys.readouterr().err
