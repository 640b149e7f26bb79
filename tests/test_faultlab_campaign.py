"""Tests for the campaign runner, store persistence and reporting."""

import math

import pytest

from repro.engine import JsonStore
from repro.faultlab import (
    CampaignSpec,
    analytic_crosschecks,
    run_campaign,
    wilson_interval,
)
from repro.reliability import clean_placement_probability


def _small_spec(**overrides):
    params = dict(
        n_values=(8,), k_values=(4, 6, 8), densities=(0.02, 0.1),
        trials=60, batch_size=16, seed=1,
    )
    params.update(overrides)
    return CampaignSpec(**params)


class TestCampaignSpec:
    def test_grid_expansion(self):
        spec = CampaignSpec(
            n_values=(4, 8), k_values=(4,), densities=(0.1, 0.2),
            models=("bernoulli", "clustered"), strategies=("greedy",),
            trials=10,
        )
        points = spec.points()
        assert len(points) == 2 * 2 * 2
        assert len({p.key() for p in points}) == len(points)

    def test_validation(self):
        with pytest.raises(ValueError):
            _small_spec(n_values=())
        with pytest.raises(ValueError):
            _small_spec(densities=(1.5,))
        with pytest.raises(ValueError):
            _small_spec(models=("weird",))
        with pytest.raises(ValueError):
            _small_spec(strategies=("weird",))
        with pytest.raises(ValueError):
            _small_spec(trials=0)

    def test_exact_strategy_limited_to_small_n(self):
        from repro.faultlab import MAX_EXACT_N

        with pytest.raises(ValueError, match="exact"):
            _small_spec(n_values=(MAX_EXACT_N + 1,),
                        strategies=("greedy", "exact"))
        _small_spec(n_values=(MAX_EXACT_N,), strategies=("exact",))
        _small_spec(n_values=(MAX_EXACT_N + 1,), strategies=("greedy",))

    @pytest.mark.parametrize("overrides,field", [
        (dict(n_values=(257,)), "n_values"),
        (dict(n_values=(100_000,)), "n_values"),
        # 257 trials of a 256 x 256 crossbar in one batch.
        (dict(n_values=(256,), trials=1000, batch_size=257), "batch_size"),
        # 2**30 + 2**16 crosspoint-trials in one point ...
        (dict(n_values=(256,), trials=16385), "trials"),
        # ... and 2**30 + 4 * 2**12 over eight points.
        (dict(n_values=(8, 256), densities=(0.05, 0.1),
              models=("bernoulli", "clustered"), trials=4096), "trials"),
    ])
    def test_cost_is_bounded(self, overrides, field):
        """Rejected on construction (never run): one served request asked
        numpy for about 10**10 elements per trial."""
        params = dict(n_values=(8,), k_values=(4,), densities=(0.1,),
                      trials=60, batch_size=256)
        with pytest.raises(ValueError, match=f"^{field} must"):
            CampaignSpec(**{**params, **overrides})

    def test_a_request_at_the_bounds_parses(self):
        from repro.engine.campaign import MAX_BATCH_ELEMENTS, MAX_WORK_ELEMENTS
        from repro.engine.jobs import MAX_FABRIC_SIDE

        area = MAX_FABRIC_SIDE ** 2
        spec = CampaignSpec(n_values=(MAX_FABRIC_SIDE,), k_values=(1,),
                            densities=(0.1,),
                            trials=MAX_WORK_ELEMENTS // area,
                            batch_size=MAX_BATCH_ELEMENTS // area)
        assert spec.trials * area == MAX_WORK_ELEMENTS
        # Only the trials a batch can hold count against the batch bound.
        CampaignSpec(n_values=(256,), k_values=(1,), densities=(0.1,),
                     trials=100, batch_size=100_000)

    def test_accepts_lists(self):
        spec = CampaignSpec(n_values=[4], k_values=[2], densities=[0.1])
        assert spec.n_values == (4,)

    @pytest.mark.parametrize("field,values,repeated", [
        ("n_values", (8, 8, 8), "8"),
        ("k_values", (4, 6, 4), "4"),
        ("densities", (0.1, 0.02, 0.1), "0.1"),
        ("densities", (0, 0.0), "0.0"),
        ("models", ("clustered", "clustered"), "'clustered'"),
        ("strategies", ("greedy", "exact", "greedy"), "'greedy'"),
    ])
    def test_a_repeated_value_is_rejected(self, field, values, repeated):
        """A repeated value would sample its point once per repetition
        (the store is probed before any point is persisted)."""
        with pytest.raises(ValueError,
                           match=f"'{field}' repeats {repeated}$"):
            _small_spec(**{field: values})

    def test_entropy_is_content_addressed(self):
        a, b = _small_spec().points()[:2]
        assert a.entropy() != b.entropy()
        assert a.entropy() == _small_spec().points()[0].entropy()


class TestRunCampaign:
    def test_serial_equals_pooled_bit_exact(self):
        spec = _small_spec()
        serial = run_campaign(spec, processes=1)
        pooled = run_campaign(spec, processes=2)
        assert [e.k_histogram for e in serial.estimates] == \
               [e.k_histogram for e in pooled.estimates]

    def test_seeded_reproducibility_and_seed_sensitivity(self):
        spec = _small_spec(trials=120)
        again = run_campaign(spec)
        assert [e.k_histogram for e in run_campaign(spec).estimates] == \
               [e.k_histogram for e in again.estimates]
        other = run_campaign(_small_spec(trials=120, seed=2))
        assert [e.k_histogram for e in again.estimates] != \
               [e.k_histogram for e in other.estimates]

    def test_histograms_account_every_trial(self):
        result = run_campaign(_small_spec())
        for est in result.estimates:
            assert sum(est.k_histogram) == est.point.trials
            assert len(est.k_histogram) == est.point.n + 1

    def test_store_round_trip(self, tmp_path):
        path = str(tmp_path / "campaigns.sqlite")
        spec = _small_spec()
        cold = run_campaign(spec, store=path)
        warm = run_campaign(spec, store=path)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(warm.estimates)
        assert warm.trials_sampled == 0
        assert [e.k_histogram for e in cold.estimates] == \
               [e.k_histogram for e in warm.estimates]

    def test_corrupted_store_entry_recomputes(self, tmp_path):
        path = str(tmp_path / "campaigns.sqlite")
        spec = _small_spec(densities=(0.1,), k_values=(6,))
        cold = run_campaign(spec, store=path)
        with JsonStore(path) as store:
            key = spec.points()[0].key()
            store.put(key, {"k_histogram": [1, 2], "trials": 99})
        healed = run_campaign(spec, store=path)
        assert healed.cache_hits == 0
        assert [e.k_histogram for e in healed.estimates] == \
               [e.k_histogram for e in cold.estimates]

    def test_exact_strategy_bounds_greedy(self):
        greedy = run_campaign(_small_spec(n_values=(5,), trials=40,
                                          strategies=("greedy",)))
        exact = run_campaign(_small_spec(n_values=(5,), trials=40,
                                         strategies=("exact",)))
        for g_est, e_est in zip(greedy.estimates, exact.estimates):
            assert e_est.mean_k >= g_est.mean_k - 1e-9

    def test_clustered_model_runs(self):
        result = run_campaign(_small_spec(models=("clustered",), trials=30))
        assert all(sum(e.k_histogram) == 30 for e in result.estimates)

    def test_yield_monotone_in_k_and_density(self):
        result = run_campaign(_small_spec(trials=200))
        for est in result.estimates:
            rates = [est.yield_rate(k) for k in (4, 6, 8)]
            assert rates == sorted(rates, reverse=True)
        low, high = result.estimates[0], result.estimates[1]
        assert low.point.density < high.point.density
        assert low.mean_k >= high.mean_k


class TestReporting:
    def test_wilson_interval_basics(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.06
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0) and low > 0.94
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert wilson_interval(0, 0) == (0.0, 1.0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_wilson_tightens_with_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_rows_and_render(self):
        result = run_campaign(_small_spec())
        rows = result.rows()
        assert len(rows) == len(result.estimates) * 3
        for row in rows:
            assert 0.0 <= row["wilson_low"] <= row["yield"] \
                <= row["wilson_high"] <= 1.0
        text = result.render()
        assert "yield (Wilson 95% CI)" in text
        assert "recovered clean-k degradation" in text

    def test_analytic_crosschecks_pass_and_k_equals_n_is_exact(self):
        result = run_campaign(_small_spec(trials=400))
        checks = analytic_crosschecks(result)
        assert all(c["within_markov"] and c["matches_exact"]
                   for c in checks)
        full = [c for c in checks if c["k"] == c["N"]]
        assert full
        for check in full:
            assert check["exact_prob"] == pytest.approx(
                clean_placement_probability(check["N"], check["N"],
                                            check["density"]))
        partial = [c for c in checks if c["k"] != c["N"]]
        assert all(math.isnan(c["exact_prob"]) for c in partial)


class TestJsonStore:
    def test_round_trip_and_overwrite(self, tmp_path):
        with JsonStore(str(tmp_path / "s.sqlite")) as store:
            assert store.get("missing") is None
            store.put("a", {"x": 1})
            assert store.get("a") == {"x": 1}
            store.put("a", [1, 2, 3])
            assert store.get("a") == [1, 2, 3]
            assert len(store) == 1

    def test_unparseable_payload_reads_as_miss(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with JsonStore(path) as store:
            store.put("k", {"ok": True})
            store._conn.execute(
                "UPDATE json_store SET payload = 'not json' WHERE key = 'k'")
            store._conn.commit()
            assert store.get("k") is None

    def test_persists_across_connections(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with JsonStore(path) as store:
            store.put_many([("a", 1), ("b", {"c": [2]})])
        with JsonStore(path) as store:
            assert store.get("a") == 1
            assert store.get("b") == {"c": [2]}


class TestCli:
    def test_faultsim_smoke(self, capsys):
        from repro.eval.cli import main

        code = main(["faultsim", "--n", "8", "--densities", "0.05",
                     "--trials", "20", "--batch-size", "10", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "faultlab campaign" in out
        assert "yield (Wilson 95% CI)" in out

    def test_faultsim_rejects_bad_grid(self, capsys):
        from repro.eval.cli import main

        code = main(["faultsim", "--n", "8", "--densities", "2.0",
                     "--trials", "5", "--no-cache"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_faultsim_rejects_an_oversized_crossbar(self, capsys,
                                                    monkeypatch):
        import dataclasses

        from repro.eval.cli import main
        from repro.grid.families import CAMPAIGNS

        def never(*_args, **_kwargs):
            raise AssertionError("an oversized campaign reached the runner")

        # Rejected before it runs: a run would ask for 10**10 crosspoints
        # per trial.
        monkeypatch.setitem(CAMPAIGNS, "faultsim", dataclasses.replace(
            CAMPAIGNS["faultsim"], run=never))
        code = main(["faultsim", "--n", "100000", "--k", "1",
                     "--densities", "0.1", "--no-cache"])
        assert code == 2
        assert "n_values must be in [1, 256]" in capsys.readouterr().err

    def test_faultsim_rejects_a_repeated_value(self, capsys):
        from repro.eval.cli import main

        code = main(["faultsim", "--n", "8", "8", "--densities", "0.05",
                     "--trials", "5", "--no-cache"])
        assert code == 2
        assert "'n_values' repeats 8" in capsys.readouterr().err
