"""Tests for repro.grid: configs, the claim protocol, workers, CLI, server.

The claim-protocol tests drive :class:`repro.engine.store.JsonStore`
directly with injectable clocks (no real waiting); the end-to-end tests
use real worker subprocesses on a shared store file, including a SIGKILL
mid-sweep followed by ``grid resume``.
"""

import json
import logging
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import FaultToleranceSpec, JsonStore, SynthesisJob
from repro.engine import store as store_module
from repro.eval.benchsuite import by_name
from repro.eval.cli import main as cli_main
from repro.faultlab import CampaignSpec, run_campaign
from repro.faultlab import campaign as faultsim_campaign
from repro.grid import (
    GridConfig,
    GridConfigError,
    GridPointError,
    config_from_dict,
    export_rows,
    families,
    grid_id_for,
    grid_status,
    iter_grid_points,
    load_config,
    plan,
    point_key,
    release_claims,
    work_loop,
)
from repro.grid.runner import run_point
from repro.obs import get_logger, metrics
from repro.synthesis import synthesize_lattice_dual
from repro.varsim import VariationCampaignSpec


def _bench_config(**overrides):
    """A cheap grid (SOP-metric extraction) for protocol/runner tests."""
    data = {
        "name": "t",
        "family": "bench",
        "points": [{"bench": "xnor2"}, {"bench": "xor3"}, {"bench": "maj3"}],
    }
    data.update(overrides)
    return config_from_dict(data)


#: Sampling parameters shared by the grid/campaign bit-identity tests.
_FAULTSIM_PARAMS = dict(trials=40, seed=3, batch_size=16,
                        stuck_open_fraction=0.8)


def _faultsim_config(densities=(0.05, 0.2), n=6, **overrides):
    data = {
        "name": "fs",
        "family": "faultsim",
        "grid": {"density": list(densities)},
        "fixed": {"n": n, **_FAULTSIM_PARAMS},
    }
    data.update(overrides)
    return config_from_dict(data)


def _faultsim_spec(densities=(0.05, 0.2), n=6, **overrides):
    params = dict(n_values=(n,), k_values=(0,), densities=tuple(densities),
                  **_FAULTSIM_PARAMS)
    params.update(overrides)
    return CampaignSpec(**params)


class TestGridConfig:
    def test_cartesian_expansion_order_and_fixed_merge(self):
        config = config_from_dict({
            "name": "g", "family": "bench",
            "grid": {"a": [1, 2], "b": ["x", "y"]},
            "fixed": {"c": 7, "a": 99},
        })
        points = config.expand()
        # Last axis varies fastest; axis values win over fixed constants.
        assert points == [
            {"c": 7, "a": 1, "b": "x"}, {"c": 7, "a": 1, "b": "y"},
            {"c": 7, "a": 2, "b": "x"}, {"c": 7, "a": 2, "b": "y"},
        ]

    def test_explicit_points_keep_order(self):
        config = _bench_config()
        assert [p["bench"] for p in config.expand()] == \
            ["xnor2", "xor3", "maj3"]

    def test_validation_errors(self):
        with pytest.raises(GridConfigError, match="unknown family"):
            config_from_dict({"name": "g", "family": "nope",
                              "points": [{}]})
        with pytest.raises(GridConfigError, match="mutually exclusive"):
            config_from_dict({"name": "g", "family": "bench",
                              "grid": {"a": [1]}, "points": [{}]})
        with pytest.raises(GridConfigError, match="axes table"):
            config_from_dict({"name": "g", "family": "bench"})
        with pytest.raises(GridConfigError, match="unknown grid config"):
            config_from_dict({"name": "g", "family": "bench",
                              "points": [{}], "liase_seconds": 5})
        with pytest.raises(GridConfigError, match="non-empty list"):
            config_from_dict({"name": "g", "family": "bench",
                              "grid": {"a": []}})
        with pytest.raises(GridConfigError):
            _bench_config(workers=0)
        with pytest.raises(GridConfigError):
            _bench_config(lease_seconds=-1)

    @pytest.mark.parametrize("key, value", [
        ("lease_seconds", float("nan")), ("lease_seconds", float("inf")),
        ("lease_seconds", True), ("lease_seconds", "60"),
        ("workers", 2.5), ("workers", "7"), ("workers", True),
        ("max_attempts", 2.5), ("processes", "1"),
    ])
    def test_policy_values_are_checked_not_coerced(self, key, value):
        # A NaN lease deadline is stored as NULL, which the expired-lease
        # sweep never matches: a crashed worker's points stay claimed.
        with pytest.raises(GridConfigError, match=key):
            _bench_config(**{key: value})
        with pytest.raises(GridConfigError, match=key):
            GridConfig(name="t", family="bench", points=((("bench", "xnor2"),),),
                       **{key: value})
        from repro.server.protocol import ProtocolError, parse_submission

        config = {"name": "t", "family": "bench",
                  "points": [{"bench": "xnor2"}], key: value}
        with pytest.raises(ProtocolError, match=key):
            parse_submission({"kind": "grid", "config": config})

    @pytest.mark.parametrize("key, value", [
        ("name", None), ("name", 7), ("name", ["t"]),
        ("store", 7), ("store", ["g.sqlite"]),
    ], ids=["name-null", "name-int", "name-list", "store-int", "store-list"])
    def test_names_are_checked_not_coerced(self, key, value):
        # A name is a string: null is no grid named "None", and 7 no
        # store file named "7".
        with pytest.raises(GridConfigError, match=key):
            _bench_config(**{key: value})
        with pytest.raises(GridConfigError, match=key):
            GridConfig(**{"name": "t", "family": "bench",
                          "points": ((("bench", "xnor2"),),), key: value})
        from repro.server.protocol import ProtocolError, parse_submission

        config = {"name": "t", "family": "bench",
                  "points": [{"bench": "xnor2"}], key: value}
        with pytest.raises(ProtocolError, match=key):
            parse_submission({"kind": "grid", "config": config})

    @pytest.mark.parametrize("data", [
        {"grid": {"n": [8, 8], "density": [0.05]}, "fixed": {"trials": 20}},
        # trials=1000 is the default, so the two dicts are one point.
        {"points": [{"n": 8, "density": 0.05},
                    {"n": 8, "density": 0.05, "trials": 1000}]},
    ], ids=["repeated-axis-value", "spelled-out-default"])
    def test_a_repeated_point_is_a_config_error(self, data, tmp_path,
                                                capsys):
        """The grid holds one row per key, so a repeated point would be
        announced twice and finish with fewer rows than points."""
        from repro.server.protocol import ProtocolError, parse_submission

        raw = {"name": "dup", "family": "faultsim", **data}
        config = config_from_dict(raw)
        (key,) = {point_key("faultsim", params) for params in config.expand()}
        with pytest.raises(GridConfigError, match="twice") as excinfo:
            config.keyed_points()
        assert key in str(excinfo.value)
        with JsonStore() as store, pytest.raises(GridConfigError):
            plan(config, store)
        with pytest.raises(ProtocolError, match="twice"):
            parse_submission({"kind": "grid", "config": raw})
        assert cli_main(["grid", "plan", _write_config(tmp_path, raw),
                         "--store", str(tmp_path / "s.sqlite")]) == 2
        assert key in capsys.readouterr().err

    def test_load_config_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "j", "family": "bench", "points": [{"bench": "xnor2"}],
            "lease_seconds": 5,
        }))
        config = load_config(str(path))
        assert config.name == "j"
        assert config.lease_seconds == 5.0  # an integer count of seconds

    def test_load_config_toml_gated_by_interpreter(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text('name = "t"\nfamily = "bench"\n'
                        'points = [{bench = "xnor2"}]\n')
        if sys.version_info < (3, 11):
            with pytest.raises(GridConfigError, match="JSON"):
                load_config(str(path))
        else:
            assert load_config(str(path)).family == "bench"

    def test_bad_json_reports_the_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{not json")
        with pytest.raises(GridConfigError, match="bad JSON"):
            load_config(str(path))

    def test_grid_id_is_content_addressed(self):
        config = config_from_dict({
            "name": "g", "family": "faultsim",
            "grid": {"n": [6, 8], "density": [0.05]},
            "fixed": _FAULTSIM_PARAMS,
        })
        reordered = config_from_dict({
            "name": "g", "family": "faultsim",
            "grid": {"density": [0.05], "n": [6, 8]},
            "fixed": _FAULTSIM_PARAMS,
        })
        keys = [point_key("faultsim", p) for p in config.expand()]
        keys2 = [point_key("faultsim", p) for p in reordered.expand()]
        assert grid_id_for(config, keys) == grid_id_for(reordered, keys2)
        smaller = config_from_dict({
            "name": "g", "family": "faultsim",
            "grid": {"n": [6], "density": [0.05]},
            "fixed": _FAULTSIM_PARAMS,
        })
        keys3 = [point_key("faultsim", p) for p in smaller.expand()]
        assert grid_id_for(smaller, keys3) != grid_id_for(config, keys)


class TestFamilies:
    def test_job_key_hashes_the_packed_bits_like_the_table(self):
        import random

        from repro.boolean.truthtable import TruthTable
        from repro.engine import SynthesisJob

        rng = random.Random(12)
        for n in range(1, 13):
            size = 1 << n
            for bits in (0, (1 << size) - 1, rng.getrandbits(size)):
                job = SynthesisJob("f", n, bits)
                table_hash = TruthTable.from_bits(n, bits).content_hash()
                assert families.job_key(job) == (
                    f"f/{n}/{table_hash}/{','.join(job.strategies)}/None")

    def test_synthesis_addresses_are_unchanged(self):
        from repro.server.protocol import parse_submission

        # Recorded before job_key stopped building the dense table.
        served = parse_submission({"kind": "synthesis", "jobs": [
            {"bench": "xnor2"}, {"label": "f", "n": 2, "bits": 6},
            {"label": "g", "n": 9, "bits": (1 << 512) - 1,
             "strategies": ["dual", "optimal"]}]})
        assert served.coalesce_key == (
            "synthesis:3b7f77efc45bbba4a43c1362033d53af"
            "82d190ae77a546dfe6091578f7d28657")
        strategies = "dual,dreducible,pcircuit,optimal/None"
        assert point_key("synthesis", {"bench": "xor3"}) == (
            "grid/synthesis/v2/xor3/3/2327d686b6a3f83db11ef0b6d3651a83"
            f"54d3d0a42039dcf3f44cdbf2d5c9aa49/{strategies}")
        assert point_key("synthesis", {"label": "h", "n": 1, "bits": 1}) == (
            "grid/synthesis/v2/h/1/d3292e2125d60b4c3c73c99544f79740"
            f"9911a328817bb62dad567f02245561a6/{strategies}")

    def test_faultsim_key_is_the_campaign_point_key(self):
        params = {"n": 6, "density": 0.05, **_FAULTSIM_PARAMS}
        spec = faultsim_campaign.spec_from_params(params, point=True)
        point = spec.points()[0]
        assert point_key("faultsim", params) == point.key()

    def test_varsweep_parses_build_each_lattice_once(self, monkeypatch):
        """Parsing a varsweep point synthesizes the bench's lattice once per
        process, not once per parse (the server parses every submission
        on its event loop)."""
        import repro.synthesis

        calls = []

        def counting(table, build=repro.synthesis.synthesize_lattice_dual):
            calls.append(table)
            return build(table)

        monkeypatch.setattr(repro.synthesis, "synthesize_lattice_dual",
                            counting)
        params = {"bench": "mux4", "sigma": 0.2, "trials": 20}
        keys = {point_key("varsweep", params) for _ in range(5)}
        payload = families.compute("varsweep", params)
        assert families.validate_payload("varsweep", params, payload)
        assert len(keys) == 1 and len(calls) <= 1

    def test_missing_required_params_raise(self):
        with pytest.raises(GridPointError, match="density"):
            point_key("faultsim", {"n": 6})
        with pytest.raises(GridPointError, match="bench"):
            point_key("varsweep", {"sigma": 0.2})
        with pytest.raises(GridPointError):
            point_key("bench", {"bench": "no-such-bench"})

    def test_unknown_params_are_named(self):
        with pytest.raises(GridPointError, match="trails"):
            point_key("faultsim", {"n": 6, "density": 0.05, "trails": 50})

    def test_unknown_family_raises_config_error(self):
        with pytest.raises(GridConfigError, match="unknown family"):
            point_key("mystery", {})

    def test_bench_compute_matches_sop_metrics(self):
        from repro.eval.benchsuite import by_name

        payload = families.compute("bench", {"bench": "xnor2"})
        expected = by_name("xnor2").function.sop_metrics()
        assert payload == {"bench": "xnor2", **expected}
        assert families.validate_payload("bench", {"bench": "xnor2"},
                                         payload)
        assert not families.validate_payload("bench", {"bench": "xnor2"},
                                             {"bench": "xnor2"})

    def test_synthesis_compute_is_the_engine_record(self):
        from repro.engine import BatchEngine, SynthesisJob
        from repro.eval.benchsuite import by_name

        params = {"bench": "xnor2", "strategies": "dual,optimal"}
        payload = families.compute("synthesis", params)
        with BatchEngine() as engine:
            (result,) = engine.run([SynthesisJob.from_function(
                by_name("xnor2").function, "xnor2", ("dual", "optimal"))])
        assert payload == _without_cache_hit(
            families.job_result_record(result))
        assert payload["rows"] * payload["cols"] == payload["area"]
        assert families.validate_payload("synthesis", params, payload)
        with pytest.raises(GridPointError, match="unknown strategies"):
            point_key("synthesis", {"bench": "xnor2",
                                    "strategies": "alchemy"})

    @pytest.mark.parametrize("field,value", [
        ("mapping_trials", 0), ("mapping_trials", -1), ("mapping_trials", 2.5),
        ("fabric_rows", 0), ("fabric_rows", 8.5), ("fabric_cols", -3),
        ("fabric_cols", True), ("mapping_trials", 10_001),
        ("mapping_trials", 10 ** 9), ("fabric_rows", 257),
        ("fabric_cols", 100_000)])
    def test_fault_tolerance_sizes_must_be_positive_integers(self, field,
                                                             value):
        spec = {"defect_density": 0.1, field: value}
        with pytest.raises(GridPointError, match=field):
            point_key("synthesis", {"bench": "xnor2",
                                    "fault_tolerance": spec})

    @pytest.mark.parametrize("build, field", [
        (lambda: FaultToleranceSpec(seed=1.5), "seed"),
        (lambda: SynthesisJob(None, 2, 6), "label"),
        (lambda: SynthesisJob("f", True, 1), "n"),
        (lambda: SynthesisJob("f", 2, 6.9), "bits"),
        (lambda: CampaignSpec(n_values=(8,), k_values=(4,),
                              densities=(0.05,), trials=2.5), "trials"),
        (lambda: VariationCampaignSpec(
            lattice=synthesize_lattice_dual(by_name("xnor2").function.on),
            sigmas=(0.2,), crossbar_rows=8, crossbar_cols=8, seed=1.5),
         "seed"),
        (lambda: GridConfig(name="t", family="bench", store=7,
                            points=((("bench", "xnor2"),),)), "store"),
    ], ids=["FaultToleranceSpec", "SynthesisJob-label", "SynthesisJob-n",
            "SynthesisJob-bits", "CampaignSpec", "VariationCampaignSpec",
            "GridConfig"])
    def test_request_dataclasses_check_their_field_types(self, build, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            build()

    def test_ints_are_stored_as_floats_and_lists_as_tuples(self):
        """An integer given for a float field is that float, so it keys
        the same point or job as the float."""
        spec = CampaignSpec(n_values=[8], k_values=[4], densities=[0])
        assert spec.n_values == (8,) and spec.densities == (0.0,)
        assert type(spec.densities[0]) is float
        as_int, as_float = (families.parse_synthesis_job(
            {"bench": "xnor2", "fault_tolerance": {"defect_density": value}})
            for value in (0, 0.0))
        assert families.job_key(as_int) == families.job_key(as_float)

    def test_fault_tolerance_payload_carries_the_report(self):
        """A fault-tolerance point's payload holds the engine's report; a
        payload without it (stored before the report was recorded) is
        not valid, so plan leaves the row pending and the drain
        recomputes it."""
        from dataclasses import asdict

        from repro.engine import BatchEngine, FaultToleranceSpec, SynthesisJob
        from repro.eval.benchsuite import by_name

        spec = {"defect_density": 0.1, "redundancy": "tmr", "seed": 3}
        params = {"bench": "xnor2", "strategies": ["dual"],
                  "fault_tolerance": spec}
        payload = families.compute("synthesis", params)
        with BatchEngine() as engine:
            (result,) = engine.run([SynthesisJob.from_function(
                by_name("xnor2").function, "xnor2", ("dual",),
                FaultToleranceSpec(**spec))])
        assert payload["fault_tolerance"] == asdict(result.fault_tolerance)
        assert families.validate_payload("synthesis", params, payload)
        old = {key: value for key, value in payload.items()
               if key != "fault_tolerance"}
        for stored in (old, {**payload, "fault_tolerance": {"mapped": 1}}):
            assert not families.validate_payload("synthesis", params, stored)
        # A point without fault tolerance must not carry a report.
        plain = {"bench": "xnor2", "strategies": ["dual"]}
        assert "fault_tolerance" not in families.compute("synthesis", plain)
        assert not families.validate_payload("synthesis", plain, payload)
        config = config_from_dict({"name": "ft", "family": "synthesis",
                                   "points": [params]})
        with JsonStore() as store:
            store.put(point_key("synthesis", params), old)
            grid_id, _, _ = plan(config, store)
            assert store.grid_counts(grid_id) == {"pending": 1}
            work_loop(config, grid_id, store, "w0")
            [row] = export_rows(store, grid_id)
            assert row["result"] == payload

    def test_tampered_synthesis_payload_is_recomputed(self):
        """A stored payload whose lattice does not implement the point's
        function is not valid: plan leaves the row pending, and the drain
        recomputes and overwrites it."""
        params = {"bench": "xnor2", "strategies": ["dual"]}
        config = config_from_dict({"name": "tampered", "family": "synthesis",
                                   "points": [params]})
        good = families.compute("synthesis", params)
        key = point_key("synthesis", params)
        tampered = [
            {**good, "lattice": "1", "rows": 1, "cols": 1, "area": 1},
            {**good, "lattice": "garbage tokens !!"},
            {**good, "area": good["area"] + 1},
            "not a payload",
        ]
        for payload in tampered:
            assert not families.validate_payload("synthesis", params,
                                                 payload)
        with JsonStore() as store:
            store.put(key, tampered[0])
            grid_id, _, _ = plan(config, store)
            assert store.grid_counts(grid_id) == {"pending": 1}
            work_loop(config, grid_id, store, "w0")
            [row] = export_rows(store, grid_id)
            assert row["status"] == "done" and row["worker"] == "w0"
            assert row["result"] == good
            assert store.get(key) == good


class TestFrontEndsShareKeys:
    """The CLI, the server and the grid fill in the same defaults."""

    @pytest.mark.parametrize("cli, request_fields, point", [
        (["varsweep", "--bench", "xnor2", "--sigmas", "0.3"],
         {"kind": "varsweep", "bench": "xnor2", "sigmas": [0.3]},
         {"bench": "xnor2", "sigma": 0.3}),
        (["varsweep", "--bench", "sym6_2", "--sigmas", "0.3"],
         {"kind": "varsweep", "bench": "sym6_2", "sigmas": [0.3]},
         {"bench": "sym6_2", "sigma": 0.3}),
        (["faultsim", "--n", "8", "--densities", "0.05"],
         {"kind": "faultsim", "n_values": [8], "k_values": [4],
          "densities": [0.05]},
         {"n": 8, "density": 0.05}),
    ], ids=["varsweep-xnor2", "varsweep-sym6_2", "faultsim"])
    def test_same_point_key(self, tmp_path, capsys, cli, request_fields,
                            point):
        from repro.server.protocol import parse_submission

        trials = {"trials": 8, "batch_size": 4}
        store = str(tmp_path / "cli.sqlite")
        assert cli_main([*cli, "--trials", "8", "--batch-size", "4",
                         "--cache", store]) == 0
        served = parse_submission({**request_fields, **trials})
        (key,) = [p.key() for p in served.spec.points()]
        assert point_key(served.kind, {**point, **trials}) == key
        with JsonStore(store) as persisted:
            assert len(persisted) == 1 and persisted.get(key) is not None


def _without_cache_hit(record):
    return {name: value for name, value in record.items()
            if name != "cache_hit"}


class TestOneSynthesisPath:
    """Served and grid synthesis are one compute path over one cache.

    Every suite function with n <= 4 under the default strategies: the
    grid payload is the served record minus ``cache_hit``, and on one
    store file either front end answers from what the other computed.
    """

    @staticmethod
    def _serve(path, names):
        from repro.server.protocol import parse_submission
        from repro.server.worker import WorkerBridge

        events = []
        bridge = WorkerBridge(cache_path=path, processes=1)
        try:
            bridge.run_submission(
                parse_submission({"kind": "synthesis", "jobs": [
                    {"bench": name} for name in names]}),
                lambda kind, record: events.append((kind, record)))
        finally:
            bridge.close()
        assert events[-1] == ("done", None)
        return [record for kind, record in events if kind == "point"]

    @staticmethod
    def _sweep(path, names):
        config = config_from_dict({"name": "n4", "family": "synthesis",
                                   "grid": {"bench": names}})
        with JsonStore(path) as store:
            grid_id, _, _ = plan(config, store)
            work_loop(config, grid_id, store, "w0")
            rows = export_rows(store, grid_id)
        assert [row["status"] for row in rows] == ["done"] * len(names)
        return [row["result"] for row in rows]

    @pytest.fixture(scope="class")
    def answers(self, tmp_path_factory):
        from repro.eval.benchsuite import suite

        names = [benchmark.name for benchmark in suite(max_vars=4)]
        served_path = str(tmp_path_factory.mktemp("served") / "s.sqlite")
        grid_path = str(tmp_path_factory.mktemp("grid") / "g.sqlite")
        return (names, served_path, self._serve(served_path, names),
                grid_path, self._sweep(grid_path, names))

    def test_grid_payload_is_the_served_record(self, answers):
        names, _, served, _, swept = answers
        assert [record["label"] for record in served] == names
        assert not any(record["cache_hit"] for record in served)
        assert swept == [_without_cache_hit(record) for record in served]

    def test_grid_after_a_served_batch_races_nothing(self, answers,
                                                     monkeypatch):
        from repro.engine import engine as engine_module

        names, served_path, served, _, _ = answers
        races = []
        real = engine_module.run_portfolio
        monkeypatch.setattr(engine_module, "run_portfolio",
                            lambda *args: races.append(args) or real(*args))
        swept = self._sweep(served_path, names)
        assert races == []
        assert swept == [_without_cache_hit(record) for record in served]

    def test_served_after_a_grid_sweep_hits_the_cache(self, answers):
        names, _, served, grid_path, _ = answers
        again = self._serve(grid_path, names)
        assert all(record["cache_hit"] for record in again)
        assert [_without_cache_hit(record) for record in again] == \
            [_without_cache_hit(record) for record in served]


class TestClaimProtocol:
    def _seed(self, store, keys=("p1", "p2"), grid_id="g"):
        store.grid_add_points(grid_id,
                              [(key, {"k": key}, None) for key in keys])
        return grid_id

    def test_claim_complete_cycle(self):
        with JsonStore() as store:
            grid_id = self._seed(store)
            row = store.grid_claim(grid_id, "wA", 60.0)
            assert (row.point_key, row.status, row.worker, row.attempts) \
                == ("p1", "claimed", "wA", 1)
            assert store.grid_complete(grid_id, "p1", "wA", {"v": 1})
            done = store.grid_get(grid_id, "p1")
            assert done.status == "done" and done.result == {"v": 1}
            assert done.finished_at is not None
            # Next claim hands out the remaining row, then nothing.
            assert store.grid_claim(grid_id, "wA", 60.0).point_key == "p2"
            assert store.grid_claim(grid_id, "wA", 60.0) is None

    def test_complete_is_worker_guarded(self):
        with JsonStore() as store:
            grid_id = self._seed(store, keys=("p1",))
            store.grid_claim(grid_id, "wA", 60.0)
            assert not store.grid_complete(grid_id, "p1", "wB", {"v": 2})
            assert store.grid_get(grid_id, "p1").status == "claimed"
            assert store.grid_complete(grid_id, "p1", "wA", {"v": 1})

    def test_lease_expiry_returns_row_to_pending(self):
        with JsonStore() as store:
            grid_id = self._seed(store, keys=("p1",))
            store.grid_claim(grid_id, "wA", 10.0, now=100.0)
            # Within the lease nothing is claimable.
            assert store.grid_claim(grid_id, "wB", 10.0, now=105.0) is None
            # Past the deadline the sweep frees the row and wB claims it.
            row = store.grid_claim(grid_id, "wB", 10.0, now=111.0)
            assert (row.point_key, row.worker, row.attempts) == \
                ("p1", "wB", 2)
            # wA's late answer is discarded; wB's lands.
            assert not store.grid_complete(grid_id, "p1", "wA", {"v": "A"})
            assert store.grid_complete(grid_id, "p1", "wB", {"v": "B"})
            assert store.grid_get(grid_id, "p1").result == {"v": "B"}

    def test_lease_expiry_at_max_attempts_fails_the_row(self):
        with JsonStore() as store:
            grid_id = self._seed(store, keys=("p1",))
            now = 0.0
            for attempt in range(1, 3):
                row = store.grid_claim(grid_id, f"w{attempt}", 10.0,
                                       max_attempts=2, now=now)
                assert row is not None and row.attempts == attempt
                now += 11.0
            # Third sweep: attempts exhausted, the row is terminal.
            assert store.grid_claim(grid_id, "w3", 10.0, max_attempts=2,
                                    now=now) is None
            row = store.grid_get(grid_id, "p1")
            assert row.status == "failed"
            assert "lease expired" in row.error

    def test_grid_fail_retries_then_lands_failed(self):
        with JsonStore() as store:
            grid_id = self._seed(store, keys=("p1",))
            store.grid_claim(grid_id, "wA", 60.0)
            assert store.grid_fail(grid_id, "p1", "wA", "boom",
                                   max_attempts=2) == "pending"
            assert store.grid_get(grid_id, "p1").error == "boom"
            store.grid_claim(grid_id, "wA", 60.0)
            assert store.grid_fail(grid_id, "p1", "wA", "boom again",
                                   max_attempts=2) == "failed"
            assert store.grid_get(grid_id, "p1").status == "failed"
            # A worker that lost the row cannot fail it.
            assert store.grid_fail(grid_id, "p1", "wA", "late",
                                   max_attempts=2) is None

    def test_release_claims_preserves_attempts(self):
        with JsonStore() as store:
            grid_id = self._seed(store)
            store.grid_claim(grid_id, "wA", 60.0)
            store.grid_claim(grid_id, "wA", 60.0)
            assert store.grid_release_claims(grid_id) == 2
            rows = [row for row in store.grid_rows_for(grid_id)
                    if row.status == "pending"]
            assert [row.attempts for row in rows] == [1, 1]
            assert all(row.worker is None and row.lease_deadline is None
                       for row in rows)

    def test_add_points_is_idempotent_and_upgrades_known_answers(self):
        with JsonStore() as store:
            assert store.grid_add_points(
                "g", [("p1", {}, None), ("p2", {}, {"v": 2})]) == 2
            assert store.grid_add_points(
                "g", [("p1", {}, None), ("p2", {}, {"v": 2})]) == 0
            cached = store.grid_get("g", "p2")
            assert cached.status == "done" and cached.worker == "store"
            # A pending row whose answer the store has since learned is
            # upgraded in place on the next plan.
            assert store.grid_add_points("g", [("p1", {}, {"v": 1})]) == 0
            upgraded = store.grid_get("g", "p1")
            assert upgraded.status == "done" and upgraded.result == {"v": 1}
            # Terminal rows are never overwritten by a re-plan.
            assert store.grid_add_points("g", [("p2", {}, {"v": 99})]) == 0
            assert store.grid_get("g", "p2").result == {"v": 2}

    def test_a_failed_add_points_adds_nothing(self):
        """An entry ``json.dumps`` rejects rolls the whole plan back."""
        with JsonStore() as store:
            with pytest.raises(TypeError):
                store.grid_add_points("g", [("p1", {}, None),
                                            ("p2", {"x": object()}, None)])
            assert store.grid_rows_for("g") == []
            # The store is usable: a later plan lands as usual.
            assert store.grid_add_points("g", [("p1", {}, None)]) == 1
            assert store.grid_claim("g", "wA", 60.0).point_key == "p1"

    def test_a_failed_complete_leaves_the_claim_held(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with JsonStore(path) as a, JsonStore(path) as b:
            grid_id = self._seed(a, keys=("p1", "p2"))
            claimed = a.grid_claim(grid_id, "wA", 60.0)
            with pytest.raises(TypeError):
                a.grid_complete(grid_id, "p1", "wA", {"v": object()})
            row = a.grid_get(grid_id, "p1")
            assert (row.status, row.worker, row.attempts, row.result,
                    row.lease_deadline) == ("claimed", "wA", 1, None,
                                            claimed.lease_deadline)
            # No transaction was left open: another connection can write
            # at once, and so can this one.
            assert b.grid_claim(grid_id, "wB", 60.0).point_key == "p2"
            assert a.grid_complete(grid_id, "p1", "wA", {"v": 1})
            assert b.grid_get(grid_id, "p1").result == {"v": 1}


class TestStoreContention:
    def test_claim_blocks_in_sqlite_never_sleeps_in_python(
            self, tmp_path, monkeypatch):
        """Two writers, one store file: the claim path must not spin-wait.

        Writer A holds the SQLite write lock in an open IMMEDIATE
        transaction while writer B claims.  B must block inside SQLite's
        busy handler and win the row the moment A commits — with zero
        Python-level ``time.sleep`` calls anywhere in the interpreter.
        """
        path = str(tmp_path / "store.sqlite")
        real_sleep = time.sleep
        with JsonStore(path) as a, JsonStore(path) as b:
            a.grid_add_points("g", [("p1", {}, None)])
            sleeps = []
            monkeypatch.setattr(time, "sleep",
                                lambda seconds: sleeps.append(seconds))
            a._conn.execute("BEGIN IMMEDIATE")
            claimed = {}
            thread = threading.Thread(
                target=lambda: claimed.update(
                    row=b.grid_claim("g", "wB", 60.0)))
            thread.start()
            real_sleep(0.3)  # let B hit the held lock
            a._conn.execute("COMMIT")
            thread.join(timeout=store_module._BUSY_TIMEOUT + 5)
            assert not thread.is_alive()
            assert claimed["row"] is not None
            assert claimed["row"].point_key == "p1"
            assert sleeps == []

    def test_busy_counter_uses_the_store_busy_series(self, monkeypatch):
        """Transient lock noise lands in ``nanoxbar_store_busy_total``."""
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        retried = store_module._busy_counter("write", "retried")
        claim_exhausted = store_module._busy_counter("claim", "exhausted")
        before_retry = retried.value
        before_claim = claim_exhausted.value

        class FlakyConn:
            def __init__(self, conn, failures):
                self._conn = conn
                self.failures = failures

            def _maybe_fail(self):
                if self.failures:
                    self.failures -= 1
                    raise sqlite3.OperationalError("database is locked")

            def execute(self, *args):
                self._maybe_fail()
                return self._conn.execute(*args)

            def executemany(self, *args):
                self._maybe_fail()
                return self._conn.executemany(*args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        with JsonStore() as store:
            store.grid_add_points("g", [("p1", {}, None)])
            store._conn = FlakyConn(store._conn, failures=1)
            store.put("k", {"v": 1})  # one transient failure, then retried
            assert retried.value == before_retry + 1
            # The claim path surfaces transient errors immediately
            # (exhausted), it never enters a Python retry loop.
            store._conn.failures = 1
            with pytest.raises(sqlite3.OperationalError):
                store.grid_claim("g", "wA", 60.0)
            assert claim_exhausted.value == before_claim + 1
        text = metrics.registry().render_prometheus()
        assert 'nanoxbar_store_busy_total{op="write",outcome="retried"}' \
            in text
        assert 'nanoxbar_store_busy_total{op="claim",outcome="exhausted"}' \
            in text


class TestRunner:
    def test_plan_is_idempotent(self):
        config = _bench_config()
        with JsonStore() as store:
            grid_id, keys, added = plan(config, store)
            assert added == 3 and len(keys) == 3
            again_id, _, added_again = plan(config, store)
            assert again_id == grid_id and added_again == 0

    def test_work_loop_drains_and_mirrors_into_json_store(self):
        config = _bench_config()
        with JsonStore() as store:
            grid_id, keys, _ = plan(config, store)
            tally = work_loop(config, grid_id, store, "w0")
            assert tally["done"] == 3
            status = grid_status(store, grid_id)
            assert status["finished"] and status["counts"] == {"done": 3}
            # Results are mirrored under the content-addressed keys.
            for key, row in zip(keys, store.grid_rows_for(grid_id)):
                assert store.get(key) == row.result
            # A re-plan of the same config finds everything answered.
            fresh_id, _, _ = plan(_bench_config(name="other"), store)
            assert fresh_id != grid_id
            rows = store.grid_rows_for(fresh_id)
            assert all(row.status == "done" and row.worker == "store"
                       for row in rows)

    def test_two_workers_never_double_execute_a_point(self, monkeypatch):
        config = _bench_config(points=[
            {"bench": name} for name in
            ("xnor2", "xor3", "maj3", "mux2", "eq2", "gt2")])
        computed = []
        real_compute = families.compute

        def counting_compute(family, params, processes=1, store=None):
            computed.append(params["bench"])
            return real_compute(family, params, processes, store)

        monkeypatch.setattr(families, "compute", counting_compute)
        with JsonStore() as store:
            grid_id, _, _ = plan(config, store)
            tallies = {}

            def drain(worker):
                tallies[worker] = work_loop(config, grid_id, store, worker)

            threads = [threading.Thread(target=drain, args=(worker,))
                       for worker in ("wA", "wB")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Every point computed exactly once across both workers.
            assert sorted(computed) == sorted(
                p["bench"] for p in config.expand())
            assert tallies["wA"]["done"] + tallies["wB"]["done"] == 6
            assert grid_status(store, grid_id)["finished"]

    def test_failing_points_retry_then_land_failed(self, monkeypatch):
        config = _bench_config(points=[{"bench": "xnor2"}], max_attempts=2)

        def exploding_compute(family, params, processes=1, store=None):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(families, "compute", exploding_compute)
        with JsonStore() as store:
            grid_id, _, _ = plan(config, store)
            tally = work_loop(config, grid_id, store, "w0")
            assert tally == {"done": 0, "stale": 0, "pending": 1,
                             "failed": 1}
            row = store.grid_rows_for(grid_id)[0]
            assert row.status == "failed" and row.attempts == 2
            assert "kernel exploded" in row.error
            assert not grid_status(store, grid_id)["counts"].get("done")

    def test_iter_grid_points_yields_cached_then_computed(self):
        config = _bench_config()
        with JsonStore() as store:
            grid_id, keys, _ = plan(config, store)
            row = store.grid_claim(grid_id, "w0", config.lease_seconds)
            assert run_point(config, store, row, "w0") == "done"
            seen = list(iter_grid_points(config, store))
            assert [verdict for _, verdict in seen] == \
                ["cached", "done", "done"]
            assert {row.point_key for row, _ in seen} == set(keys)
            assert all(row.result is not None for row, _ in seen)


class TestCampaignBitIdentity:
    def test_grid_then_campaign_shares_every_answer(self):
        config = _faultsim_config()
        spec = _faultsim_spec()
        with JsonStore() as store:
            grid_id, keys, _ = plan(config, store)
            work_loop(config, grid_id, store, "w0")
            result = run_campaign(spec, store=store)
            assert result.cache_hits == 2 and result.trials_sampled == 0
            by_key = {row.point_key: row for row
                      in store.grid_rows_for(grid_id)}
            for estimate in result.estimates:
                row = by_key[estimate.point.key()]
                assert row.result == \
                    faultsim_campaign.payload_for(estimate)

    def test_campaign_then_grid_plans_straight_to_done(self):
        config = _faultsim_config()
        spec = _faultsim_spec()
        with JsonStore() as store:
            result = run_campaign(spec, store=store)
            assert result.cache_hits == 0
            grid_id, _, _ = plan(config, store)
            rows = store.grid_rows_for(grid_id)
            assert all(row.status == "done" and row.worker == "store"
                       for row in rows)
            by_key = {e.point.key(): e for e in result.estimates}
            for row in rows:
                assert row.result == faultsim_campaign.payload_for(
                    by_key[row.point_key])

    def test_grid_recompute_after_lease_expiry_is_bit_identical(self):
        config = _faultsim_config(densities=(0.05,))
        with JsonStore() as store:
            grid_id, (key,), _ = plan(config, store)
            # First worker claims, computes, but its lease expired before
            # it published — its answer is discarded.
            stale = store.grid_claim(grid_id, "wA", 60.0, now=0.0)
            stale_payload = families.compute("faultsim", stale.params)
            fresh = store.grid_claim(grid_id, "wB", 60.0, now=100.0)
            assert fresh is not None and fresh.worker == "wB"
            assert not store.grid_complete(grid_id, key, "wA",
                                           stale_payload)
            fresh_payload = families.compute("faultsim", fresh.params)
            assert store.grid_complete(grid_id, key, "wB", fresh_payload)
            # Content-seeded RNG: the recompute is bit-identical anyway.
            assert fresh_payload == stale_payload


def _write_config(tmp_path, config_dict, name="grid.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_dict))
    return str(path)


class TestCli:
    def _config_path(self, tmp_path, **overrides):
        data = {
            "name": "cli", "family": "bench",
            "points": [{"bench": "xnor2"}, {"bench": "xor3"}],
        }
        data.update(overrides)
        return _write_config(tmp_path, data)

    def test_plan_run_status_export_roundtrip(self, tmp_path, capsys):
        config = self._config_path(tmp_path)
        store = str(tmp_path / "store.sqlite")
        assert cli_main(["grid", "plan", config, "--store", store,
                         "--json"]) == 0
        planned = json.loads(capsys.readouterr().out)
        assert planned["added"] == 2 and planned["points"] == 2
        assert cli_main(["grid", "run", config, "--store", store,
                         "--json"]) == 0
        ran = json.loads(capsys.readouterr().out)
        assert ran["finished"] and ran["counts"] == {"done": 2}
        assert cli_main(["grid", "status", config, "--store", store,
                         "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["finished"]
        out_path = tmp_path / "rows.json"
        assert cli_main(["grid", "export", config, "--store", store,
                         "-o", str(out_path)]) == 0
        exported = json.loads(out_path.read_text())
        assert len(exported["rows"]) == 2
        assert all(row["status"] == "done" for row in exported["rows"])

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli_main(["grid", "plan",
                         str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config = self._config_path(tmp_path, family="mystery")
        assert cli_main(["grid", "run", config,
                         "--store", str(tmp_path / "s.sqlite")]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_malformed_point_params_exit_2(self, tmp_path, capsys):
        config = self._config_path(
            tmp_path, family="varsweep", points=[{"sigma": 0.3}],
            fixed={"bench": "xnor2", "trials": "abc"})
        assert cli_main(["grid", "plan", config,
                         "--store", str(tmp_path / "s.sqlite")]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("family,point,field", [
        ("faultsim", {"n": 100_000, "density": 0.1}, "n_values"),
        ("varsweep", {"bench": "xnor2", "sigma": 0.3,
                      "crossbar_rows": 256, "crossbar_cols": 256,
                      "trials": 16_385}, "trials"),
    ])
    def test_an_over_budget_point_exits_2(self, family, point, field,
                                          tmp_path, capsys):
        """Planned, never run: the bound is checked when the point parses."""
        config = self._config_path(tmp_path, family=family, points=[point])
        assert cli_main(["grid", "plan", config,
                         "--store", str(tmp_path / "s.sqlite")]) == 2
        assert f"{field} must" in capsys.readouterr().err

    def test_failed_points_exit_1(self, tmp_path, monkeypatch, capsys):
        config = self._config_path(tmp_path, max_attempts=1)
        monkeypatch.setattr(
            families, "compute",
            lambda family, params, processes=1:
            (_ for _ in ()).throw(RuntimeError("boom")))
        assert cli_main(["grid", "run", config,
                         "--store", str(tmp_path / "s.sqlite")]) == 1

    def test_store_default_comes_from_the_config(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = self._config_path(
            tmp_path, store=str(tmp_path / "from-config.sqlite"))
        assert cli_main(["grid", "run", config, "--json"]) == 0
        assert (tmp_path / "from-config.sqlite").exists()


class TestMultiProcess:
    def test_two_worker_processes_share_one_store(self, tmp_path, capsys):
        config_path = _write_config(tmp_path, {
            "name": "mp", "family": "faultsim", "workers": 2,
            "grid": {"density": [0.02, 0.05, 0.1, 0.2]},
            "fixed": {"n": 6, **_FAULTSIM_PARAMS},
        })
        store_path = str(tmp_path / "store.sqlite")
        assert cli_main(["grid", "run", config_path, "--store", store_path,
                         "--workers", "2", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["finished"] and status["counts"] == {"done": 4}
        # Bit-identical to the single-process campaign on a fresh store.
        spec = _faultsim_spec(densities=(0.02, 0.05, 0.1, 0.2))
        direct = run_campaign(spec)
        with JsonStore(store_path) as store:
            rows = store.grid_rows_for(status["grid_id"])
            by_key = {row.point_key: row for row in rows}
        for estimate in direct.estimates:
            row = by_key[estimate.point.key()]
            assert row.result == faultsim_campaign.payload_for(estimate)

    def test_sigkill_then_resume_completes_without_recompute(
            self, tmp_path):
        """Kill a worker mid-sweep; ``grid resume`` finishes the grid.

        Done rows must keep their original results and timestamps (no
        recompute), and the completed grid must be bit-identical to a
        plain single-process ``run_campaign`` of the same points.
        """
        densities = [round(0.02 + 0.02 * i, 2) for i in range(6)]
        heavy = dict(_FAULTSIM_PARAMS, trials=30000, batch_size=3000)
        config_dict = {
            "name": "kill", "family": "faultsim",
            "grid": {"density": densities},
            "fixed": {"n": 10, **heavy},
        }
        config_path = _write_config(tmp_path, config_dict)
        config = config_from_dict(config_dict)
        store_path = str(tmp_path / "store.sqlite")
        with JsonStore(store_path) as store:
            grid_id, keys, _ = plan(config, store)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.grid.worker",
             "--config", config_path, "--store", store_path,
             "--grid-id", grid_id, "--worker-id", "victim"])
        try:
            deadline = time.monotonic() + 120.0
            with JsonStore(store_path) as store:
                while time.monotonic() < deadline:
                    if store.grid_counts(grid_id).get("done", 0) >= 1:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("worker made no progress before kill")
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                done_before = {
                    row.point_key: (row.finished_at, row.result)
                    for row in store.grid_rows_for(grid_id)
                    if row.status == "done"}
                assert done_before, "kill landed before any point finished"
                # resume: free the victim's stale claims, drain in-process.
                release_claims(store, grid_id)
                work_loop(config, grid_id, store, "resumer")
                status = grid_status(store, grid_id)
                assert status["finished"]
                assert status["counts"] == {"done": len(keys)}
                rows = store.grid_rows_for(grid_id)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # Pre-kill answers were not recomputed: same timestamps, results.
        for row in rows:
            if row.point_key in done_before:
                assert (row.finished_at, row.result) == \
                    done_before[row.point_key]
        # And the whole grid matches the plain campaign bit-for-bit.
        spec = _faultsim_spec(densities=densities, n=10, **{
            k: heavy[k] for k in ("trials", "batch_size")})
        direct = run_campaign(spec)
        by_key = {row.point_key: row for row in rows}
        for estimate in direct.estimates:
            assert by_key[estimate.point.key()].result == \
                faultsim_campaign.payload_for(estimate)


class TestServerGrid:
    def test_grid_submission_streams_terminal_rows(self):
        from repro.server.protocol import parse_submission
        from repro.server.worker import WorkerBridge

        payload = {"kind": "grid", "config": {
            "name": "served", "family": "bench",
            "points": [{"bench": "xnor2"}, {"bench": "xor3"}],
        }}
        submission = parse_submission(payload)
        assert submission.kind == "grid"
        assert submission.points_total == 2
        assert submission.echo["family"] == "bench"
        # Identical configs coalesce; different ones do not.
        assert parse_submission(payload).coalesce_key == \
            submission.coalesce_key
        other = parse_submission({"kind": "grid", "config": {
            "name": "served", "family": "bench",
            "points": [{"bench": "maj3"}]}})
        assert other.coalesce_key != submission.coalesce_key

        events = []
        bridge = WorkerBridge(cache_path=":memory:", processes=1)
        try:
            bridge.run_submission(
                submission, lambda kind, record: events.append(
                    (kind, record)))
        finally:
            bridge.close()
        kinds = [kind for kind, _ in events]
        assert kinds[0] == "running" and kinds[-1] == "done"
        points = [record for kind, record in events if kind == "point"]
        assert len(points) == 2
        assert all(record["status"] == "done" and not record["cache_hit"]
                   for record in points)
        assert all(record["result"] is not None for record in points)

    def test_served_grid_logs_drained_once(self):
        """The served drain is one claim loop: one "drained" event for
        the whole grid, not one per point."""
        from repro.server.protocol import parse_submission
        from repro.server.worker import WorkerBridge

        messages = []

        class _Capture(logging.Handler):
            def emit(self, record):
                messages.append(record.getMessage())

        logger = get_logger("grid")
        handler, level = _Capture(), logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        bridge = WorkerBridge(cache_path=":memory:", processes=1)
        try:
            bridge.run_submission(
                parse_submission({"kind": "grid", "config": {
                    "name": "drained", "family": "bench",
                    "points": [{"bench": "xnor2"}, {"bench": "xor3"},
                               {"bench": "maj3"}]}}),
                lambda kind, record: None)
        finally:
            bridge.close()
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert messages.count("grid worker drained") == 1

    def test_grid_submission_rejects_bad_configs(self):
        from repro.server.protocol import ProtocolError, parse_submission

        with pytest.raises(ProtocolError):
            parse_submission({"kind": "grid"})
        with pytest.raises(ProtocolError):
            parse_submission({"kind": "grid",
                              "config": {"name": "x", "family": "nope",
                                         "points": [{}]}})


class TestObservability:
    def test_grid_series_follow_the_naming_scheme(self):
        config = _bench_config(points=[{"bench": "mux2"}])
        with JsonStore() as store:
            grid_id, _, _ = plan(config, store)
            work_loop(config, grid_id, store, "w0")
        text = metrics.registry().render_prometheus()
        assert 'nanoxbar_grid_points_total{status="claimed"}' in text
        assert 'nanoxbar_grid_points_total{status="done"}' in text
        assert 'nanoxbar_grid_point_seconds_count{family="bench"}' in text

    def test_watchdog_covers_grid_failures(self):
        from repro.obs.health import default_server_rules

        rules = {rule.name: rule for rule in default_server_rules()}
        rule = rules["grid-failure-rate"]
        assert rule.series == "nanoxbar_grid_points_total"
        assert rule.label_filter == {"status": "failed"}
