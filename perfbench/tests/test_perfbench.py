"""Tests of the benchmark itself: its statistics, tracing, metric parsing,
output checks and contract file.

The four-workload smoke runs spawn the benchmark as its users do and take
about two minutes, so they run only with ``PERFBENCH_SMOKE=1``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest
from perfbench import catalog, promtext, stats, tracer
from perfbench.workloads import Outcome
from perfbench.workloads.exact import Exact
from perfbench.workloads.served import BLOCK, Served, server_layers
from perfbench.workloads.sweep import Sweep

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.tail_percentile(list(range(999)), 99) is None
    assert stats.tail_percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert stats.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert stats.tail_percentile(list(range(99)), 90) is None


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    span = tracer.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("mid", 1.0, 7.0, parent=0),
        _span("leaf", 2.0, 5.0, parent=1),
        _span("leaf", 8.0, 9.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        {"outer": 3.0, "mid": 3.0, "leaf": 4.0})


def test_installed_hooks_nest_spans_and_restore_every_binding():
    import repro.synthesis.lattice_dual as dual_module
    import repro.synthesis.lattice_optimal as optimal_module
    from repro.eval.benchsuite import by_name
    from repro.xbareval import lattice_eval

    original = lattice_eval.implements_table
    recorder = tracer.Recorder()
    installed = tracer.install([
        tracer.Hook("repro.synthesis.lattice_dual:synthesize_lattice_dual",
                    "synthesis.dual"),
        tracer.Hook("repro.xbareval.lattice_eval:implements_table",
                    "xbareval.verify", counts=catalog._one("verify_calls")),
    ], recorder)
    try:
        # Bound by ``from x import y`` in the calling modules, patched there.
        assert optimal_module.implements_table is not original
        assert dual_module.implements_table is not original
        dual_module.synthesize_lattice_dual(by_name("maj3").function.on)
    finally:
        installed.restore()
    assert optimal_module.implements_table is original
    assert dual_module.implements_table is original
    names = [span.name for span in recorder.spans]
    assert names[0] == "synthesis.dual" and "xbareval.verify" in names
    assert all(span.parent == 0 for span in recorder.spans[1:])
    assert recorder.counts["verify_calls"] == names.count("xbareval.verify")
    own = recorder.self_times()
    outer = recorder.spans[0]
    assert own["synthesis.dual"] + own["xbareval.verify"] == pytest.approx(
        outer.end - outer.start)


def test_generator_hooks_time_the_whole_iteration():
    from repro.crossbar import paths

    recorder = tracer.Recorder()
    hook = [hook for hook in catalog.HOOKS if hook.span == "crossbar.paths"]
    installed = tracer.install(hook, recorder)
    try:
        count = len(tuple(paths.enumerate_top_bottom_paths(3, 3)))
    finally:
        installed.restore()
    assert recorder.counts["crossbar.paths"] == count > 0


def test_every_hook_target_exists():
    recorder = tracer.Recorder()
    tracer.install(catalog.HOOKS, recorder).restore()


# ----------------------------------------------------------------------
# /api/metrics deltas
# ----------------------------------------------------------------------
_BEFORE = """\
# HELP engine_cache_hits_total jobs answered from the NPN cache
# TYPE engine_cache_hits_total counter
engine_cache_hits_total 15
engine_races_total 15
server_http_request_seconds_sum{endpoint="/api/submit",status="202"} 0.5
server_http_request_seconds_count{endpoint="/api/submit",status="202"} 10
campaign_point_seconds_sum{family="faultsim"} 1.0
process_cpu_seconds_total 2.0
"""
_AFTER = """\
engine_cache_hits_total 415
engine_races_total 15
server_http_request_seconds_sum{endpoint="/api/submit",status="202"} 2.5
server_http_request_seconds_sum{endpoint="/api/submit",status="400"} 0.25
server_http_request_seconds_sum{endpoint="/api/result",status="200"} 8.0
campaign_point_seconds_sum{family="faultsim"} 3.0
campaign_point_seconds_sum{family="varsweep"} 1.5
process_cpu_seconds_total 6.0
process_max_resident_memory_bytes 6.7e+07
"""


def test_metrics_delta_parsing():
    change = promtext.delta(promtext.parse(_BEFORE), promtext.parse(_AFTER))
    assert promtext.total(change, "engine_cache_hits_total") == 400
    assert promtext.total(change, "engine_races_total") == 0
    assert promtext.total(change, "server_http_request_seconds_sum",
                          endpoint="/api/submit") == pytest.approx(2.25)
    layers = server_layers(change, blocks=2)
    assert layers["engine.cache_hits"] == 200
    assert layers["server.http_s.result"] == 4.0
    assert layers["faultlab.point_s"] == 1.0
    assert layers["varsim.point_s"] == 0.75
    assert layers["server.cpu_s"] == 2.0


def test_metrics_parser_rejects_garbage():
    with pytest.raises(ValueError):
        promtext.parse("engine_races_total{oops 1\n")


# ----------------------------------------------------------------------
# Injected wrong answers fail the run
# ----------------------------------------------------------------------
def test_exact_flags_a_wrong_lattice_and_a_wrong_proved_area(tmp_path):
    from repro.crossbar.lattice import Lattice

    workload = Exact()
    workload.setup(3, str(tmp_path))
    workload.inputs = [entry for entry in workload.inputs
                       if entry[1] in ("xnor2", "maj3")]
    real = workload._synthesize

    def sabotaged(table, conflict_budget):
        result = real(table, conflict_budget=conflict_budget)
        if table.n == 2:  # xnor2: a 1x1 constant-1 lattice, marked proved
            result.lattice = Lattice(table.n, [[True]])
        return result

    workload._synthesize = sabotaged
    outcome = Outcome()
    for part in range(len(workload.inputs)):
        workload.run_pass(outcome, None, part)
    problems = " ".join(outcome.wrong)
    assert "does not implement" in problems
    assert "!= reference 4" in problems
    assert not any("maj3" in problem for problem in outcome.wrong)


def test_sweep_flags_a_tampered_row(tmp_path, monkeypatch):
    workload = Sweep()
    workload.setup(5, str(tmp_path))
    workload.configs = workload.configs[:1]
    real_export = workload._export

    def tampered(store, grid_id):
        rows = real_export(store, grid_id)
        rows[0]["result"]["k_histogram"][0] += 1
        return rows

    workload._export = tampered
    outcome = Outcome()
    workload.run_pass(outcome, None, 0)
    assert any("invalid payload" in problem for problem in outcome.wrong)


def test_served_flags_an_answer_that_differs_from_the_direct_one(tmp_path):
    workload = Served(ROOT)
    workload.seed = 4
    workload.setup(4, str(tmp_path))
    try:
        client = workload.server.client
        done = []
        for index in range(12):
            kind, payload, _ = workload.request(index)
            answer = client.run(payload)
            done.append((0.0, index, kind, 0.0, answer))
        clean = Outcome()
        workload._check(done, clean)
        assert clean.wrong == []
        assert 20 < workload.server.peak_rss_mb() < 1000
        for *_, answer in done:
            answer["points"][0].pop("cache_hit")
        tampered = Outcome()
        workload._check(done, tampered)
        assert len(tampered.wrong) == 12
    finally:
        workload.close()
    assert workload.server is None


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_every_served_block_is_a_whole_number_of_requests():
    assert 1000 % BLOCK == 0


# ----------------------------------------------------------------------
# End to end, as the benchmark's users run it
# ----------------------------------------------------------------------
def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_a_checkout_without_the_program_exits_without_a_result(tmp_path):
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    started = time.monotonic()
    done = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert time.monotonic() - started < 60


@pytest.mark.skipif(os.environ.get("PERFBENCH_SMOKE") != "1",
                    reason="about a minute each; set PERFBENCH_SMOKE=1")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_four_workloads(trace):
    done = _run("--workload", "all", "--seed", "7", "--seconds", "0",
                "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = (catalog.PER_LAYER if trace == "1" else catalog.END_TO_END)
    for workload in catalog.WORKLOADS:
        for metric in names:
            assert f"{workload}.{metric.name}" in result["metrics"]
    if trace == "0":
        assert "figure exact.proved = 10 count" in done.stdout
        assert "figure exact.area_sum = 75 sites" in done.stdout
        assert all(value["value"] > 0 for value in result["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["paper.sat.solves"] == metrics["sweep.sat.solves"] == 0
        assert metrics["served.engine.races"] == 0
        # Span times are raw seconds, so compare with the raw pass time.
        assert metrics["exact.sat.solve_s"] > 0.5 * float(
            done.stdout.split("figure exact.raw_wall_s = ")[1].split()[0])
