"""BatchEngine, portfolio, pool, and the `nanoxbar batch` CLI."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.boolean.truthtable import TruthTable
from repro.engine import (
    BatchEngine,
    FaultToleranceSpec,
    JsonStore,
    SynthesisJob,
    canonical_cache_key,
    chunk_size,
    known_strategies,
    map_sharded,
    portfolio,
    run_portfolio,
)
from repro.engine.cache import CACHE_NAMESPACE, cache_key
from repro.eval.benchsuite import suite
from repro.eval.cli import main as cli_main

FAST = ("dual", "dreducible")  # cheap deterministic portfolio for tests


def _semantics(outcomes):
    """Strategy outcomes minus the reporting-only wall-clock field."""
    return [(o.strategy, o.status, o.area, o.shape, o.detail)
            for o in outcomes]


def _cache_key(job):
    """The store key of the NPN cache row answering ``job``."""
    canon, transform = canonical_cache_key(job.table)
    return cache_key(job.n, canon, transform.output_negate,
                     portfolio.fingerprint(job.strategies))


def _jobs(max_vars=4, strategies=FAST, fault_tolerance=None):
    return [
        SynthesisJob.from_function(b.function, b.name, strategies,
                                   fault_tolerance)
        for b in suite(max_vars=max_vars)
    ]


# ----------------------------------------------------------------------
# Portfolio
# ----------------------------------------------------------------------
class TestPortfolio:
    def test_known_strategies(self):
        assert set(known_strategies()) == {
            "dual", "dreducible", "pcircuit", "optimal"}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategies"):
            run_portfolio(TruthTable.from_bits(2, 0b0110), ("quantum",))
        with pytest.raises(RuntimeError, match="no strategy produced"):
            run_portfolio(TruthTable.from_bits(2, 0b0110), ())

    def test_winner_is_minimum_area(self):
        table = TruthTable.from_bits(3, 0b10010110)  # xor3
        result = run_portfolio(table, ("dual", "optimal"))
        areas = [o.area for o in result.outcomes if o.status == "ok"]
        assert result.lattice.area == min(areas)
        assert result.lattice.implements(table)

    def test_tie_goes_to_earlier_strategy(self):
        table = TruthTable.from_bits(2, 0b1001)  # xnor2: dual is already 2x2
        result = run_portfolio(table, ("dual", "optimal"))
        assert result.strategy == "dual"

    def test_constant_function_short_circuits(self):
        result = run_portfolio(TruthTable.constant(3, True))
        assert result.strategy == "constant"
        assert result.lattice.implements(TruthTable.constant(3, True))

    def test_not_applicable_recorded(self):
        # maj3's on-set affine hull is the full space: no D-reduction.
        table = TruthTable.from_bits(3, 0b11101000)
        result = run_portfolio(table, ("dual", "dreducible"))
        by_name = {o.strategy: o for o in result.outcomes}
        assert by_name["dreducible"].status == "not-applicable"

    def test_effort_gates_are_deterministic_skips(self):
        table = TruthTable.from_bits(5, 0x96696996)
        assert portfolio.OPTIMAL_MAX_VARS == 4
        result = run_portfolio(table, ("dual", "optimal"))
        by_name = {o.strategy: o for o in result.outcomes}
        assert by_name["optimal"].status == "skipped"
        assert "optimal_max_vars" in by_name["optimal"].detail


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class TestPool:
    def test_serial_path(self):
        assert map_sharded(lambda x: x * x, [1, 2, 3], processes=1) == [1, 4, 9]

    def test_pooled_preserves_order(self):
        items = list(range(20))
        assert map_sharded(_square, items, processes=2) == [x * x for x in items]

    def test_chunk_size(self):
        assert chunk_size(0, 4) == 1
        assert chunk_size(10, 1) == 1
        assert chunk_size(16, 4) == 2
        assert chunk_size(3, 4) == 1


def _square(x: int) -> int:  # module-level: must pickle into workers
    return x * x


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestBatchEngine:
    def test_results_verified_and_labelled(self):
        jobs = _jobs(max_vars=3)
        with BatchEngine() as engine:
            results = engine.run(jobs)
        assert [r.label for r in results] == [j.label for j in jobs]
        for job, result in zip(jobs, results):
            assert result.lattice.implements(job.table)
            assert result.strategy
            assert result.outcomes

    def test_serial_and_pooled_bit_identical(self):
        jobs = _jobs(max_vars=4)
        with BatchEngine(processes=1) as engine:
            serial = engine.run(jobs)
        with BatchEngine(processes=2) as engine:
            pooled = engine.run(jobs)
        for a, b in zip(serial, pooled):
            assert a.lattice == b.lattice
            assert a.strategy == b.strategy
            assert _semantics(a.outcomes) == _semantics(b.outcomes)

    def test_warm_cache_hits_and_same_answers(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        jobs = _jobs(max_vars=4)
        with BatchEngine(cache_path=path) as engine:
            cold = engine.run(jobs)
            assert engine.stats.cache_hits == 0
        with BatchEngine(cache_path=path) as engine:
            warm = engine.run(jobs)
            assert engine.stats.cache_hits == len(jobs)
            assert engine.stats.hit_rate == 1.0
            assert engine.stats.races_run == 0
        for a, b in zip(cold, warm):
            assert a.lattice == b.lattice
            assert a.strategy == b.strategy
            assert not a.cache_hit and b.cache_hit

    def test_in_run_dedup_races_once_per_class(self):
        # xor3 and fa_sum are the same function; maj3 and fa_carry are
        # NPN-equivalent: 4 jobs but only 2 races.
        chosen = [b for b in suite(max_vars=3)
                  if b.name in ("xor3", "fa_sum", "maj3", "fa_carry")]
        jobs = [SynthesisJob.from_function(b.function, b.name, FAST)
                for b in chosen]
        with BatchEngine() as engine:
            results = engine.run(jobs)
            assert engine.stats.races_run == 2
            assert engine.stats.deduped == 2
        for job, result in zip(jobs, results):
            assert result.lattice.implements(job.table)

    def test_config_changes_do_not_reuse_stale_entries(self, tmp_path,
                                                       monkeypatch):
        path = str(tmp_path / "cache.sqlite")
        jobs = _jobs(max_vars=3)
        with BatchEngine(cache_path=path) as engine:
            engine.run(jobs)
        monkeypatch.setattr(portfolio, "OPTIMAL_CONFLICT_BUDGET", 1)
        with BatchEngine(cache_path=path) as engine:
            engine.run(jobs)
            assert engine.stats.cache_hits == 0

    def test_fault_tolerance_post_processing(self):
        spec = FaultToleranceSpec(defect_density=0.05, redundancy="tmr",
                                  seed=11)
        jobs = _jobs(max_vars=3, fault_tolerance=spec)
        with BatchEngine() as engine:
            results = engine.run(jobs)
        for result in results:
            ft = result.fault_tolerance
            assert ft is not None
            assert ft.mapping_trials >= 1
            assert ft.tmr_area > 3 * result.area

    def test_fault_tolerance_deterministic(self):
        spec = FaultToleranceSpec(defect_density=0.1, seed=5)
        jobs = _jobs(max_vars=3, fault_tolerance=spec)
        with BatchEngine() as engine:
            first = engine.run(jobs)
        with BatchEngine(processes=2) as engine:
            second = engine.run(jobs)
        assert [r.fault_tolerance for r in first] == \
               [r.fault_tolerance for r in second]

    def test_complement_pair_in_one_batch(self):
        """AND2 and NAND2 share an NPN canonical key but need opposite
        polarity slots — regression for the polarity-collision crash."""
        and2 = TruthTable.from_bits(2, 0b1000)
        nand2 = TruthTable.from_bits(2, 0b0111)
        jobs = [SynthesisJob.from_function(and2, "and2", FAST),
                SynthesisJob.from_function(nand2, "nand2", FAST)]
        with BatchEngine() as engine:
            results = engine.run(jobs)
            assert engine.stats.races_run == 2  # distinct polarity slots
        assert results[0].lattice.implements(and2)
        assert results[1].lattice.implements(nand2)

    def test_complement_pair_across_warm_cache(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        and2 = TruthTable.from_bits(2, 0b1000)
        nand2 = TruthTable.from_bits(2, 0b0111)
        with BatchEngine(cache_path=path) as engine:
            engine.run([SynthesisJob.from_function(and2, "and2", FAST)])
        with BatchEngine(cache_path=path) as engine:
            [result] = engine.run(
                [SynthesisJob.from_function(nand2, "nand2", FAST)])
            assert engine.stats.cache_hits == 0  # other polarity: a miss
        assert result.lattice.implements(nand2)

    def test_corrupted_cache_self_heals(self, tmp_path):
        """Corruption costs time, never correctness: a tampered entry is
        re-raced and overwritten, not fatal to the batch."""
        path = str(tmp_path / "cache.sqlite")
        jobs = _jobs(max_vars=3)
        with BatchEngine(cache_path=path) as engine:
            good = engine.run(jobs)
        keys = list(dict.fromkeys(_cache_key(job) for job in jobs))
        with JsonStore(path) as store:
            # Sabotage every row two ways: one unparseable, the rest a
            # valid lattice text computing the wrong function (an
            # all-constant-1 site).
            for index, key in enumerate(keys):
                payload = store.get(key)
                assert payload is not None
                payload["lattice"] = "garbage tokens !!" if index == 0 else "1"
                store.put(key, payload)
        with BatchEngine(cache_path=path) as engine:
            healed = engine.run(jobs)
            # Stats agree with the per-result story: nothing counts as a
            # hit, and every re-race (phase-2 or phase-4) is accounted.
            assert engine.stats.cache_hits == 0
            assert engine.stats.races_run > 0
        for a, b in zip(good, healed):
            assert a.lattice == b.lattice
            assert a.strategy == b.strategy
            assert not b.cache_hit
        # And the store now holds good entries again.
        with BatchEngine(cache_path=path) as engine:
            rerun = engine.run(jobs)
            assert engine.stats.cache_hits == len(jobs)
            assert engine.stats.races_run == 0
        for a, b in zip(good, rerun):
            assert a.lattice == b.lattice

    def test_worker_errors_propagate(self):
        # An all-gated portfolio produces no lattice; the pool must
        # surface the RuntimeError, not mask it behind a serial retry.
        table = TruthTable.from_bits(5, 0x96696996)
        job = SynthesisJob.from_function(table, "gated", ("optimal",))
        for processes in (1, 2):
            with BatchEngine(processes=processes) as engine:
                with pytest.raises(RuntimeError,
                                   match="no strategy produced a lattice"):
                    engine.run([job])

    def test_report_renders(self):
        with BatchEngine() as engine:
            engine.run(_jobs(max_vars=2))
            text = engine.report()
        assert "hit_rate" in text and "throughput" in text

    def test_borrowed_store_is_shared_safely_across_threads(self):
        """The server's layout: job threads running engine batches and
        other threads write one store; no row is lost and the borrowed
        store outlives the engine."""
        jobs = _jobs(max_vars=3)
        errors = []

        def write(worker):
            try:
                for index in range(40):
                    store.put(f"campaign/{worker}/{index}", {"i": index})
            except Exception as error:  # reported below, not lost in a thread
                errors.append(error)

        def synthesize():
            try:
                for _ in range(4):
                    results = engine.run(jobs)
                    assert [r.lattice for r in results] == cold
            except Exception as error:  # reported below, not lost in a thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JsonStore() as store:
                with BatchEngine(store) as engine:
                    cold = [r.lattice for r in engine.run(jobs)]
                    threads = [threading.Thread(target=write, args=(w,))
                               for w in range(3)]
                    threads += [threading.Thread(target=synthesize)
                                for _ in range(3)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                    assert not any(t.is_alive() for t in threads)
                    races = engine.stats.races_run
                assert errors == []
                assert store.count("campaign/") == 3 * 40
                assert store.count(CACHE_NAMESPACE) == races
                assert engine.stats.cache_hits == 3 * 4 * len(jobs)
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
class TestJobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthesisJob("bad", 0, 0)
        with pytest.raises(ValueError):
            SynthesisJob("bad", 2, 1 << 20)
        with pytest.raises(ValueError):
            SynthesisJob("bad", 2, 0, strategies=())
        with pytest.raises(ValueError):
            FaultToleranceSpec(defect_density=1.5)
        with pytest.raises(ValueError):
            FaultToleranceSpec(redundancy="quadruple")

    def test_table_round_trip(self):
        table = TruthTable.from_bits(3, 0b10010110)
        job = SynthesisJob.from_function(table, "xor3")
        assert job.table == table
        assert job.label == "xor3"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_batch_runs(self, capsys):
        code = cli_main(["batch", "--no-cache", "--max-vars", "3",
                         "--no-optimal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "xor3" in out
        assert "hit_rate" in out

    def test_batch_warm_cache_via_file(self, tmp_path, capsys):
        cache = str(tmp_path / "cli-cache.sqlite")
        assert cli_main(["batch", "--cache", cache, "--max-vars", "3",
                         "--no-optimal"]) == 0
        capsys.readouterr()
        assert cli_main(["batch", "--cache", cache, "--max-vars", "3",
                         "--no-optimal"]) == 0
        out = capsys.readouterr().out
        assert "hit_rate=100.0%" in out

    def test_batch_with_fault_tolerance(self, capsys):
        code = cli_main(["batch", "--no-cache", "--max-vars", "3",
                         "--no-optimal", "--defect-density", "0.05",
                         "--redundancy", "tmr"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tmr_area=" in out

    def test_batch_empty_selection_fails(self, capsys):
        code = cli_main(["batch", "--no-cache", "--tags", "no-such-tag"])
        assert code == 2
        assert "no benchmarks" in capsys.readouterr().err

    def test_unknown_experiment_exit_code(self, capsys):
        code = cli_main(["run", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_unknown_benchmark_exit_code(self, capsys):
        code = cli_main(["bench", "nope"])
        assert code == 2
        assert "no benchmark named" in capsys.readouterr().err


class TestSixVariableJobs:
    """The lifted NPN limit end-to-end: n = 6 jobs get exact class keys."""

    def test_n6_classmates_share_one_race(self, tmp_path):
        import random

        from repro.boolean.npn import NpnTransform, apply_transform

        rng = random.Random(2026)
        base = TruthTable.from_bits(6, rng.getrandbits(64))
        mates = [base] + [
            apply_transform(base, NpnTransform(
                tuple(rng.sample(range(6), 6)), rng.getrandbits(6), False))
            for _ in range(3)
        ]
        jobs = [SynthesisJob(n=6, bits=m.bits, label=f"m{i}",
                             strategies=("dual",))
                for i, m in enumerate(mates)]
        with BatchEngine(cache_path=str(tmp_path / "n6.sqlite")) as engine:
            results = engine.run(jobs)
            # one NPN class, same polarity slot -> one race, three dedups
            assert engine.stats.races_run == 1
            assert engine.stats.deduped == 3
            for job, result in zip(jobs, results):
                assert result.lattice.implements(
                    TruthTable.from_bits(6, job.bits))
        # warm re-open: pure cache hits rewritten through the witnesses
        with BatchEngine(cache_path=str(tmp_path / "n6.sqlite")) as engine:
            again = engine.run(jobs)
            assert engine.stats.cache_hits == len(jobs)
            assert [r.lattice for r in again] == [r.lattice for r in results]
