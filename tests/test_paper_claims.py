"""The paper's headline claims and the batched kernels' reference checks.

Each paper experiment runs once per session in fast mode (the
``fast_experiment`` fixture in ``conftest.py``); the claim tests read its
rows.  The three headline claims:

* five constant configurations give full BIST coverage;
* BISD needs ceil(log2 RC) + 2 configurations and diagnoses every fault;
* four-terminal lattices beat two-terminal arrays on most of Fig. 5.

The kernel checks pin each batched path (floods, the engine's
store, both campaign families) to its scalar or unpacked reference on a
fixed workload.  Nothing here asserts a wall-clock ratio.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.arch import SynchronousStateMachine, counter_spec
from repro.boolean import (
    NpnTransform,
    TruthTable,
    apply_transform,
    exact_minimize,
    heuristic_minimize,
    isop,
    minimize,
)
from repro.crossbar import (
    compare_styles,
    left_right_blocked_8,
    top_bottom_connected,
)
from repro.engine import BatchEngine, SynthesisJob
from repro.eval.benchsuite import by_name, standard_suite, suite
from repro.faultlab import (
    CampaignSpec,
    analytic_crosschecks,
    bernoulli_defect_batch,
    recovered_k_batch,
    run_campaign,
)
from repro.reliability import (
    as_program,
    blind_bism,
    build_fault_dictionary,
    greedy_clean_subarray,
    hybrid_bism,
    lognormal_variation,
    majority_voter_lattice,
    map_lattice_random,
    monte_carlo_yield,
    random_defect_map,
    run_bisd,
    run_bist,
    tmr_reliability,
)
from repro.reliability.variation import variation_sweep
from repro.sat import Cnf, solve_cnf
from repro.synthesis import (
    best_pcircuit,
    fold_lattice,
    lattice_from_covers,
    minimal_area_map,
    synthesize_lattice_dual,
    synthesize_lattice_optimal,
)
from repro.varsim import VariationCampaignSpec, run_variation_campaign
from repro.xbareval import (
    connectivity,
    lattice_truthtable,
    top_bottom_connected_batch,
)

#: The suite the synthesis ablations sweep.
SMALL = suite(exclude=["large"], max_vars=5)


def _folded(name: str):
    table = by_name(name).function.on
    return fold_lattice(synthesize_lattice_dual(table), table)


# -- Section III: synthesis ------------------------------------------------

def test_fig3_size_formulas_match_the_built_arrays(fast_experiment):
    rows = fast_experiment("fig3").rows
    assert rows, "no benchmarks synthesised"
    for row in rows:
        assert row["diode_formula_ok"], row["benchmark"]
        assert row["fet_cols_ok"], row["benchmark"]
    # the Section III-A worked example: 2x5 diode, 4x4 FET
    xnor = next(row for row in rows if row["benchmark"] == "xnor2")
    assert xnor["diode"] == (2, 5)
    assert xnor["fet"] == (4, 4)


def test_fig4_hand_lattice_is_the_bottom_rung(fast_experiment):
    rows = fast_experiment("fig4").rows
    assert all(row["implements"] for row in rows)
    by_method = {row["method"]: row for row in rows}
    hand = by_method["paper Fig. 4 (hand)"]
    assert hand["area"] == 6 and hand["implements"]
    formula_area = by_method["Fig. 5 formula [2]"]["area"]
    folded_area = by_method["formula + folding [11]"]["area"]
    assert formula_area >= folded_area >= 6

    table = by_name("fig4").function.on
    assert synthesize_lattice_dual(table).implements(table)


def test_fig5_lattices_beat_two_terminal_arrays_on_most(fast_experiment):
    rows = fast_experiment("fig5").rows
    assert rows
    for row in rows:
        # Fig. 5 formula shape: products(fD) x products(f)
        assert row["lattice"] == (row["p(fD)"], row["p(f)"])
    wins = sum(row["4T_wins"] for row in rows)
    assert wins >= len(rows) * 0.6, f"lattices won only {wins}/{len(rows)}"


def test_pcircuit_decomposition_improves_somewhere(fast_experiment):
    rows = fast_experiment("pcircuit").rows
    assert rows
    assert any(row["improves"] for row in rows)

    table = by_name("sym5_23").function.on
    assert best_pcircuit(table).lattice.implements(table)


def test_dreducible_factors_are_real_and_win_somewhere(fast_experiment):
    rows = fast_experiment("dreducible").rows
    assert rows
    for row in rows:
        assert row["dims_dropped"] >= 1
        assert row["chi_area"] >= 1 and row["fA_area"] >= 1
        assert row["composed_area"] >= 1
    # decomposition wins on the small-support constraints; full-width
    # parity constraints price chi_A too high
    assert any(row["improves"] for row in rows)


def test_optimal_is_bounded_by_folded_and_formula(fast_experiment):
    rows = fast_experiment("optimal").rows
    assert rows
    for row in rows:
        assert row["optimal_area"] <= row["folded_area"] <= row["formula_area"]
    xnor = next(row for row in rows if row["benchmark"] == "xnor2")
    assert xnor["optimal_area"] == 4 and xnor["proved"]

    table = by_name("xor3").function.on
    result = synthesize_lattice_optimal(table, conflict_budget=100_000)
    assert result.lattice.implements(table)
    assert result.area <= 9


def test_small_shape_expressiveness(fast_experiment):
    by_shape = {(row["shape"], row["n"]): row
                for row in fast_experiment("expressiveness").rows}
    # a 2x2 lattice realises every 2-variable function
    assert by_shape[((2, 2), 2)]["coverage"] == 1.0
    assert by_shape[((2, 2), 2)]["npn_classes"] == 4
    # single sites realise only literals and constants
    assert by_shape[((1, 1), 2)]["functions"] == 6


def test_minimal_area_frontier_matches_sat():
    for function, area in minimal_area_map(2).items():
        result = synthesize_lattice_optimal(function, conflict_budget=50_000)
        assert result.proved_optimal
        assert result.area == area, (function, area, result.area)


def test_only_diode_planes_burn_static_power(fast_experiment):
    rows = fast_experiment("metrics").rows
    assert rows
    by_bench: dict = {}
    for row in rows:
        by_bench.setdefault(row["benchmark"], {})[row["style"]] = row
    for styles in by_bench.values():
        assert set(styles) == {"diode", "fet", "lattice"}
        assert styles["diode"]["power"] > styles["fet"]["power"]
        for row in styles.values():
            assert row["area"] > 0 and row["delay"] > 0 and row["power"] > 0
    assert len(compare_styles(by_name("thr4_2").function.on)) == 3


def test_folding_never_grows_a_lattice_and_saves_area():
    saving = 0
    for bench in SMALL:
        table = bench.function.on
        raw = synthesize_lattice_dual(table)  # verifies the dual lattice
        folded = fold_lattice(raw, table)
        assert folded.area <= raw.area, bench.name
        saving += raw.area - folded.area
    assert saving > 0


def test_exact_covers_give_the_smallest_lattices():
    for bench in [b for b in SMALL if 3 <= b.n <= 5][:8]:
        table = bench.function.on
        areas = {}
        for method, engine in (("exact", exact_minimize),
                               ("heuristic", heuristic_minimize),
                               ("isop", isop)):
            lattice = lattice_from_covers(engine(table),
                                          engine(table.dual()))
            assert lattice.implements(table), (bench.name, method)
            areas[method] = lattice.area
        assert areas["exact"] <= areas["heuristic"], bench.name
        assert areas["exact"] <= areas["isop"], bench.name


# -- Section IV: fault tolerance -------------------------------------------

def test_bist_five_constant_configurations_cover_every_fault(fast_experiment):
    for row in fast_experiment("bist").rows:
        assert row["coverage"] == 1.0, f"escapes on {row['crossbar']}"
        assert row["configs"] == 5
        assert row["configs"] < row["naive_configs"]
    assert run_bist(8, 8).coverage == 1.0


def test_bisd_needs_log2_resources_plus_two_configurations(fast_experiment):
    for row in fast_experiment("bisd").rows:
        assert row["accuracy"] == 1.0
        assert row["configs"] == math.ceil(math.log2(row["resources"])) + 2
    assert run_bisd(4, 8).accuracy == 1.0


@pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4), (4, 6)])
def test_fault_dictionary_tells_most_faults_apart(rows, cols):
    # the full universe: lines and bridges join the crosspoint codewords
    dictionary = build_fault_dictionary(rows, cols)
    unique = sum(1 for group in dictionary.groups.values() if len(group) == 1)
    assert unique >= dictionary.num_faults * 0.6
    assert dictionary.num_signatures > 1


def test_bism_blind_explodes_greedy_stays_flat(fast_experiment):
    rows = fast_experiment("bism").rows
    by_key = {(row["strategy"], row["density"]): row for row in rows}
    densities = sorted({row["density"] for row in rows})
    low, high = densities[0], densities[-1]
    # at zero density every strategy succeeds in one BIST session
    for strategy in ("blind", "greedy", "hybrid"):
        assert by_key[(strategy, low)].get("success") == 1.0
        assert by_key[(strategy, low)]["avg_bist"] == 1.0
    assert (by_key[("blind", high)]["avg_bist"]
            > 3 * by_key[("blind", low)]["avg_bist"])
    assert (by_key[("greedy", high)]["avg_bist"]
            < by_key[("blind", high)]["avg_bist"])
    # hybrid is never much worse than the better of the two
    for density in densities:
        best = min(by_key[("blind", density)]["avg_sessions"],
                   by_key[("greedy", density)]["avg_sessions"])
        assert by_key[("hybrid", density)]["avg_sessions"] <= best * 2.5 + 5


def test_blind_bism_maps_most_lightly_defective_fabrics():
    rng = random.Random(0)
    program = as_program([[True, False, True], [False, True, False]])
    maps = [random_defect_map(12, 12, 0.1, rng) for _ in range(20)]
    local = random.Random(1)
    successes = sum(blind_bism(program, m, local, max_retries=100).success
                    for m in maps)
    assert successes >= 15


def test_hybrid_bism_completes_at_every_blind_budget():
    program = as_program([[True, False, True], [False, True, False]])
    for budget in (1, 3, 5, 10, 20):
        rng = random.Random(100)
        for seed in range(40):
            defect_map = random_defect_map(10, 10, 0.2, random.Random(seed))
            result = hybrid_bism(program, defect_map, rng,
                                 blind_budget=budget, max_retries=120)
            assert result.total_sessions(bisd_cost=9) >= 1, (budget, seed)


def test_fig6_defect_unaware_flow(fast_experiment):
    for row in fast_experiment("fig6").rows:
        # storage: the O(N) list beats the O(N^2) map
        assert row["unaware_map_words"] < row["aware_map_words"]
        # once the clean region fits, per-app mapping is free
        if row["avg_recovered_k"] >= 3:
            assert row["unaware_sessions/app"] == 0.0
        assert row["aware_sessions/app"] >= 1.0

    rng = random.Random(3)
    maps = [random_defect_map(32, 32, 0.05, rng) for _ in range(10)]
    assert all(greedy_clean_subarray(m).k > 0 for m in maps)


def test_recovered_k_degrades_gracefully(fast_experiment):
    rows = fast_experiment("recovery").rows
    ks = [row["avg_k"] for row in rows]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert rows[0]["k_over_n"] == 1.0
    assert rows[-1]["k_over_n"] > 0.2


def test_lattice_mapping_success_degrades_with_density(fast_experiment):
    rows = fast_experiment("latticemap").rows
    by_density = {row["density"]: row for row in rows}
    assert by_density[0.0]["success_rate"] == 1.0
    assert by_density[0.0]["avg_trials"] == 1.0
    rates = [row["success_rate"] for row in rows]
    assert all(a >= b - 0.15 for a, b in zip(rates, rates[1:]))

    lattice = _folded("xnor2")
    rng = random.Random(0)
    fabrics = [random_defect_map(8, 8, 0.1, rng) for _ in range(10)]
    local = random.Random(1)
    assert sum(map_lattice_random(lattice, fabric, local,
                                  max_trials=100).success
               for fabric in fabrics) >= 5


def test_variation_awareness_helps_more_as_sigma_grows(fast_experiment):
    rows = fast_experiment("variation").rows
    for row in rows:
        assert row["aware_mean"] <= row["oblivious_mean"] * 1.02
    gains = [row["mean_gain"] for row in rows]
    assert gains[-1] > gains[0]

    rng = random.Random(0)
    maps = [lognormal_variation(16, 16, 0.5, rng) for _ in range(20)]
    assert all(m.resistance.shape == (16, 16) for m in maps)


def test_yield_tracks_analytic_and_grows_as_k_shrinks(fast_experiment):
    rows = fast_experiment("yield").rows
    # for k == N there is one candidate placement: MC tracks the analytic
    # probability closely
    for row in rows:
        if row["k"] == row["N"]:
            assert abs(row["monte_carlo_yield"]
                       - row["fixed_placement_prob"]) < 0.15
    by_density: dict = {}
    for row in rows:
        by_density.setdefault(row["density"], []).append(row)
    for bucket in by_density.values():
        yields = [r["monte_carlo_yield"]
                  for r in sorted(bucket, key=lambda r: r["k"])]
        assert all(a >= b - 1e-9 for a, b in zip(yields, yields[1:]))


def test_yield_campaign_respects_analytic_bounds():
    spec = CampaignSpec(
        n_values=(12,), k_values=(6, 9, 12),
        densities=(0.01, 0.05, 0.1, 0.2),
        trials=500, seed=42, batch_size=125,
    )
    result = run_campaign(spec)
    assert all(c["within_markov"] and c["matches_exact"]
               for c in analytic_crosschecks(result))
    for est in result.estimates:
        yields = [est.yield_rate(k) for k in sorted(spec.k_values)]
        assert all(a >= b - 1e-9 for a, b in zip(yields, yields[1:]))
    # campaign vs scalar estimator on one shared point (k=9, d=0.05)
    scalar = monte_carlo_yield(12, 9, 0.05, 400, random.Random(5))
    campaign_rate = result.estimates[
        [e.point.density for e in result.estimates].index(0.05)
    ].yield_rate(9)
    assert abs(scalar.yield_rate - campaign_rate) < 0.15
    small = monte_carlo_yield(12, 9, 0.05, 50, random.Random(5))
    assert 0.0 <= small.yield_rate <= 1.0


def test_tmr_wins_at_low_upset_rates(fast_experiment):
    by_rate = {row["upset_rate"]: row for row in fast_experiment("tmr").rows
               if isinstance(row["upset_rate"], float)}
    assert by_rate[0.0]["simplex_correct"] == 1.0
    assert by_rate[0.0]["tmr_correct"] == 1.0
    assert by_rate[0.01]["tmr_correct"] >= by_rate[0.01]["simplex_correct"]
    # the advantage shrinks (or inverts) as the rate grows
    gain_low = by_rate[0.01]["tmr_correct"] - by_rate[0.01]["simplex_correct"]
    gain_high = by_rate[0.2]["tmr_correct"] - by_rate[0.2]["simplex_correct"]
    assert gain_high < gain_low + 0.05

    f = by_name("xnor2").function
    point = tmr_reliability(_folded("xnor2"), f.on, [0.05], 200,
                            random.Random(0))[0]
    assert 0.0 <= point.tmr_correct <= 1.0
    assert majority_voter_lattice().area == 6  # maj3 folds to 2x3


def test_arch_elements_verify(fast_experiment):
    rows = fast_experiment("arch").rows
    assert rows
    for row in rows:
        assert row["verified"], row["element"]

    ssm = SynchronousStateMachine(counter_spec(3))
    assert ssm.run([1] * 200)[-1] == 199 % 8


# -- batched kernels against their references ------------------------------

def _n6_lattices():
    """The 6-variable suite functions as dual lattices, folded where that
    changes the shape: 4x2 up to 26x15."""
    lattices = []
    for bench in standard_suite():
        if bench.n != 6:
            continue
        dual = synthesize_lattice_dual(bench.function.on)
        lattices.append(dual)
        folded = fold_lattice(dual, bench.function.on)
        if folded.shape != dual.shape:
            lattices.append(folded)
    return lattices


def test_batched_truth_tables_equal_the_scalar_loop():
    lattices = _n6_lattices()
    assert lattices, "benchmark suite lost its 6-variable functions"
    assert ([lattice_truthtable(lattice) for lattice in lattices]
            == [lattice.to_truth_table_scalar() for lattice in lattices])


def test_percolation_duality_and_scalar_floods_on_random_grids():
    gen = np.random.default_rng(3)
    grids = gen.random((64, 8, 8)) < 0.5
    assert top_bottom_connected_batch(grids).tolist() == [
        not left_right_blocked_8(grid.tolist()) for grid in grids]

    rng = random.Random(1)
    grids = [[[rng.random() < 0.6 for _ in range(16)] for _ in range(16)]
             for _ in range(100)]
    scalar = [top_bottom_connected(grid) for grid in grids]
    assert top_bottom_connected_batch(np.array(grids)).tolist() == scalar


@pytest.mark.parametrize("rows, cols, batch", [(128, 10, 24), (256, 8, 16)])
def test_tall_grid_floods_equal_the_unpacked_reference(rows, cols, batch,
                                                      monkeypatch):
    grids = np.random.default_rng(5).random((batch, rows, cols)) < 0.55
    scalar = [top_bottom_connected(grid.tolist()) for grid in grids]
    assert connectivity._top_bottom_connected_unpacked(grids).tolist() \
        == scalar
    assert top_bottom_connected_batch(grids).tolist() == scalar
    monkeypatch.setattr(connectivity, "_ndimage", None)
    assert top_bottom_connected_batch(grids).tolist() == scalar


@pytest.mark.parametrize("processes", [1, 2])
def test_engine_warm_rerun_answers_every_job_from_the_store(processes,
                                                            tmp_path):
    jobs = [SynthesisJob.from_function(b.function, b.name,
                                       ("dual", "dreducible", "pcircuit"))
            for b in suite(max_vars=5)]
    cache = str(tmp_path / "engine.sqlite")
    for _ in range(2):  # cold, then warm
        with BatchEngine(cache_path=cache, processes=processes) as engine:
            assert len(engine.run(jobs)) == len(jobs)
            hit_rate = engine.stats.hit_rate
    assert hit_rate == 1.0


def test_wide_n_npn_mates_share_one_race(tmp_path):
    """n=7 is past exact canonicalization; the semi-canonical key still
    collapses each table and its permuted, negated mate onto one race."""
    n, bases = 7, 2
    rng = random.Random(43)
    jobs = []
    for index in range(bases):
        table = TruthTable.from_bits(n, rng.getrandbits(1 << n))
        perm = list(range(n))
        rng.shuffle(perm)
        # no output flip: the store keeps one lattice per (class,
        # output-polarity) slot
        mate = apply_transform(table, NpnTransform(
            tuple(perm), rng.getrandbits(n), False))
        jobs.append(SynthesisJob.from_function(table, f"base-{index}",
                                               ("dual",)))
        jobs.append(SynthesisJob.from_function(mate, f"mate-{index}",
                                               ("dual",)))
    cache = str(tmp_path / "wide.sqlite")
    with BatchEngine(cache_path=cache, processes=1) as engine:
        engine.run(jobs)
        assert engine.stats.races_run <= bases + 1
    with BatchEngine(cache_path=cache, processes=1) as engine:
        engine.run(jobs)
        assert engine.stats.hit_rate == 1.0


def _variation_spec(trials, sigmas=(0.5,), batch_size=None):
    return VariationCampaignSpec(
        lattice=synthesize_lattice_dual(by_name("xnor2").function.on),
        sigmas=sigmas, crossbar_rows=8, crossbar_cols=8, trials=trials,
        batch_size=batch_size or trials, seed=1)


def test_variation_campaign_agrees_with_the_scalar_sweep():
    spec = _variation_spec(80)
    scalar = variation_sweep(spec.lattice, [0.5], 8, 8, 80, random.Random(1))[0]
    estimate = run_variation_campaign(spec).estimates[0]
    # same distributions, different streams: the Section IV ordering holds
    # on each side and the means agree within sampling noise
    assert estimate.aware_mean <= estimate.oblivious_mean * 1.02
    assert scalar.aware_mean <= scalar.oblivious_mean * 1.02
    assert (abs(estimate.aware_mean - scalar.aware_mean)
            <= 0.35 * scalar.aware_mean)
    assert (abs(estimate.oblivious_mean - scalar.oblivious_mean)
            <= 0.35 * scalar.oblivious_mean)


def test_variation_campaign_serial_equals_pooled():
    spec = _variation_spec(80, sigmas=(0.1, 0.3, 0.6), batch_size=20)
    serial = run_variation_campaign(spec, processes=1)
    pooled = run_variation_campaign(spec, processes=2)
    assert ([e.aware_delays for e in serial.estimates]
            == [e.aware_delays for e in pooled.estimates])
    assert ([e.oblivious_delays for e in serial.estimates]
            == [e.oblivious_delays for e in pooled.estimates])


def test_variation_campaign_warm_store(tmp_path):
    spec = _variation_spec(80, sigmas=(0.2, 0.5))
    store = str(tmp_path / "campaigns.sqlite")
    cold = run_variation_campaign(spec, store=store)
    warm = run_variation_campaign(spec, store=store)
    assert cold.cache_hits == 0
    assert warm.cache_hits == len(warm.estimates)
    assert ([e.aware_delays for e in cold.estimates]
            == [e.aware_delays for e in warm.estimates])


def test_vectorized_extraction_agrees_with_the_scalar_mean():
    trials = 1000
    rng = random.Random(1)
    scalar = [greedy_clean_subarray(random_defect_map(32, 32, 0.05, rng)).k
              for _ in range(trials)]
    batch = bernoulli_defect_batch(trials, 32, 32, 0.05,
                                   np.random.default_rng(1))
    vector = recovered_k_batch(batch.defective())
    assert abs(sum(scalar) / trials - float(vector.mean())) < 1.0


def test_fault_campaign_serial_equals_pooled():
    spec = CampaignSpec(
        n_values=(24,), k_values=(12, 18, 24),
        densities=(0.01, 0.05, 0.1, 0.2),
        trials=400, batch_size=50,
    )
    serial = run_campaign(spec, processes=1)
    pooled = run_campaign(spec, processes=2)
    assert ([e.k_histogram for e in serial.estimates]
            == [e.k_histogram for e in pooled.estimates])


def test_fault_campaign_warm_store(tmp_path):
    spec = CampaignSpec(
        n_values=(16,), k_values=(8, 12, 16),
        densities=(0.02, 0.1), trials=300, batch_size=100,
    )
    store = str(tmp_path / "campaigns.sqlite")
    cold = run_campaign(spec, store=store)
    warm = run_campaign(spec, store=store)
    assert cold.cache_hits == 0
    assert warm.cache_hits == len(warm.estimates)
    assert ([e.k_histogram for e in cold.estimates]
            == [e.k_histogram for e in warm.estimates])


# -- substrates --------------------------------------------------------------

def test_exact_minimize_finds_products():
    tables = [TruthTable.from_bits(4, (0x9D3A + 977 * i) & 0xFFFF)
              for i in range(10)]
    assert sum(exact_minimize(t).num_products for t in tables) > 0


def test_isop_cover_reproduces_its_table():
    table = TruthTable.from_callable(8, lambda m: bin(m).count("1") in (2, 3, 5))
    assert isop(table).to_truth_table() == table


def test_dual_of_three_of_six_has_fifteen_products():
    table = TruthTable.from_callable(6, lambda m: bin(m).count("1") >= 3)
    # the dual of (>=3 of 6) is (>=4 of 6): C(6,4) products
    assert minimize(table.dual()).num_products == 15


def test_random_3sat_models_satisfy_their_clauses():
    rng = random.Random(99)
    for _ in range(5):
        cnf = Cnf(30)
        for _ in range(110):
            variables = rng.sample(range(1, 31), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
        model = solve_cnf(cnf)
        if model is not None:
            assert all(any(model[abs(lit)] == (lit > 0) for lit in clause)
                       for clause in cnf.clauses)
