"""Tests for BISM strategies, the defect-unaware flow, variation and yield."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crossbar import Lattice
from repro.reliability import (
    DefectMap,
    VariationMap,
    as_program,
    best_path_delay,
    bism_density_sweep,
    blind_bism,
    clean_placement_probability,
    defect_unaware_flow,
    defective_junctions,
    diode_row_delay,
    expected_clean_squares,
    greedy_bism,
    greedy_clean_subarray,
    hybrid_bism,
    lattice_critical_delay,
    lognormal_variation,
    mapping_is_valid,
    max_clean_square_exact,
    monte_carlo_yield,
    perfect_map,
    random_defect_map,
    recovery_sweep,
    variation_aware_selection,
    variation_sweep,
)
from repro.reliability.defects import OK, STUCK_CLOSED, STUCK_OPEN

PROGRAM = as_program([[True, False, True], [False, True, False]])


class TestBismStrategies:
    def test_perfect_crossbar_first_try(self):
        rng = random.Random(0)
        result = blind_bism(PROGRAM, perfect_map(5, 5), rng)
        assert result.success and result.bist_sessions == 1

    @pytest.mark.parametrize("strategy", [blind_bism, greedy_bism, hybrid_bism])
    def test_returned_mapping_is_valid(self, strategy):
        rng = random.Random(7)
        for seed in range(20):
            rng = random.Random(seed)
            defect_map = random_defect_map(8, 8, 0.08, rng)
            result = strategy(PROGRAM, defect_map, rng)
            if result.success:
                assert mapping_is_valid(PROGRAM, result.mapping, defect_map)
                assert len(set(result.mapping.row_map)) == len(PROGRAM)
                assert len(set(result.mapping.col_map)) == len(PROGRAM[0])

    def test_application_too_large_raises(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            blind_bism(PROGRAM, perfect_map(1, 1), rng)
        with pytest.raises(ValueError):
            greedy_bism(PROGRAM, perfect_map(1, 1), rng)

    def test_blind_gives_up_on_hopeless_fabric(self):
        rng = random.Random(1)
        # every crosspoint stuck-open: programmed junctions can never close
        hopeless = DefectMap(4, 4, bytes([STUCK_OPEN] * 16))
        result = blind_bism(PROGRAM, hopeless, rng, max_retries=10)
        assert not result.success and result.bist_sessions == 10

    def test_greedy_uses_diagnosis_sessions(self):
        rng = random.Random(3)
        defect_map = random_defect_map(8, 8, 0.25, rng)
        result = greedy_bism(PROGRAM, defect_map, rng, max_retries=100)
        if result.success and result.configurations_tried > 1:
            assert result.bisd_sessions == result.bist_sessions - 1

    def test_hybrid_switches(self):
        rng = random.Random(5)
        defect_map = random_defect_map(6, 6, 0.5, rng)
        result = hybrid_bism(PROGRAM, defect_map, rng,
                             blind_budget=2, max_retries=60)
        if result.bist_sessions > 2:
            assert result.switched_to_greedy

    def test_fabric_bist_agrees_with_direct_validity(self):
        # Application-dependent BIST on the behavioural fault simulator
        # and the defect-map check BISM runs must agree on pass/fail for
        # the same mapping.
        from repro.reliability import (
            CrossbarFabric,
            application_bist_passes,
            mapped_program,
        )
        from repro.reliability.bism import Mapping

        rng = random.Random(11)
        for seed in range(30):
            rng_local = random.Random(seed)
            defect_map = random_defect_map(6, 6, 0.15, rng_local)
            mapping = Mapping(
                tuple(rng_local.sample(range(6), 2)),
                tuple(rng_local.sample(range(6), 3)),
            )
            direct = mapping_is_valid(PROGRAM, mapping, defect_map)
            behavioural = application_bist_passes(
                CrossbarFabric(6, 6), mapped_program(PROGRAM, mapping, 6, 6),
                defect_map, observed_rows=mapping.row_map,
                driven_cols=mapping.col_map)
            assert direct == behavioural

    def test_defective_junctions_identifies_offenders(self):
        from repro.reliability.bism import Mapping

        defect_map = DefectMap.from_grid([[STUCK_OPEN, OK, OK, OK],
                                          [OK, STUCK_CLOSED, OK, OK],
                                          [OK, OK, OK, OK],
                                          [OK, OK, OK, OK]])
        mapping = Mapping((0, 1), (0, 1, 2))
        bad = defective_junctions(PROGRAM, mapping, defect_map)
        # app (0,0) -> phys (0,0): programmed on stuck-open -> offending
        assert (0, 0) in bad
        # app (1,1) -> phys (1,1): programmed on stuck-closed -> fine
        assert (1, 1) not in bad

    def test_density_sweep_shapes(self, monkeypatch):
        monkeypatch.setattr("repro.reliability.bism.SWEEP_MAX_RETRIES", 60)
        rng = random.Random(9)
        points = bism_density_sweep(PROGRAM, 8, 8, [0.0, 0.3], trials=10, rng=rng)
        by_key = {(p.strategy, p.density): p for p in points}
        # at zero density everything succeeds in one shot
        for strategy in ("blind", "greedy", "hybrid"):
            assert by_key[(strategy, 0.0)].success_rate == 1.0
            assert by_key[(strategy, 0.0)].avg_bist_sessions == 1.0
        # blind needs (weakly) more BIST sessions at high density
        assert (by_key[("blind", 0.3)].avg_bist_sessions
                >= by_key[("greedy", 0.3)].avg_bist_sessions - 1e-9)


class TestDefectUnaware:
    def test_greedy_result_is_clean(self):
        rng = random.Random(2)
        for seed in range(25):
            defect_map = random_defect_map(10, 10, 0.1, random.Random(seed))
            clean = greedy_clean_subarray(defect_map)
            assert defect_map.is_clean(clean.rows, clean.cols)

    def test_exact_result_is_clean_and_optimal_vs_bruteforce(self):
        from itertools import combinations

        for seed in range(10):
            rng = random.Random(seed)
            defect_map = random_defect_map(5, 5, 0.2, rng)
            exact = max_clean_square_exact(defect_map)
            assert defect_map.is_clean(exact.rows, exact.cols)
            # brute force the true maximum k
            best = 0
            for k in range(1, 6):
                found = False
                for rows in combinations(range(5), k):
                    for cols in combinations(range(5), k):
                        if defect_map.is_clean(rows, cols):
                            found = True
                            break
                    if found:
                        break
                if found:
                    best = k
            assert exact.k == best

    def test_greedy_never_beats_exact(self):
        for seed in range(15):
            defect_map = random_defect_map(7, 7, 0.15, random.Random(seed))
            assert greedy_clean_subarray(defect_map).k <= max_clean_square_exact(defect_map).k

    def test_perfect_map_recovers_everything(self):
        clean = greedy_clean_subarray(perfect_map(6, 6))
        assert (len(clean.rows), len(clean.cols)) == (6, 6) and clean.k == 6

    def test_flow_comparison_storage_and_sessions(self):
        rng = random.Random(4)
        defect_map = random_defect_map(16, 16, 0.05, rng)
        comparison = defect_unaware_flow(defect_map, 3, 3, rng)
        assert comparison.aware_map_words == 256
        assert comparison.unaware_map_words < 40
        if comparison.recovered_k >= 3:
            assert comparison.unaware_sessions_per_app == 0.0
        assert comparison.aware_sessions_per_app >= 1.0

    def test_recovery_sweep_monotone_in_density(self):
        rng = random.Random(6)
        rows = recovery_sweep(12, [0.0, 0.1, 0.3], trials=8, rng=rng)
        assert rows[0]["avg_k"] == 12
        assert rows[0]["avg_k"] >= rows[1]["avg_k"] >= rows[2]["avg_k"]


class TestVariation:
    def test_variation_map_validation(self):
        with pytest.raises(ValueError):
            VariationMap(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            VariationMap(np.ones(4))

    def test_lognormal_sigma_zero_is_nominal(self):
        vm = lognormal_variation(3, 3, 0.0, random.Random(0), nominal=2.0)
        assert np.allclose(vm.resistance, 2.0)

    def test_lognormal_vectorized_distribution_equivalence(self):
        """The vectorized Generator draw samples the same lognormal the
        old per-crosspoint ``rng.gauss`` loop did."""
        sigma, nominal = 0.5, 2.0
        vm = lognormal_variation(200, 200, sigma, random.Random(7),
                                 nominal=nominal)
        # Reference: the scalar formulation R = nominal * exp(N(0, sigma)).
        rng = random.Random(7)
        reference = np.array([
            nominal * np.exp(rng.gauss(0.0, sigma)) for _ in range(40_000)
        ])
        logs = np.log(vm.resistance / nominal).ravel()
        ref_logs = np.log(reference / nominal)
        assert abs(logs.mean() - ref_logs.mean()) < 0.02
        assert abs(logs.std() - ref_logs.std()) < 0.02
        assert abs(logs.std() - sigma) < 0.02
        for q in (5, 25, 50, 75, 95):
            assert abs(np.percentile(logs, q)
                       - np.percentile(ref_logs, q)) < 0.03

    def test_lognormal_seeded_and_accepts_generator(self):
        a = lognormal_variation(4, 4, 0.3, random.Random(9))
        b = lognormal_variation(4, 4, 0.3, random.Random(9))
        assert np.allclose(a.resistance, b.resistance)
        g = lognormal_variation(4, 4, 0.3, np.random.default_rng(9))
        h = lognormal_variation(4, 4, 0.3, np.random.default_rng(9))
        assert np.allclose(g.resistance, h.resistance)
        assert not np.allclose(a.resistance, g.resistance)

    def test_best_path_delay_simple(self):
        grid = [[True, False], [True, False]]
        resistance = np.array([[1.0, 9.0], [2.0, 9.0]])
        assert best_path_delay(grid, resistance) == pytest.approx(3.0)

    def test_best_path_delay_picks_cheaper_route(self):
        grid = [[True, True], [True, True]]
        resistance = np.array([[1.0, 10.0], [1.0, 10.0]])
        assert best_path_delay(grid, resistance) == pytest.approx(2.0)

    def test_best_path_delay_none_when_blocked(self):
        grid = [[True], [False]]
        assert best_path_delay(grid, np.ones((2, 1))) is None

    def test_lattice_critical_delay_nominal(self):
        lattice = Lattice.from_strings(2, ["x1", "x2"])
        vm = VariationMap(np.ones((2, 1)))
        assert lattice_critical_delay(lattice, vm) == pytest.approx(2.0)

    def test_diode_row_delay(self):
        vm = VariationMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        program = [[True, True], [True, False]]
        assert diode_row_delay(program, vm) == pytest.approx(3.0)

    def test_aware_selection_picks_low_resistance_lines(self):
        resistance = np.array([
            [1.0, 1.0, 5.0],
            [9.0, 9.0, 9.0],
            [1.0, 1.0, 5.0],
        ])
        rows, cols = variation_aware_selection(VariationMap(resistance), 2, 2)
        assert rows == [0, 2]
        assert cols == [0, 1]

    def test_variation_sweep_aware_no_worse(self):
        rng = random.Random(8)
        lattice = Lattice.from_strings(2, ["x1 x1'", "x2 x2'"])
        points = variation_sweep(lattice, [0.8], 8, 8, trials=30, rng=rng)
        assert points[0].aware_mean <= points[0].oblivious_mean


class TestYield:
    def test_clean_placement_probability(self):
        assert clean_placement_probability(2, 2, 0.0) == 1.0
        assert clean_placement_probability(2, 2, 0.5) == pytest.approx(0.0625)

    def test_expected_clean_squares_monotone(self):
        assert expected_clean_squares(8, 3, 0.1) > expected_clean_squares(8, 5, 0.1)
        assert expected_clean_squares(8, 9, 0.1) == 0.0

    def test_monte_carlo_yield_extremes(self):
        rng = random.Random(10)
        assert monte_carlo_yield(6, 6, 0.0, 10, rng).yield_rate == 1.0
        assert monte_carlo_yield(6, 6, 0.9, 10, rng).yield_rate == 0.0

    def test_monte_carlo_close_to_fixed_probability_for_k_equals_n(self):
        # with k == N there is a single candidate subarray, so the yield is
        # exactly the fixed-placement probability (up to MC noise)
        rng = random.Random(11)
        estimate = monte_carlo_yield(4, 4, 0.05, 400, rng)
        analytic = clean_placement_probability(4, 4, 0.05)
        assert abs(estimate.yield_rate - analytic) < 0.1

    @given(st.integers(min_value=1, max_value=4), st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=20, deadline=None)
    def test_greedy_mc_yield_is_lower_bound_of_exact(self, k, density):
        rng = random.Random(42)
        greedy_est = monte_carlo_yield(5, k, density, 30, rng)
        rng = random.Random(42)
        exact_successes = sum(
            max_clean_square_exact(random_defect_map(5, 5, density, rng)).k >= k
            for _ in range(30))
        assert greedy_est.successes <= exact_successes
