"""The batched Monte-Carlo trials answer what the per-trial loops answered.

``tmr_reliability``, ``monte_carlo_yield`` and ``recovery_sweep`` draw
their random numbers in a fixed per-trial Python order and evaluate the
trials in batches.  The oracles below are the plain per-trial loops,
evaluating each trial as it is drawn.  Every call must return the same
result *and* leave the generator in the same state, which shows the draw
order did not move, through either flood dispatch and across trial-chunk
boundaries.
"""

import random

import pytest

from repro.boolean import TruthTable
from repro.boolean.cube import Literal
from repro.crossbar.lattice import Lattice
from repro.reliability import (
    ReliabilityPoint,
    TmrSystem,
    YieldEstimate,
    defect_unaware,
    greedy_clean_subarray,
    majority_voter_lattice,
    monte_carlo_yield,
    random_defect_map,
    recovery_sweep,
    redundancy,
    tmr_reliability,
)
from repro.synthesis import fold_lattice, synthesize_lattice_dual
from repro.xbareval import connectivity


# ----------------------------------------------------------------------
# The per-trial oracles
# ----------------------------------------------------------------------
def _oracle_tmr(replica, table, upset_rates, trials, rng):
    system = TmrSystem(replica=replica, voter=majority_voter_lattice())
    assignments = list(range(1 << replica.n))
    points = []
    for rate in upset_rates:
        simplex_ok = 0
        tmr_ok = 0
        for _ in range(trials):
            assignment = rng.choice(assignments)
            golden = table.evaluate(assignment)

            def flip(nominal, rate=rate):
                if rng.random() < rate:
                    return not nominal
                return nominal

            simplex = replica.evaluate(assignment, lambda r, c, v: flip(v))
            if simplex == golden:
                simplex_ok += 1
            if system.evaluate(assignment, rng, rate) == golden:
                tmr_ok += 1
        points.append(ReliabilityPoint(
            upset_rate=rate,
            simplex_correct=simplex_ok / trials,
            tmr_correct=tmr_ok / trials,
        ))
    return points


def _oracle_yield(n, k, density, trials, rng):
    successes = 0
    for _ in range(trials):
        defect_map = random_defect_map(n, n, density, rng)
        if greedy_clean_subarray(defect_map).k >= k:
            successes += 1
    return YieldEstimate(n, k, density, trials, successes)


def _oracle_recovery(n, densities, trials, rng):
    rows = []
    for density in densities:
        ks = []
        for _ in range(trials):
            defect_map = random_defect_map(n, n, density, rng)
            ks.append(greedy_clean_subarray(defect_map).k)
        rows.append({
            "N": n,
            "density": density,
            "avg_k": sum(ks) / trials,
            "k_over_n": sum(ks) / trials / n,
            "min_k": min(ks),
            "max_k": max(ks),
        })
    return rows


def _same(batched, oracle, seed, *args, **kwargs):
    """Run both with generators seeded alike; compare results and states."""
    rng, reference = random.Random(seed), random.Random(seed)
    result = batched(*args, rng=rng, **kwargs)
    expected = oracle(*args, rng=reference, **kwargs)
    assert result == expected, (seed, args, kwargs)
    assert rng.getstate() == reference.getstate(), (seed, args, kwargs)
    return result


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(params=["dispatched", "no-scipy"])
def dispatch(request, monkeypatch):
    if request.param == "no-scipy":
        monkeypatch.setattr(connectivity, "_ndimage", None)
    return request.param


@pytest.fixture(params=["one-chunk", "small-chunks"])
def chunking(request, monkeypatch):
    """The default budget, or one small enough to split every batch."""
    if request.param == "small-chunks":
        monkeypatch.setattr(redundancy, "CHUNK_ELEMENTS", 100)
        monkeypatch.setattr(defect_unaware, "CHUNK_ELEMENTS", 100)
    return request.param


def _replicas():
    """(name, replica, table): 1x1, the folded xnor2, non-square, random."""
    x0 = TruthTable.variable(1, 0)
    xnor = TruthTable.from_minterms(2, [0, 3])
    rng = random.Random(21)
    wide = Lattice(3, [[Literal(rng.randrange(3), rng.random() < 0.5)
                        for _ in range(3)] for _ in range(2)])
    tall = Lattice(2, [[Literal(0, True), True], [False, Literal(1, False)],
                       [Literal(1, True), Literal(0, False)]])
    random_table = TruthTable(3, [rng.random() < 0.5 for _ in range(8)])
    return [
        ("1x1", Lattice(1, [[Literal(0, True)]]), x0),
        ("xnor2", fold_lattice(synthesize_lattice_dual(xnor), xnor), xnor),
        ("2x3", wide, wide.to_truth_table_scalar()),
        ("3x2", tall, tall.to_truth_table_scalar()),
        ("2x3-random-table", wide, random_table),
    ]


# ----------------------------------------------------------------------
# TMR
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 2017])
def test_tmr_matches_the_per_trial_loop(seed, dispatch, chunking):
    rates = [0.0, 0.01, 0.1, 0.5, 1.0]
    for name, replica, table in _replicas():
        points = _same(tmr_reliability, _oracle_tmr, seed,
                       replica, table, rates, 37)
        assert [p.upset_rate for p in points] == rates, name


def test_tmr_edge_rates_and_counts():
    replica = Lattice(2, [[Literal(0, True)], [Literal(1, True)]])
    table = replica.to_truth_table_scalar()
    # Rate 1.0 flips every site: the replica's complement grid.
    _same(tmr_reliability, _oracle_tmr, 3, replica, table, [1.0, 0.0], 25)
    # One trial at rate 0, which draws only the simplex's numbers, and no
    # rate at all, which draws nothing.
    _same(tmr_reliability, _oracle_tmr, 4, replica, table, [0.0], 1)
    _same(tmr_reliability, _oracle_tmr, 5, replica, table, [], 10)


# ----------------------------------------------------------------------
# Yield
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 42, 99])
def test_yield_matches_the_per_trial_loop(seed, chunking):
    for n, k, density in [(1, 1, 0.3), (5, 3, 0.1), (8, 6, 0.05),
                          (8, 4, 0.2), (6, 6, 0.0), (4, 1, 1.0)]:
        _same(monte_carlo_yield, _oracle_yield, seed, n, k, density, 31)


def test_yield_without_trials_draws_nothing():
    _same(monte_carlo_yield, _oracle_yield, 8, 6, 3, 0.1, 0)


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 13])
def test_recovery_matches_the_per_trial_loop(seed, chunking):
    for n, densities in [(1, [0.0, 0.5, 1.0]),
                         (6, [0.0, 0.1, 0.3]),
                         (12, [0.02, 0.2, 1.0])]:
        _same(recovery_sweep, _oracle_recovery, seed, n, densities, 9)
