"""Tests for the SAT substrate: CNF, encodings and the CDCL solver."""

import random

import numpy as np
import pytest

from repro.sat import (
    Cnf,
    Solver,
    at_most_one_pairwise,
    brute_force_cnf,
    exactly_one,
    luby,
    solve_cnf,
)


class TestCnf:
    def test_add_clause_tracks_vars(self):
        cnf = Cnf()
        cnf.add_clause([1, -5])
        assert cnf.num_vars == 5 and len(cnf) == 1

    def test_tautologies_dropped(self):
        cnf = Cnf()
        cnf.add_clause([1, -1, 2])
        assert len(cnf) == 0

    def test_duplicate_literals_merged(self):
        cnf = Cnf()
        cnf.add_clause([2, 2, 3])
        assert cnf.clauses[0] == (2, 3)

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Cnf().add_clause([0])

    def test_evaluate(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1])
        assert cnf.evaluate({1: False, 2: True})
        assert not cnf.evaluate({1: True, 2: True})


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)


class TestSolverBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() is True

    def test_unit_conflict_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() is False

    def test_simple_sat_model(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() is True
        model = solver.model()
        assert model[2] and model[3]

    def test_pigeonhole_2_into_1_unsat(self):
        # two pigeons, one hole
        solver = Solver()
        solver.add_clause([1])   # pigeon 1 in hole 1
        solver.add_clause([2])   # pigeon 2 in hole 1
        solver.add_clause([-1, -2])
        assert solver.solve() is False

    def test_pigeonhole_3_into_2_unsat(self):
        # p_{i,j}: pigeon i (1..3) in hole j (1..2); var = 2*(i-1)+j
        cnf = Cnf()
        for i in range(3):
            cnf.add_clause([2 * i + 1, 2 * i + 2])
        for j in (1, 2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    cnf.add_clause([-(2 * i1 + j), -(2 * i2 + j)])
        assert solve_cnf(cnf) is None

    def test_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve(assumptions=[1]) is True
        assert solver.model()[3]
        solver2 = Solver()
        solver2.add_clause([-1, 2])
        solver2.add_clause([-2])
        assert solver2.solve(assumptions=[1]) is False

    def test_assumptions_conflicting_directly(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) is False

    def test_model_satisfies_formula(self):
        cnf = Cnf()
        clauses = [[1, -2, 3], [-1, 2], [2, 3, 4], [-3, -4], [1, 4]]
        cnf.add_clauses(clauses)
        model = solve_cnf(cnf)
        assert model is not None and cnf.evaluate(model)

    def test_statistics_populated(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.solve()
        stats = solver.statistics()
        assert stats["vars"] == 2


class TestIncremental:
    """Clauses added after a ``solve()`` see level-0 facts, not the model."""

    def test_add_clause_after_sat_solve(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve() is True
        # x1 = x3 = True satisfies all three clauses.
        assert solver.add_clause([1, -2, 3]) is True
        assert solver.solve() is True
        cnf = Cnf()
        cnf.add_clauses([[1, 2], [-1, 3], [1, -2, 3]])
        assert cnf.evaluate(solver.model())

    def test_add_unit_after_solve_under_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve(assumptions=[-1]) is True
        assert solver.model()[1] is False
        assert solver.add_clause([1]) is True
        assert solver.solve() is True
        assert solver.model()[1] and solver.model()[3]

    def test_model_survives_later_clauses(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve() is True
        model = solver.model()
        flipped = -1 if model[1] else 1
        assert solver.add_clause([flipped]) is True
        assert solver.model() == model

    @pytest.mark.parametrize("seed", range(12))
    def test_random_add_solve_sequence_matches_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 6)
        cnf = Cnf(num_vars)
        solver = Solver()
        for _ in range(25):
            width = rng.choice((1, 2, 2, 3, 3, 3))
            chosen = rng.sample(range(1, num_vars + 1), width)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            cnf.add_clause(clause)
            if not solver.add_clause(clause):
                assert brute_force_cnf(cnf) is None
            assumed = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 2))]
            with_units = Cnf(num_vars)
            with_units.add_clauses(cnf.clauses)
            with_units.add_clauses([lit] for lit in assumed)
            expected = brute_force_cnf(with_units)
            result = solver.solve(assumptions=assumed)
            assert result is (expected is not None)
            if result:
                assert with_units.evaluate(solver.model())


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int, width: int = 3) -> Cnf:
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        vars_chosen = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vars_chosen])
    return cnf


class TestSolverAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_3cnf_agrees(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 9)
        # around the phase transition ratio 4.3 for hard instances
        num_clauses = int(num_vars * rng.uniform(2.0, 6.0))
        cnf = random_cnf(rng, num_vars, num_clauses)
        expected = brute_force_cnf(cnf)
        model = solve_cnf(cnf)
        if expected is None:
            assert model is None
        else:
            assert model is not None
            assert cnf.evaluate(model)

    @pytest.mark.parametrize("seed", range(10))
    def test_larger_sat_instances(self, seed):
        rng = random.Random(1000 + seed)
        cnf = random_cnf(rng, 40, 120)
        model = solve_cnf(cnf)
        if model is not None:
            assert cnf.evaluate(model)
        else:
            # cross-check a claimed-UNSAT result on a smaller projection
            assert brute_force_cnf(cnf) is None if cnf.num_vars <= 22 else True


class TestLearntClauses:
    """Minimised learnt clauses stay implied by the original formula."""

    @staticmethod
    def _models(cnf: Cnf) -> np.ndarray:
        """Boolean ``(models, n + 1)`` table of every model; column 0 unused."""
        bits = np.arange(1 << cnf.num_vars)[:, None]
        values = np.zeros((len(bits), cnf.num_vars + 1), dtype=bool)
        values[:, 1:] = (bits >> np.arange(cnf.num_vars)) & 1
        satisfied = np.ones(len(values), dtype=bool)
        for clause in cnf.clauses:
            satisfied &= _clause_true(values, clause)
        return values[satisfied]

    def test_no_model_falsifies_a_learnt_clause(self):
        outcomes = set()
        learnt = dropped = 0
        for seed in range(100):
            rng = random.Random(7000 + seed)
            num_vars = rng.randint(12, 14)
            cnf = Cnf(num_vars)
            for _ in range(int(num_vars * rng.uniform(3.8, 5.0))):
                chosen = rng.sample(range(1, num_vars + 1), 3)
                cnf.add_clause([v if rng.random() < 0.5 else -v
                                for v in chosen])
            models = self._models(cnf)
            solver = Solver()
            solver.add_cnf(cnf)
            given = len(solver.clauses)
            redundant = solver._redundant

            def counted(*args, redundant=redundant):
                nonlocal dropped
                found = redundant(*args)
                dropped += found
                return found

            solver._redundant = counted
            # Solves under assumptions refute satisfiable formulas too, so
            # the clauses they learn still have models to be checked on.
            for round_index in range(8):
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, num_vars + 1),
                                                   round_index % 4)]
                result = solver.solve(assumptions)
                outcomes.add((result, len(models) > 0))
                if not solver.ok:
                    break
            for clause in solver.clauses:
                assert _clause_true(models, clause).all(), (seed, clause)
            learnt += len(solver.clauses) - given
        assert outcomes == {(True, True), (False, True), (False, False)}
        assert learnt > 200 and dropped > 20, (learnt, dropped)


def _clause_true(values: np.ndarray, clause) -> np.ndarray:
    lits = np.asarray(clause)
    return (values[:, np.abs(lits)] == (lits > 0)).any(axis=1)


def enumerate_models(cnf: Cnf, over_vars: int):
    """All assignments of vars 1..over_vars extendable to full models.

    Exhaustive over all ``2**num_vars`` assignments, evaluated as numpy
    bit columns: one boolean array per variable.
    """
    bits = np.arange(1 << cnf.num_vars)
    columns = [((bits >> (v - 1)) & 1).astype(bool)
               for v in range(1, cnf.num_vars + 1)]
    satisfied = np.ones(bits.size, dtype=bool)
    for clause in cnf.clauses:
        clause_true = np.zeros(bits.size, dtype=bool)
        for lit in clause:
            column = columns[abs(lit) - 1]
            clause_true |= column if lit > 0 else ~column
        satisfied &= clause_true
    kept = np.stack(columns[:over_vars], axis=1)[satisfied]
    return {tuple(bool(x) for x in row) for row in kept}


class TestEncodings:
    @pytest.mark.parametrize("seed", range(5))
    def test_enumerate_models_matches_evaluate(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng, 6, 8)
        reference = set()
        for bits in range(1 << cnf.num_vars):
            model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}
            if cnf.evaluate(model):
                reference.add(tuple(model[v] for v in range(1, 4)))
        assert enumerate_models(cnf, 3) == reference

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_amo_pairwise_exact_semantics(self, k):
        cnf = Cnf(k)
        at_most_one_pairwise(cnf, list(range(1, k + 1)))
        models = enumerate_models(cnf, k)
        assert models == {m for m in models if sum(m) <= 1}
        assert len(models) == k + 1

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_exactly_one(self, k):
        cnf = Cnf(k)
        exactly_one(cnf, list(range(1, k + 1)))
        models = enumerate_models(cnf, k)
        assert len(models) == k
        assert all(sum(m) == 1 for m in models)
