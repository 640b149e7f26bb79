"""Soundness of the exact search's symmetry break (``lattice_optimal``).

``encode_shape`` adds a stabiliser-chain break over Aut(f), the input
permutations and negations that fix f, to every shape's CNF.  These tests
hold it to its references:

* ``input_automorphisms`` equals the brute-force ``apply_transform`` loop;
* with and without the clauses, the encodings agree on SAT/UNSAT shape by
  shape (the differential check);
* the proved area and ``proved`` flag do not move under input permutation
  and negation (the metamorphic check);
* xor4's 3x4 refutation fits a budget the unbroken search overruns.

Area is *not* invariant under transposing the shape and dualising f: the
lattice function uses 4-connected top-bottom paths, its dual 8-connected
left-right ones.  ``TestTransposeIsNotDuality`` pins a counterexample.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from repro.boolean.npn import (
    MAX_EXACT_NPN_VARS,
    NpnTransform,
    apply_transform,
    input_automorphisms,
)
from repro.boolean.truthtable import TruthTable
from repro.eval.benchsuite import by_name, standard_suite
from repro.sat import Solver
from repro.synthesis.lattice_optimal import (
    candidate_shapes,
    encode_shape,
    synthesize_lattice_optimal,
)


def _brute_force_group(table: TruthTable) -> set[tuple[tuple[int, ...], int]]:
    n = table.n
    return {(perm, mask)
            for perm in permutations(range(n)) for mask in range(1 << n)
            if apply_transform(table, NpnTransform(perm, mask, False)) == table}


def _as_set(group) -> set[tuple[tuple[int, ...], int]]:
    assert all(not t.output_negate for t in group)
    return {(t.permutation, t.input_negation_mask) for t in group}


def _symmetrised(rng: random.Random, n: int) -> TruthTable:
    """A random table made invariant under one random input transform."""
    perm = list(range(n))
    rng.shuffle(perm)
    transform = NpnTransform(tuple(perm), rng.getrandbits(n), False)
    table = start = TruthTable.from_bits(n, rng.getrandbits(1 << n))
    image = apply_transform(start, transform)
    while image != start:
        table = table | image
        image = apply_transform(image, transform)
    return table


def _identity(n: int) -> tuple[NpnTransform, ...]:
    return (NpnTransform(tuple(range(n)), 0, False),)


def _decide(table: TruthTable, rows: int, cols: int, group=None,
            budget: int | None = None) -> bool | None:
    cnf, _ = encode_shape(table, rows, cols, group)
    solver = Solver()
    if not solver.add_cnf(cnf):
        return False
    return solver.solve(conflict_budget=budget)


SMALL_SUITE = [b for b in standard_suite() if b.n <= 4]


class TestAutomorphisms:
    @pytest.mark.parametrize("bench", SMALL_SUITE, ids=lambda b: b.name)
    def test_suite_groups_equal_brute_force(self, bench):
        table = bench.function.on
        group = input_automorphisms(table)
        assert group[0] == NpnTransform(tuple(range(table.n)), 0, False)
        assert len(set(group)) == len(group)
        assert _as_set(group) == _brute_force_group(table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_groups_equal_brute_force(self, n):
        rng = random.Random(100 + n)
        for _ in range(6):
            plain = TruthTable.from_bits(n, rng.getrandbits(1 << n))
            for table in (plain, _symmetrised(rng, n)):
                assert (_as_set(input_automorphisms(table))
                        == _brute_force_group(table))

    def test_five_variable_groups_equal_brute_force(self):
        rng = random.Random(5)
        tables = [by_name("sym5_23").function.on, _symmetrised(rng, 5),
                  TruthTable.from_bits(5, rng.getrandbits(32))]
        for table in tables:
            assert (_as_set(input_automorphisms(table))
                    == _brute_force_group(table))

    def test_wide_functions_get_the_trivial_group(self, monkeypatch):
        import repro.boolean.npn as npn

        def no_gather(n):
            raise AssertionError("no permutation tables above the limit")

        monkeypatch.setattr(npn, "_perm_tables", no_gather)
        n = MAX_EXACT_NPN_VARS + 1
        parity = TruthTable.from_bits(
            n, sum(1 << m for m in range(1 << n) if bin(m).count("1") % 2))
        assert input_automorphisms(parity) == _identity(n)


class TestSymmetryBreak:
    def test_differential_small_functions(self):
        """Every suite function with n <= 3 on every shape up to its optimum."""
        verdicts = set()
        for bench in SMALL_SUITE:
            table = bench.function.on
            if table.n > 3:
                continue
            best = synthesize_lattice_optimal(table).area
            for rows, cols in candidate_shapes(best + 1):
                broken = _decide(table, rows, cols)
                assert broken == _decide(table, rows, cols,
                                         _identity(table.n)), (
                    bench.name, rows, cols)
                verdicts.add(broken)
        assert verdicts == {True, False}

    def test_differential_four_variable_functions(self):
        """Each n = 4 suite function on every shape of area <= 6."""
        verdicts = set()
        for bench in SMALL_SUITE:
            table = bench.function.on
            if table.n != 4:
                continue
            for rows, cols in candidate_shapes(7):
                broken = _decide(table, rows, cols)
                assert broken == _decide(table, rows, cols,
                                         _identity(table.n)), (
                    bench.name, rows, cols)
                verdicts.add(broken)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["xor3", "maj3", "mux2", "gt2"])
    def test_proved_area_is_invariant_under_input_transforms(self, name):
        table = by_name(name).function.on
        reference = synthesize_lattice_optimal(table)
        assert reference.proved_optimal
        rng = random.Random(name)
        for _ in range(3):
            perm = list(range(table.n))
            rng.shuffle(perm)
            moved = apply_transform(table, NpnTransform(
                tuple(perm), rng.getrandbits(table.n), False))
            result = synthesize_lattice_optimal(moved)
            assert (result.area, result.proved_optimal) == (
                reference.area, reference.proved_optimal)
            assert result.lattice.implements(moved)

    def test_xor4_3x4_is_refuted_within_budget(self):
        # Without the break this refutation took 22,350 conflicts.
        assert _decide(by_name("xor4").function.on, 3, 4,
                       budget=10_000) is False


class TestTransposeIsNotDuality:
    """area(f, r x c) = area(f^D, c x r) is false for these lattices."""

    def test_a_function_fits_2x2_where_its_dual_does_not(self):
        # [[x0, x1], [x2, x3]] computes x0 x2 + x1 x3.  Every 2x2 lattice
        # computes s00 s10 + s01 s11; the dual (x0 + x2)(x1 + x3) has four
        # two-literal primes, so no 2x2 lattice computes it.
        x = [TruthTable.variable(4, v) for v in range(4)]
        f = (x[0] & x[2]) | (x[1] & x[3])
        assert _decide(f, 2, 2) is True
        assert _decide(f.dual(), 2, 2) is False
        assert _decide(f.dual(), 2, 2, _identity(4)) is False
