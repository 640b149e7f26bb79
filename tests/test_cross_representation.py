"""Cross-representation property tests.

The substrate offers four representations of the same function (truth
table, cover, expression, synthesized arrays); these properties pin
their mutual consistency — the invariants everything else in the package
silently relies on.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.boolean import (
    BooleanFunction,
    TruthTable,
    exact_minimize,
    heuristic_minimize,
    isop,
    minimize,
    npn_canonical,
    verify_cover,
)
from repro.synthesis import (
    fold_lattice,
    synthesize_diode,
    synthesize_fet,
    synthesize_lattice_dual,
)


def tables(n=4):
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


def nonconstant(n=4):
    return st.integers(min_value=1, max_value=(1 << (1 << n)) - 2).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


class TestRepresentationsAgree:
    @given(tables())
    @settings(max_examples=30, deadline=None)
    def test_minimized_expression_reparses(self, t):
        cover = minimize(t)
        f = BooleanFunction.from_truth_table(t)
        if cover.num_products == 0:
            return
        g = BooleanFunction.from_expression(
            cover.to_expression(f.names), names=f.names)
        assert g.on == t

    @given(nonconstant())
    @settings(max_examples=20, deadline=None)
    def test_all_arrays_agree_with_each_other(self, t):
        diode = synthesize_diode(t)
        fet = synthesize_fet(t)
        lattice = synthesize_lattice_dual(t)
        for m in range(1 << t.n):
            expected = t.evaluate(m)
            assert diode.evaluate(m) == expected
            assert fet.evaluate(m) == expected
            assert lattice.evaluate(m) == expected

    @given(tables(3))
    @settings(max_examples=30, deadline=None)
    def test_minimizers_agree_semantically(self, t):
        covers = [exact_minimize(t), isop(t), heuristic_minimize(t)]
        for cover in covers:
            assert verify_cover(cover, t)
        assert covers[0].to_truth_table() == covers[1].to_truth_table()

    @given(nonconstant(3))
    @settings(max_examples=20, deadline=None)
    def test_npn_transform_preserves_lattice_area_class(self, t):
        # synthesis cost is NPN-input-invariant: the canonical form's folded
        # lattice area never exceeds the original's by more than the output
        # complementation effect (dual swap) allows in either direction
        canonical, _ = npn_canonical(t)
        area_t = fold_lattice(synthesize_lattice_dual(t), t).area
        area_c = fold_lattice(synthesize_lattice_dual(canonical), canonical).area
        # complementing the output swaps f and f^D (transposed lattice), so
        # the two areas agree up to transposition of the pre-fold shape
        assert 0 < area_c <= 4 * area_t
        assert 0 < area_t <= 4 * area_c


class TestDeterminism:
    """Same inputs, same outputs — the experiment tables must be stable."""

    def test_synthesis_is_deterministic(self):
        t = TruthTable.from_minterms(4, [1, 3, 7, 9, 14])
        first = synthesize_lattice_dual(t)
        second = synthesize_lattice_dual(t)
        assert first == second

    def test_experiments_are_seeded(self, fast_experiment):
        from repro.eval import get_experiment

        a = fast_experiment("bism")
        b = get_experiment("bism").run(True)
        assert a.rows == b.rows

    def test_mapping_sweeps_reproduce_with_same_seed(self):
        from repro.reliability import bism_density_sweep, as_program

        program = as_program([[True, False], [False, True]])
        one = bism_density_sweep(program, 6, 6, [0.1], 5, random.Random(3))
        two = bism_density_sweep(program, 6, 6, [0.1], 5, random.Random(3))
        assert one == two
