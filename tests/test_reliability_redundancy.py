"""Tests for spare-line repair and TMR (repro.reliability.redundancy)."""

import random

import numpy as np
import pytest

from repro.boolean import TruthTable
from repro.reliability import (
    DefectMap,
    majority_voter_lattice,
    make_tmr,
    perfect_map,
    repair_with_spares,
    tmr_reliability,
)
from repro.reliability.defects import STUCK_OPEN
from repro.synthesis import fold_lattice, synthesize_lattice_dual


def xnor_replica():
    table = TruthTable.from_minterms(2, [0, 3])
    return fold_lattice(synthesize_lattice_dual(table), table), table


class TestSpareRepair:
    def test_perfect_crossbar_identity_assignment(self):
        result = repair_with_spares(perfect_map(6, 6), 4, 4)
        assert result.success
        assert result.row_assignment == (0, 1, 2, 3)
        assert result.rows_replaced == 0

    def test_defective_line_is_skipped(self):
        codes = np.zeros((5, 5), dtype=np.uint8)
        codes[1, 3] = STUCK_OPEN
        defect_map = DefectMap.from_grid(codes)
        result = repair_with_spares(defect_map, 4, 4)
        assert result.success
        assert 1 not in result.row_assignment
        assert 3 not in result.col_assignment
        assert result.rows_replaced >= 1

    def test_insufficient_spares_fails(self):
        codes = np.zeros((4, 4), dtype=np.uint8)
        codes[:, 0] = STUCK_OPEN
        defect_map = DefectMap.from_grid(codes)
        assert not repair_with_spares(defect_map, 4, 4).success

    def test_assigned_lines_are_clean(self):
        rng = random.Random(5)
        from repro.reliability import random_defect_map

        for seed in range(20):
            defect_map = random_defect_map(10, 10, 0.02, random.Random(seed))
            result = repair_with_spares(defect_map, 6, 6)
            if not result.success:
                continue
            grid = defect_map.grid()
            bad_rows = set(np.flatnonzero(grid.any(axis=1)).tolist())
            bad_cols = set(np.flatnonzero(grid.any(axis=0)).tolist())
            assert not (set(result.row_assignment) & bad_rows)
            assert not (set(result.col_assignment) & bad_cols)

    def test_oversized_request_raises(self):
        with pytest.raises(ValueError):
            repair_with_spares(perfect_map(2, 2), 3, 2)


class TestTmr:
    def test_voter_is_majority(self):
        voter = majority_voter_lattice()
        maj = TruthTable.from_callable(3, lambda m: bin(m).count("1") >= 2)
        assert voter.implements(maj)

    def test_fault_free_tmr_matches_function(self):
        replica, table = xnor_replica()
        system = make_tmr(replica)
        for m in range(4):
            assert system.evaluate(m) == table.evaluate(m)

    def test_tmr_area_overhead(self):
        replica, _ = xnor_replica()
        system = make_tmr(replica)
        assert system.area == 3 * replica.area + system.voter.area

    def test_tmr_masks_single_replica_upset(self):
        # Force exactly one replica wrong: with a fault-free voter the
        # output must still be correct — verified statistically by running
        # at tiny upset rates where double upsets are negligible.
        replica, table = xnor_replica()
        rng = random.Random(3)
        points = tmr_reliability(replica, table, [0.002], 800, rng)
        assert points[0].tmr_correct >= points[0].simplex_correct

    def test_reliability_extremes(self):
        replica, table = xnor_replica()
        rng = random.Random(4)
        points = tmr_reliability(replica, table, [0.0], 50, rng)
        assert points[0].simplex_correct == 1.0
        assert points[0].tmr_correct == 1.0

    def test_dimension_mismatch_rejected(self):
        replica, _ = xnor_replica()
        wrong = TruthTable.constant(3, True)
        with pytest.raises(ValueError):
            tmr_reliability(replica, wrong, [0.1], 5, random.Random(0))
