"""Tests for defect-aware lattice mapping (sites onto defective fabrics)."""

import random

import pytest

from repro.boolean import BooleanFunction, Literal
from repro.crossbar import Lattice
from repro.reliability import (
    DefectMap,
    map_lattice_random,
    mapping_success_sweep,
    perfect_map,
    placement_valid,
    random_defect_map,
    site_compatible,
    verify_mapped_lattice,
)
from repro.reliability.defects import OK, STUCK_CLOSED, STUCK_OPEN
from repro.synthesis import fold_lattice, synthesize_lattice_dual


def xnor_lattice():
    f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
    return fold_lattice(synthesize_lattice_dual(f.on), f.on), f.on


class TestSiteCompatibility:
    def test_ok_hosts_anything(self):
        for site in (True, False, Literal(0, True)):
            assert site_compatible(OK, site)

    def test_stuck_closed_is_the_constant_one(self):
        assert site_compatible(STUCK_CLOSED, True)
        assert not site_compatible(STUCK_CLOSED, False)
        assert not site_compatible(STUCK_CLOSED, Literal(0))

    def test_stuck_open_is_the_constant_zero(self):
        assert site_compatible(STUCK_OPEN, False)
        assert not site_compatible(STUCK_OPEN, True)
        assert not site_compatible(STUCK_OPEN, Literal(1))


class TestPlacement:
    def test_perfect_fabric_always_maps(self):
        lattice, table = xnor_lattice()
        result = map_lattice_random(lattice, perfect_map(4, 4),
                                    random.Random(0))
        assert result.success and result.trials == 1
        assert verify_mapped_lattice(lattice, table, perfect_map(4, 4), result)

    def test_target_larger_than_fabric_raises(self):
        lattice, _ = xnor_lattice()
        with pytest.raises(ValueError):
            map_lattice_random(lattice, perfect_map(1, 1), random.Random(0))

    def test_stuck_closed_under_literal_rejected(self):
        lattice, _ = xnor_lattice()  # 2x2, all literal sites
        fabric = DefectMap(2, 2, bytes([STUCK_CLOSED] * 4))
        assert not placement_valid(lattice, fabric, (0, 1), (0, 1))

    def test_stuck_closed_on_unused_column_rejected(self):
        lattice, _ = xnor_lattice()
        # fabric 2x3; middle column unused but permanently conducting at a
        # used row -> could bridge the two used columns
        fabric = DefectMap.from_grid([[OK, STUCK_CLOSED, OK], [OK, OK, OK]])
        assert not placement_valid(lattice, fabric, (0, 1), (0, 2))
        # placing the target over the defect-free columns adjacent is fine
        clean = perfect_map(2, 3)
        assert placement_valid(lattice, clean, (0, 1), (0, 2))

    def test_exploiting_stuck_closed_as_padding_one(self):
        # Target with a constant-1 padding site (an AND separator) can be
        # placed right on top of a stuck-closed fabric site (the only
        # placement of a 3x1 target on a 3x1 fabric).
        target = Lattice(2, [[Literal(0)], [True], [Literal(1)]])
        fabric = DefectMap.from_grid([[OK], [STUCK_CLOSED], [OK]])
        result = map_lattice_random(target, fabric, random.Random(0))
        assert result.success
        assert result.exploited_defects == 1
        table = target.to_truth_table()
        assert verify_mapped_lattice(target, table, fabric, result)

    def test_exploiting_stuck_open_as_padding_zero(self):
        # OR-separator columns (constant 0) land on stuck-open sites.
        target = Lattice(2, [[Literal(0), False, Literal(1)]])
        fabric = DefectMap.from_grid([[OK, STUCK_OPEN, OK]])
        result = map_lattice_random(target, fabric, random.Random(0))
        assert result.success and result.exploited_defects == 1
        assert verify_mapped_lattice(target, target.to_truth_table(),
                                     fabric, result)

    def test_random_mapped_lattices_verify(self):
        lattice, table = xnor_lattice()
        successes = 0
        for seed in range(30):
            rng = random.Random(seed)
            fabric = random_defect_map(6, 6, 0.08, rng)
            result = map_lattice_random(lattice, fabric, rng, max_trials=100)
            if result.success:
                successes += 1
                assert verify_mapped_lattice(lattice, table, fabric, result)
        assert successes > 15  # most draws at 8% density are mappable


class TestSweep:
    def test_success_degrades_with_density(self):
        lattice, _ = xnor_lattice()
        rng = random.Random(5)
        rows = mapping_success_sweep(lattice, 2, [0.0, 0.1, 0.4],
                                     trials=15, rng=rng)
        assert rows[0]["success_rate"] == 1.0
        assert rows[0]["success_rate"] >= rows[-1]["success_rate"]
