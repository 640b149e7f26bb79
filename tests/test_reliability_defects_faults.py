"""Tests for defect maps and the fault simulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.reliability import (
    BridgeFault,
    CrossbarFabric,
    CrosspointStuckClosed,
    CrosspointStuckOpen,
    DefectMap,
    LineStuckAt,
    all_single_faults,
    clustered_defect_map,
    perfect_map,
    random_defect_map,
)
from repro.reliability.defects import OK, STUCK_CLOSED, STUCK_OPEN


class TestDefectMap:
    def test_perfect_map(self):
        m = perfect_map(4, 4)
        assert m.num_defects == 0 and m.density == 0.0
        assert m.state(0, 0) == OK

    def test_state_accessors(self):
        m = DefectMap.from_grid([[OK, STUCK_OPEN], [STUCK_CLOSED, OK]])
        assert (m.rows, m.cols, m.codes) == (2, 2, bytes([0, 1, 2, 0]))
        assert m.state(0, 1) == STUCK_OPEN and m.state(1, 0) == STUCK_CLOSED
        assert m.state(0, 0) == OK and m.state(1, 1) == OK
        assert m.num_defects == 2 and m.density == 0.5

    def test_grid_is_a_read_only_view(self):
        m = DefectMap.from_grid([[OK, STUCK_OPEN, OK], [OK, OK, STUCK_CLOSED]])
        grid = m.grid()
        assert grid.tolist() == [[0, 1, 0], [0, 0, 2]]
        assert not grid.flags.writeable and not grid.flags.owndata
        assert DefectMap.from_grid(grid) == m

    def test_value_semantics(self):
        a = DefectMap(2, 2, bytes([0, 1, 0, 2]))
        b = DefectMap.from_grid([[0, 1], [0, 2]])
        assert a == b and hash(a) == hash(b)
        assert a != DefectMap(1, 4, bytes([0, 1, 0, 2]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DefectMap(2, 2, bytes(3))
        with pytest.raises(ValueError):
            DefectMap(-2, -2, bytes(4))
        with pytest.raises(ValueError):
            DefectMap(2, 2, bytes([0, 0, 3, 0]))
        with pytest.raises(ValueError):
            DefectMap.from_grid([[OK, 3]])
        with pytest.raises(ValueError):
            DefectMap.from_grid([OK, STUCK_OPEN])
        with pytest.raises(TypeError):
            DefectMap(2, 2, bytearray(4))

    def test_is_clean(self):
        m = DefectMap.from_grid([[OK, OK, OK], [OK, STUCK_OPEN, OK],
                                 [OK, OK, OK]])
        assert m.is_clean([0, 2], [0, 1, 2])
        assert not m.is_clean([0, 1], [1])

    def test_render(self):
        m = DefectMap.from_grid([[STUCK_OPEN, OK], [OK, STUCK_CLOSED]])
        assert m.render() == "o.\n.x"

    @given(st.floats(min_value=0.0, max_value=0.5), st.integers())
    @settings(max_examples=30)
    def test_random_map_density_tracks_parameter(self, density, seed):
        rng = random.Random(seed)
        m = random_defect_map(20, 20, density, rng)
        assert abs(m.density - density) < 0.2
        assert m.num_defects == sum(1 for code in m.codes if code != OK)

    def test_clustered_map_expected_count(self):
        rng = random.Random(3)
        m = clustered_defect_map(30, 30, 0.1, rng)
        assert 0 < m.num_defects <= 0.1 * 900 + 1

    def test_density_bounds_validated(self):
        with pytest.raises(ValueError):
            random_defect_map(4, 4, 1.5, random.Random(0))
        with pytest.raises(ValueError):
            clustered_defect_map(4, 4, 0.1, random.Random(0), 1.5)


class TestFabric:
    def test_wired_and_readout(self):
        fabric = CrossbarFabric(2, 3)
        program = [[True, True, False], [False, False, True]]
        outputs = fabric.evaluate(program, [True, True, False])
        assert outputs == [True, False]

    def test_empty_row_reads_one(self):
        fabric = CrossbarFabric(1, 2)
        assert fabric.evaluate([[False, False]], [False, False]) == [True]

    def test_dimension_validation(self):
        fabric = CrossbarFabric(2, 2)
        with pytest.raises(ValueError):
            fabric.evaluate([[True, True]], [True, True])
        with pytest.raises(ValueError):
            fabric.evaluate([[True, True], [True, True]], [True])

    def test_crosspoint_stuck_open_effect(self):
        fabric = CrossbarFabric(1, 2)
        program = [[True, True]]
        vector = [False, True]
        assert fabric.evaluate(program, vector) == [False]
        assert fabric.evaluate(program, vector,
                               fault=CrosspointStuckOpen(0, 0)) == [True]

    def test_crosspoint_stuck_closed_effect(self):
        fabric = CrossbarFabric(1, 2)
        program = [[False, True]]
        vector = [False, True]
        assert fabric.evaluate(program, vector) == [True]
        assert fabric.evaluate(program, vector,
                               fault=CrosspointStuckClosed(0, 0)) == [False]

    def test_line_faults(self):
        fabric = CrossbarFabric(2, 2)
        program = [[True, False], [False, True]]
        vector = [True, False]
        assert fabric.evaluate(program, vector) == [True, False]
        assert fabric.evaluate(program, vector,
                               fault=LineStuckAt("row", 0, False)) == [False, False]
        assert fabric.evaluate(program, vector,
                               fault=LineStuckAt("col", 1, True)) == [True, True]

    def test_bridge_faults_wired_and(self):
        fabric = CrossbarFabric(2, 2)
        program = [[True, False], [False, True]]
        vector = [True, False]
        # column bridge: both inputs read 1 AND 0 = 0
        assert fabric.evaluate(program, vector,
                               fault=BridgeFault("col", 0)) == [False, False]
        # row bridge: outputs (1, 0) both read 0
        assert fabric.evaluate(program, vector,
                               fault=BridgeFault("row", 0)) == [False, False]

    def test_defect_map_overlay(self):
        fabric = CrossbarFabric(1, 2)
        program = [[True, True]]
        defect = DefectMap.from_grid([[STUCK_OPEN, OK]])
        assert fabric.evaluate(program, [False, True]) == [False]
        assert fabric.evaluate(program, [False, True], defect_map=defect) == [True]

    def test_defect_map_of_another_shape_is_rejected(self):
        fabric = CrossbarFabric(4, 4)
        program = [[True] * 4 for _ in range(4)]
        for shape in ((2, 2), (4, 5), (16, 1)):
            with pytest.raises(ValueError, match="defect map"):
                fabric.evaluate(program, [True] * 4,
                                defect_map=perfect_map(*shape))

    def test_all_single_faults_count(self):
        faults = all_single_faults(3, 4)
        # 2*12 crosspoint + 2*3 row SA + 2*4 col SA + 3 col bridges + 2 row bridges
        assert len(faults) == 24 + 6 + 8 + 3 + 2

    def test_detects_requires_difference(self):
        fabric = CrossbarFabric(1, 2)
        program = [[True, False]]
        # dormant: stuck-open at an unprogrammed crosspoint
        assert not fabric.detects(program, [True, True], CrosspointStuckOpen(0, 1))
