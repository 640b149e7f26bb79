"""Tests for BIST (100% coverage, constant configurations) and BISD
(logarithmic block-code diagnosis)."""

import math

import pytest

from repro.reliability import (
    BridgeFault,
    CrossbarFabric,
    CrosspointStuckClosed,
    CrosspointStuckOpen,
    DefectMap,
    application_bist_passes,
    bist_configurations,
    coverage,
    diagnose,
    diagnose_fault,
    diagnosis_configurations,
    run_bisd,
    run_bist,
)
from repro.reliability.bisd import Diagnosis, signature
from repro.reliability.defects import OK, STUCK_CLOSED, STUCK_OPEN


class TestBist:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (4, 4), (3, 5), (6, 4)])
    def test_full_coverage(self, rows, cols):
        report = run_bist(rows, cols)
        assert report.coverage == 1.0
        assert not report.escapes

    def test_configuration_count_constant(self):
        small = run_bist(2, 2)
        large = run_bist(8, 8)
        assert small.num_configurations == large.num_configurations == 5

    def test_vector_count_linear_in_cols(self):
        a = run_bist(4, 4)
        b = run_bist(4, 8)
        assert b.num_vectors < 2.5 * a.num_vectors

    def test_beats_naive_configuration_count(self):
        report = run_bist(8, 8)
        assert report.num_configurations < report.naive_configurations

    def test_single_column_bridge_exclusion(self):
        # a row bridge with one input column is behaviourally dormant: the
        # two row bridges are the only escapes, every other fault is caught
        report = run_bist(3, 1)
        assert set(report.escapes) == {BridgeFault("row", 0),
                                       BridgeFault("row", 1)}
        assert report.num_detected == report.num_faults - 2

    def test_coverage_helper(self):
        fabric = CrossbarFabric(3, 3)
        configs = bist_configurations(3, 3)
        assert coverage(fabric, configs) == 1.0
        assert coverage(fabric, []) < 1.0

    def test_application_bist_detects_relevant_defects(self):
        fabric = CrossbarFabric(2, 2)
        program = ((True, False), (False, True))
        clean = DefectMap.from_grid([[OK, OK], [OK, OK]])
        assert application_bist_passes(fabric, program, clean)
        # stuck-open under a programmed junction: caught
        so = DefectMap.from_grid([[STUCK_OPEN, OK], [OK, OK]])
        assert not application_bist_passes(fabric, program, so)
        # stuck-closed under an unprogrammed junction: caught
        sc = DefectMap.from_grid([[OK, STUCK_CLOSED], [OK, OK]])
        assert not application_bist_passes(fabric, program, sc)
        # stuck-closed under a *programmed* junction is harmless
        harmless = DefectMap.from_grid([[STUCK_CLOSED, OK], [OK, OK]])
        assert application_bist_passes(fabric, program, harmless)


class TestBisd:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (4, 4), (4, 6)])
    def test_unique_diagnosis_of_all_crosspoint_faults(self, rows, cols):
        report = run_bisd(rows, cols)
        assert report.accuracy == 1.0

    def test_configuration_count_logarithmic(self):
        for rows, cols in [(4, 4), (8, 8), (16, 16)]:
            report = run_bisd(rows, cols) if rows <= 4 else None
            configs = diagnosis_configurations(rows, cols)
            expected = math.ceil(math.log2(rows * cols)) + 2
            assert len(configs) == expected
            if report is not None:
                assert report.num_configurations == expected

    def test_no_fault_signature_decodes_none(self):
        observed = tuple([False] * (math.ceil(math.log2(9)) + 2))
        assert diagnose(3, 3, observed) == Diagnosis("none", None, None)

    def test_diagnose_fault_end_to_end(self):
        fabric = CrossbarFabric(3, 3)
        assert diagnose_fault(fabric, CrosspointStuckOpen(1, 2)) == Diagnosis(
            "stuck_open", 1, 2)
        assert diagnose_fault(fabric, CrosspointStuckClosed(2, 0)) == Diagnosis(
            "stuck_closed", 2, 0)

    def test_all_ones_codeword_stuck_closed_detected(self):
        # Regression: SC at the all-ones codeword index passes every code
        # configuration; the closed-probe must still flag it.
        fabric = CrossbarFabric(2, 4)  # 8 resources, index 7 = 111
        fault = CrosspointStuckClosed(1, 3)
        assert diagnose_fault(fabric, fault) == Diagnosis("stuck_closed", 1, 3)

    def test_signature_shape_validation(self):
        with pytest.raises(ValueError):
            diagnose(3, 3, (True,))

    def test_both_probes_failing_rejected(self):
        bits = math.ceil(math.log2(9))
        with pytest.raises(ValueError):
            diagnose(3, 3, tuple([True, True] + [False] * bits))

    def test_signatures_are_distinct_across_faults(self):
        fabric = CrossbarFabric(3, 3)
        configs = diagnosis_configurations(3, 3)
        seen = {}
        for r in range(3):
            for c in range(3):
                for fault in (CrosspointStuckOpen(r, c), CrosspointStuckClosed(r, c)):
                    sig = signature(fabric, configs, fault)
                    assert sig not in seen, f"{fault} collides with {seen[sig]}"
                    seen[sig] = fault
