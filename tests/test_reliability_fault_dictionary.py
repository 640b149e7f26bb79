"""Tests for the dictionary-based diagnosis over the full fault universe."""

import pytest

from repro.reliability import (
    CrossbarFabric,
    CrosspointStuckClosed,
    CrosspointStuckOpen,
    LineStuckAt,
    build_fault_dictionary,
    diagnosis_configurations,
    signature,
)

class TestFaultDictionary:
    @pytest.fixture(scope="class")
    def dictionary(self):
        return build_fault_dictionary(3, 3)

    def test_every_fault_has_a_signature(self, dictionary):
        # universe: 2*9 crosspoints + 2*3+2*3 lines + 2+2 bridges = 34
        assert dictionary.num_faults == 34

    def test_no_fault_is_silent(self, dictionary):
        all_pass = tuple([False] * dictionary.num_configurations)
        assert dictionary.lookup(all_pass) == ()

    def test_crosspoint_faults_fully_distinguished(self, dictionary):
        # the block-code configurations guarantee crosspoint uniqueness;
        # a crosspoint fault never shares a group with another crosspoint
        for group in dictionary.groups.values():
            crosspoints = [f for f in group
                           if isinstance(f, (CrosspointStuckOpen,
                                             CrosspointStuckClosed))]
            assert len(crosspoints) <= 1

    def test_lookup_roundtrip(self, dictionary):
        fabric = CrossbarFabric(3, 3)
        fault = LineStuckAt("col", 1, True)
        configs = diagnosis_configurations(3, 3)
        from repro.reliability.bist import bist_configurations

        configs += [c for c in bist_configurations(3, 3)
                    if c.name not in {"all-on", "all-off"}]
        observed = signature(fabric, configs, fault)
        assert fault in dictionary.lookup(observed)

    def test_ambiguity_metrics_consistent(self, dictionary):
        assert dictionary.num_signatures <= dictionary.num_faults
        assert dictionary.max_ambiguity >= 1
        assert dictionary.avg_ambiguity >= 1.0
        assert dictionary.avg_ambiguity <= dictionary.max_ambiguity

    def test_diagnosability_is_high(self, dictionary):
        # most faults should be uniquely identified by the combined suite
        unique = sum(1 for g in dictionary.groups.values() if len(g) == 1)
        assert unique / dictionary.num_faults > 0.6

