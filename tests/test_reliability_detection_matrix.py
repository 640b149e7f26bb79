"""The batched fault simulator against the scalar fabric reference.

``detection_matrix`` answers every (fault, configuration) question of a
test suite at once; ``CrossbarFabric.evaluate``/``detects`` simulate one
vector under one fault and are the reference it must equal entry by
entry, for every chunking of the fault axis.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.reliability import (
    BridgeFault,
    CrossbarFabric,
    CrosspointStuckClosed,
    CrosspointStuckOpen,
    LineStuckAt,
    all_single_faults,
    bist_configurations,
    build_fault_dictionary,
    detection_matrix,
    diagnosis_configurations,
    run_bisd,
    run_bist,
    undetected_faults,
)
from repro.reliability import faults as faults_module
from repro.reliability.faults import TestConfiguration as Configuration

#: Faults that name a line or crosspoint off a 4x4 fabric.
OFF_FABRIC = [
    CrosspointStuckOpen(9, 9),
    CrosspointStuckOpen(-1, 0),
    CrosspointStuckClosed(0, 4),
    LineStuckAt("diag", 0, True),
    LineStuckAt("col", 7, True),
    LineStuckAt("row", 9, False),
    BridgeFault("col", 3),
    BridgeFault("row", -1),
    LineStuckAt("col", -1, False),
]


@pytest.mark.parametrize("fault", OFF_FABRIC, ids=repr)
def test_off_fabric_fault_is_rejected(fault):
    fabric = CrossbarFabric(4, 4)
    with pytest.raises(ValueError, match="not a fault of the 4x4 fabric"):
        fabric.evaluate([[True] * 4] * 4, [True] * 4, fault=fault)
    with pytest.raises(ValueError, match="not a fault of the 4x4 fabric"):
        undetected_faults(fabric, bist_configurations(4, 4), [fault])


def _scalar_matrix(fabric, configurations, universe):
    return np.array([
        [any(fabric.detects(config.program, vector, fault)
             for vector in config.vectors)
         for config in configurations]
        for fault in universe], dtype=bool).reshape(
            len(universe), len(configurations))


@st.composite
def suites(draw, shared_vector_count=False):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    bits = st.booleans()
    count = draw(st.integers(1, 4)) if shared_vector_count else None
    configurations = []
    for k in range(draw(st.integers(1, 3))):
        program = draw(st.lists(st.lists(bits, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
        vectors = draw(st.lists(st.lists(bits, min_size=cols, max_size=cols),
                                min_size=count if count else 0,
                                max_size=count if count else 4))
        configurations.append(Configuration(
            f"config-{k}", tuple(map(tuple, program)),
            tuple(map(tuple, vectors))))
    return CrossbarFabric(rows, cols), configurations


@settings(max_examples=60, deadline=None)
@given(suites())
def test_matrix_equals_scalar_reference(suite):
    fabric, configurations = suite
    universe = all_single_faults(fabric.rows, fabric.cols)
    got = detection_matrix(fabric, configurations, universe)
    assert got.shape == (len(universe), len(configurations))
    assert np.array_equal(
        got, _scalar_matrix(fabric, configurations, universe))


@pytest.mark.parametrize("chunking", ["one-fault-chunks", "remainder-chunk"])
@settings(max_examples=40, deadline=None)
@given(suite=suites(shared_vector_count=True))
def test_matrix_equals_scalar_reference_in_small_chunks(chunking, suite):
    fabric, configurations = suite
    universe = all_single_faults(fabric.rows, fabric.cols)
    per_fault = (len(configurations[0].vectors) * fabric.rows * fabric.cols)
    # one fault per chunk, or chunks of len - 1 faults and then one fault
    budget = 1 if chunking == "one-fault-chunks" else max(
        1, len(universe) - 1) * per_fault
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(faults_module, "CHUNK_ELEMENTS", budget)
        got = detection_matrix(fabric, configurations, universe)
    assert np.array_equal(
        got, _scalar_matrix(fabric, configurations, universe))


def test_matrix_edge_cases():
    fabric = CrossbarFabric(2, 3)
    universe = all_single_faults(2, 3)
    assert detection_matrix(fabric, [], universe).shape == (len(universe), 0)
    silent = Configuration("no-vectors", ((True,) * 3,) * 2, ())
    assert not detection_matrix(fabric, [silent], universe).any()
    assert detection_matrix(
        fabric, bist_configurations(2, 3), []).shape == (0, 5)
    with pytest.raises(ValueError, match="configuration must be 2x3"):
        detection_matrix(fabric, bist_configurations(3, 3), universe)
    short = Configuration("short", ((True,) * 3,) * 2, ((True,),))
    with pytest.raises(ValueError, match="vector must have 3 entries"):
        detection_matrix(fabric, [short], universe)


def _dictionary_configurations(rows, cols):
    return diagnosis_configurations(rows, cols) + [
        c for c in bist_configurations(rows, cols)
        if c.name not in {"all-on", "all-off"}]


@pytest.mark.parametrize("rows,cols", [(3, 3), (4, 4), (4, 6)])
def test_fault_dictionary_equals_scalar_signatures(rows, cols):
    fabric = CrossbarFabric(rows, cols)
    configurations = _dictionary_configurations(rows, cols)
    expected = {}
    for fault in all_single_faults(rows, cols):
        observed = tuple(
            any(fabric.detects(config.program, vector, fault)
                for vector in config.vectors)
            for config in configurations)
        expected.setdefault(observed, []).append(fault)
    groups = build_fault_dictionary(rows, cols).groups
    assert list(groups) == list(expected)
    assert {key: list(group) for key, group in groups.items()} == expected
    assert all(type(bit) is bool for key in groups for bit in key)


def test_suite_questions_do_not_use_the_scalar_simulator(monkeypatch):
    def scalar(*args, **kwargs):
        raise AssertionError("suite questions must use detection_matrix")

    monkeypatch.setattr(CrossbarFabric, "evaluate", scalar)
    assert run_bist(4, 4).coverage == 1.0
    assert run_bisd(4, 4).accuracy == 1.0
    assert build_fault_dictionary(3, 3).num_faults == 34


def test_large_fabric_cost_is_bounded():
    tracemalloc.start()
    try:
        report = run_bist(32, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.num_faults == 2238
    assert report.coverage == 1.0
    assert peak < 32 * 2**20
