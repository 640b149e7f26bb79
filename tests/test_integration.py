"""Integration tests: full pipelines across packages.

These exercise the paths a user of the library actually walks: synthesize,
program a physical fabric, fabricate defects, self-map, and verify the
mapped array still computes the function — plus smoke tests over the
experiment registry.
"""

import random
from typing import ClassVar

import pytest

from repro.boolean import BooleanFunction, TruthTable
from repro.crossbar import Lattice
from repro.eval import by_name
from repro.reliability import (
    CrossbarFabric,
    STRATEGIES,
    as_program,
    make_tmr,
    mapped_program,
    random_defect_map,
    repair_with_spares,
)
from repro.synthesis import (
    best_pcircuit,
    fold_lattice,
    synthesize_diode,
    synthesize_lattice_dual,
    synthesize_lattice_optimal,
)


def diode_program(function: BooleanFunction):
    """Program matrix of the diode plane (literal columns only)."""
    diode = synthesize_diode(function.on)
    program = as_program([
        [diode.connections[r][c] for c in range(len(diode.literals))]
        for r in range(diode.num_rows)
    ])
    return diode, program


class TestSynthesisToMappedOperation:
    """function -> diode program -> defective chip -> BISM -> operation."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_mapped_array_computes_the_function(self, strategy):
        f = BooleanFunction.from_expression("x1 x2 + x1 x3 + x2 x3",
                                            label="fa_carry")
        diode, program = diode_program(f)
        rng = random.Random(7)
        defect_map = random_defect_map(12, 12, 0.06, rng)
        result = STRATEGIES[strategy](program, defect_map, rng,
                                      max_retries=200)
        if not result.success:
            pytest.skip("unlucky defect draw (validity is tested elsewhere)")
        # Operate the mapped array through the behavioural fault simulator:
        # for every input assignment, the wired-AND rows of the mapped
        # program (under the real defect map) must reproduce the product
        # values, hence OR to the function value.
        fabric = CrossbarFabric(12, 12)
        full = mapped_program(program, result.mapping, 12, 12)
        for assignment in range(1 << f.n):
            vector = [True] * 12
            for j, lit in enumerate(diode.literals):
                vector[result.mapping.col_map[j]] = lit.evaluate(assignment)
            outputs = fabric.evaluate(full, vector, defect_map=defect_map)
            value = any(outputs[r] for r in result.mapping.row_map)
            assert value == f.evaluate(assignment), (strategy, assignment)

    def test_spare_repair_then_operation(self):
        f = BooleanFunction.from_expression("x1 x2' + x3")
        diode, program = diode_program(f)
        rng = random.Random(11)
        defect_map = random_defect_map(10, 10, 0.01, rng)
        repair = repair_with_spares(defect_map, len(program), len(program[0]))
        if not repair.success:
            pytest.skip("unlucky defect draw")
        fabric = CrossbarFabric(10, 10)
        from repro.reliability import Mapping

        mapping = Mapping(repair.row_assignment, repair.col_assignment)
        full = mapped_program(program, mapping, 10, 10)
        for assignment in range(1 << f.n):
            vector = [True] * 10
            for j, lit in enumerate(diode.literals):
                vector[mapping.col_map[j]] = lit.evaluate(assignment)
            outputs = fabric.evaluate(full, vector, defect_map=defect_map)
            assert any(outputs[r] for r in mapping.row_map) == f.evaluate(assignment)


class TestLatticePipelines:
    def test_optimal_feeds_tmr(self):
        f = by_name("mux2").function
        optimal = synthesize_lattice_optimal(f.on)
        system = make_tmr(optimal.lattice)
        for m in range(1 << f.n):
            assert system.evaluate(m) == f.evaluate(m)

    def test_pcircuit_result_folds_and_still_implements(self):
        f = by_name("thr4_2").function
        pc = best_pcircuit(f.on)
        folded = fold_lattice(pc.lattice, f.on)
        assert folded.implements(f.on)
        assert folded.area <= pc.lattice.area

    def test_every_suite_lattice_verifies(self):
        from repro.eval import suite

        for bench in suite(exclude=["large"], max_vars=5):
            lattice = synthesize_lattice_dual(bench.function.on)
            assert lattice.implements(bench.function.on), bench.name

    def test_lattice_render_roundtrip_through_from_strings(self):
        f = by_name("xnor2").function
        lattice = synthesize_lattice_dual(f.on)
        tokens = [
            " ".join(
                "1" if s is True else "0" if s is False else s.name()
                for s in row
            )
            for row in lattice.sites
        ]
        rebuilt = Lattice.from_strings(lattice.n, tokens)
        assert rebuilt == lattice


class TestExperimentRegistrySmoke:
    CHEAP: ClassVar[list[str]] = ["fig1", "fig3", "fig4", "optimal", "bist", "bisd", "bism",
             "fig6", "recovery", "variation", "yield", "arch", "tmr"]

    @pytest.mark.parametrize("experiment_id", CHEAP)
    def test_fast_run_produces_rows(self, experiment_id, fast_experiment):
        result = fast_experiment(experiment_id)
        assert result.rows
        assert result.columns
        rendered = result.render()
        assert experiment_id in rendered.split("]")[0]

    def test_rows_expose_declared_columns(self, fast_experiment):
        for experiment_id in ("fig3", "bist", "bisd"):
            result = fast_experiment(experiment_id)
            for row in result.rows:
                for column in result.columns:
                    assert column in row


class TestEdgeCases:
    def test_zero_variable_functions(self):
        one = TruthTable.constant(0, True)
        zero = TruthTable.constant(0, False)
        assert synthesize_lattice_dual(one).to_truth_table() == one
        assert synthesize_lattice_dual(zero).to_truth_table() == zero

    def test_single_variable_lattices(self):
        t = TruthTable.variable(1, 0)
        lattice = synthesize_lattice_dual(t)
        assert lattice.area == 1
        assert lattice.implements(t)

    def test_optimal_on_constant(self):
        result = synthesize_lattice_optimal(TruthTable.constant(3, True))
        assert result.area == 1 and result.proved_optimal
