"""Search-trajectory golden for the CDCL solver (:mod:`repro.sat.solver`).

The solver promises that its storage layout does not steer its search:
the same decisions, conflicts, propagations and learnt clauses, and so the
same models.  Exact synthesis inherits that promise — the lattice a
satisfiable shape decodes to, its ``proved`` flag and every cached or
served payload built from it.  This suite pins the first ``solve()`` of
fresh solvers to ``tests/data/sat_trajectory_golden.json``:

* ``shapes``: the ``encode_shape`` CNF, symmetry clauses included, of
  every shape ``synthesize_lattice_optimal`` tries on xnor2, maj3, gt2
  and xor3 at the ``optimal`` experiment's 100 000-conflict budget,
  shapes refuted inside ``add_cnf`` included;
* ``budget``: one 200-variable random 3-CNF at clause ratio 4.26 under a
  5 000-conflict budget.  It runs out of budget (``None``) after passing
  the 1e100 activity rescale, whose stale heap entries then steer the
  remaining decisions;
* ``assumptions``: random CNFs solved under assumptions, with SAT and
  UNSAT outcomes.

Each record holds the ``add_cnf`` return value, the result, the
``statistics()`` counts and a sha256 of the model bits on SAT.

Regenerate (only after an intentional change to the search) with::

    PYTHONPATH=src python tests/test_sat_trajectory.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Iterator

import pytest

from repro.eval.benchsuite import by_name
from repro.sat import Cnf, Solver
from repro.synthesis.lattice_optimal import encode_shape, synthesize_lattice_optimal

GOLDEN = pathlib.Path(__file__).parent / "data" / "sat_trajectory_golden.json"

SHAPE_BENCHES = ("xnor2", "maj3", "gt2", "xor3")
SHAPE_BUDGET = 100_000
BUDGET_CASE = (200, 852, 5_000)          # variables, clauses, conflict budget
ASSUMPTION_SEEDS = range(8)
GROUPS = ("shapes", "budget", "assumptions")

Case = tuple[str, Cnf, list[int], int | None]


def _random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> Cnf:
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def _cases(group: str) -> Iterator[Case]:
    if group == "shapes":
        for name in SHAPE_BENCHES:
            table = by_name(name).function.on
            result = synthesize_lattice_optimal(table, conflict_budget=SHAPE_BUDGET)
            for rows, cols in result.shapes_tried:
                cnf, _ = encode_shape(table, rows, cols)
                yield f"{name}-{rows}x{cols}", cnf, [], SHAPE_BUDGET
    elif group == "budget":
        num_vars, num_clauses, budget = BUDGET_CASE
        cnf = _random_3cnf(random.Random(1), num_vars, num_clauses)
        yield f"random3-{num_vars}v-{num_clauses}c", cnf, [], budget
    else:
        for seed in ASSUMPTION_SEEDS:
            rng = random.Random(seed)
            cnf = _random_3cnf(rng, 80, 330)
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, 81), 4)]
            yield f"assume-{seed}", cnf, assumptions, None


def _record(case: Case) -> dict:
    name, cnf, assumptions, budget = case
    solver = Solver()
    added = solver.add_cnf(cnf)
    result = solver.solve(assumptions=assumptions, conflict_budget=budget)
    stats = solver.statistics()
    digest = None
    if result is True:
        model = solver.model()
        bits = bytes(model[v] for v in range(1, cnf.num_vars + 1))
        digest = hashlib.sha256(bits).hexdigest()
    return {
        "case": name, "add_cnf": added, "result": result,
        "conflicts": stats["conflicts"], "decisions": stats["decisions"],
        "propagations": stats["propagations"], "clauses": stats["clauses"],
        "model_sha256": digest,
    }


@pytest.mark.parametrize("group", GROUPS)
def test_first_solve_matches_golden(group):
    golden = json.loads(GOLDEN.read_text())[group]
    got = [_record(case) for case in _cases(group)]
    assert [r["case"] for r in got] == [r["case"] for r in golden]
    # compare case by case so a mismatch names the first case that moved
    for mine, want in zip(got, golden):
        assert mine == want


def test_golden_covers_both_assumption_outcomes():
    results = {r["result"] for r in json.loads(GOLDEN.read_text())["assumptions"]}
    assert results == {True, False}


def _write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "comment": "first solve() of fresh CDCL solvers: result, "
                   "statistics() counts and model sha256",
        **{group: [_record(case) for case in _cases(group)] for group in GROUPS},
    }
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
