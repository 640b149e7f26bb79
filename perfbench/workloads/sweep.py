"""``sweep``: two grids drained in-process by one worker through ``repro.grid``.

A faultsim grid (N x density x defect model) and a varsweep grid (bench x
sigma on a 24 x 24 crossbar) are planned into a fresh file-backed
``JsonStore`` and drained by ``work_loop``, with the campaign seed set to
the workload seed.  Each row must pass ``families.validate_payload``, every
pass must reproduce the first pass's rows, and one seeded row must match a
serial ``compute_point`` recomputation.
"""

from __future__ import annotations

import os
import random
import tempfile

from ..calibrate import Clock
from ..tracer import Recorder
from . import Outcome, Workload, clear_program_caches

FAULTSIM_TRIALS = 1000
VARSWEEP_TRIALS = 500


def grid_configs(seed: int) -> list[dict]:
    return [
        {"name": "perfbench-faultsim", "family": "faultsim",
         "grid": {"n": [16, 32], "density": [0.02, 0.05, 0.1, 0.2],
                  "model": ["bernoulli", "clustered"]},
         "fixed": {"seed": seed, "trials": FAULTSIM_TRIALS}},
        {"name": "perfbench-varsweep", "family": "varsweep",
         "grid": {"bench": ["xnor2", "maj3", "fa_sum", "mux4"],
                  "sigma": [0.1, 0.3, 0.6, 0.9]},
         "fixed": {"seed": seed, "trials": VARSWEEP_TRIALS,
                   "crossbar_rows": 24, "crossbar_cols": 24}},
    ]


class Sweep(Workload):
    name = "sweep"

    def setup(self, seed: int, workdir: str) -> None:
        from repro.engine.store import JsonStore
        from repro.grid import (config_from_dict, export_rows, families, plan,
                                work_loop)

        self._store_class = JsonStore
        self._plan, self._work_loop = plan, work_loop
        self._export, self._families = export_rows, families
        self.configs = [config_from_dict(c) for c in grid_configs(seed)]
        self.trials_per_pass = sum(
            len(config.expand()) * trials for config, trials in
            zip(self.configs, (FAULTSIM_TRIALS, VARSWEEP_TRIALS)))
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.reference: list[dict] | None = None
        # The store every pass writes into is made the same way.
        self._new_store().close()

    def _new_store(self):
        path = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        return self._store_class(os.path.join(path, "grid.sqlite"))

    def run_pass(self, outcome: Outcome, recorder: Recorder | None,
                 part: int) -> Clock:
        clear_program_caches()
        store = self._new_store()
        try:
            clock = Clock()
            grid_ids = []
            for config in self.configs:
                with clock:
                    if recorder is None:
                        grid_id, _, _ = self._plan(config, store)
                    else:
                        with recorder.span("grid.plan"):
                            grid_id, _, _ = self._plan(config, store)
                    self._work_loop(config, grid_id, store, "w0")
                grid_ids.append(grid_id)
            rows = [(config, row) for config, grid_id in
                    zip(self.configs, grid_ids)
                    for row in self._export(store, grid_id)]
        finally:
            store.close()
        self._check(rows, outcome)
        return clock

    def _check(self, rows: list, outcome: Outcome) -> None:
        outcome.attempted += len(rows)
        outcome.failed += sum(1 for _, row in rows if row["status"] != "done")
        answers = [{"params": row["params"], "result": row["result"]}
                   for _, row in rows]
        if self.reference is not None:
            if answers != self.reference:
                outcome.wrong.append("rows differ from the first pass")
            return
        self.reference = answers
        for config, row in rows:
            if row["status"] == "done" and not self._families.validate_payload(
                    config.family, row["params"], row["result"]):
                outcome.wrong.append(f"{row['point_key']}: invalid payload")
        config, row = self.rng.choice(rows)
        direct = self._families.compute(config.family, row["params"], 1)
        if direct != row["result"]:
            outcome.wrong.append(f"{row['point_key']}: differs from a serial "
                                 "recomputation")

    def finish(self, outcome: Outcome) -> None:
        outcome.figures["trials_per_s"] = (
            self.trials_per_pass / outcome.wall_s, "trials/s")
