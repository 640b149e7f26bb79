"""``paper``: every registered experiment except ``optimal``, in full mode.

A pass calls ``get_experiment(id).run(False)`` for each id, which is what
``nanoxbar run <id>`` does, with the program's caches cleared before each
experiment as in a fresh process.  The experiments seed themselves, so the
workload seed does not change this workload; each experiment's rows must
match a pinned digest.  Before measuring, every experiment runs once in its
smaller ``fast`` mode.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any

from ..calibrate import Clock
from ..catalog import PAPER_EXPERIMENTS
from ..tracer import Recorder
from . import Outcome, Workload, clear_program_caches

#: sha256 of each experiment's rows, as :func:`rows_digest` computes it.
ROW_DIGESTS = {
    "arch":
        "45ca36d47229e2cf3e88800b2e7d3e967ad164f1c156e41015f7ca0cb5aed6e2",
    "bisd":
        "f2e0024ac7c1493c3296ff9899087f57b44888ba5da0e1b39afbc2f7278fc1c7",
    "bism":
        "9a7460ce027c71665b8191fdd997b96a6daee821e0aa19df06e47c870c31926e",
    "bist":
        "061c386bcfe6ca5ca0912aa03436d93cb9f89422bd7cdc71cd40595424797407",
    "dreducible":
        "0405098e9a50bd36ba279ba3e7e8038fc1b4e8d7854e667b020448f89272962e",
    "expressiveness":
        "1c8be8df45dc00b308607adeab25a4afcc2cd9901e57ab4866d385b04d6fbc38",
    "fig1":
        "cc2c62fddc20b20ee345a673d57aac5594a1e5ba590d6a127abc88d52cf7d6f1",
    "fig3":
        "3dd348a9ccc47c83762e587e6ec650ed3c17f424a5806edc140f473752a2bc92",
    "fig4":
        "c682f3013d7d9b7ca3a2be97b19aa7852d63696b7a8733e5635ab608fb7c82a5",
    "fig5":
        "26b66d7ca9d1d53a855dcc745ab9b44fd2d759970fd5753c500253fb52b8d339",
    "fig6":
        "e00174246d5ba62358e82fe75140e80bf8f52e3afab0779be462c886071057f5",
    "latticemap":
        "4b76408db82fc8aa5ea0172784d17a6581ca576dc23b8003788cb027081c6009",
    "metrics":
        "f3c235c4e8c98f8742439d1c508166f78c5e4322b45c61ad363b86bd5fd03386",
    "pcircuit":
        "1c7afc327153139295b9355e7dc53309f70605c73e44ee5e999536954dc278c3",
    "recovery":
        "aa7d51b854f3f9cba1f7009bb27660e6e5b47ce8bf7c3bddf469826e9d1249f7",
    "tmr":
        "dab2f1f0a6e2b12b09b5e8bac95cd7c92fd1ee1f6f0933238aed409cd17ef08d",
    "variation":
        "570eeb9d4597a75fe69897e410ed4cd4d6ade8da962ad478fbe6e255223a1059",
    "yield":
        "46176c0fb35453c2305089f088f18368fd56ca0956a8e920efaed8432f814ee1",
}


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def rows_digest(rows: list[dict]) -> str:
    """Digest of an experiment's rows; floats rounded to 10 significant
    digits so the last-place wobble of a numpy upgrade does not count."""
    text = json.dumps(_canonical(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Paper(Workload):
    name = "paper"
    #: One part per experiment.
    parts = len(PAPER_EXPERIMENTS)

    def setup(self, seed: int, workdir: str) -> None:
        from repro.eval.experiments import get_experiment

        self.experiments = [get_experiment(experiment_id)
                            for experiment_id in PAPER_EXPERIMENTS]

    def warm_up(self) -> None:
        # The experiments' smaller mode loads every module and first-call
        # path, so the first measured pass is like the others.
        for experiment in self.experiments:
            experiment.run(True)

    def run_pass(self, outcome: Outcome, recorder: Recorder | None,
                 part: int) -> Clock:
        experiment = self.experiments[part]
        experiment_id = experiment.experiment_id
        outcome.attempted += 1
        clear_program_caches()
        clock = Clock()
        try:
            if recorder is None:
                with clock:
                    result = experiment.run(False)
            else:
                with clock, recorder.span(f"eval.{experiment_id}"):
                    result = experiment.run(False)
        except Exception as error:  # counted in error_rate; run continues
            outcome.failed += 1
            print(f"paper: {experiment_id} raised {error!r}", file=sys.stderr)
            return clock
        digest = rows_digest(result.rows)
        if digest != ROW_DIGESTS.get(experiment_id):
            outcome.wrong.append(f"{experiment_id}: rows digest {digest} "
                                 "!= pinned")
        return clock
