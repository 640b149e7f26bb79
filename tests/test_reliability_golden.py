"""Campaign and fault-tolerance answers against a committed golden file.

A persisted faultsim or varsweep point stays valid only while the same
parameters sample the same ensemble (``_STORE_VERSION`` in each campaign
family promises it), and a served synthesis job's fault-tolerance report
must not move while its request does not.  This suite pins those answers
to ``tests/data/reliability_golden.json``: sha256 digests of the JSON
payloads of

* faultsim points: both defect models, each with greedy and exact
  extraction, at small N;
* varsweep points: two benchmarks at two sigmas each;
* the fault-tolerance reports of three suite functions mapped at defect
  density 0.1 with TMR.

Every answer is computed through :func:`repro.grid.families.compute`, the
path the server, the grid and the CLI share.  A change that moves one of
them on purpose bumps ``_STORE_VERSION`` in the campaign family it moves
and regenerates the file with::

    PYTHONPATH=src python tests/test_reliability_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.grid.families import compute

GOLDEN = pathlib.Path(__file__).parent / "data" / "reliability_golden.json"

FAULTSIM_CASES = [
    {"model": model, "strategy": strategy, "n": 8, "density": 0.1,
     "trials": 300, "batch_size": 128, "seed": 3}
    for model in ("bernoulli", "clustered")
    for strategy in ("greedy", "exact")
]

VARSWEEP_CASES = [
    {"bench": bench, "sigma": sigma, "trials": 60, "seed": 5}
    for bench in ("xnor2", "maj3")
    for sigma in (0.1, 0.3)
]

FAULT_TOLERANCE_CASES = [
    {"bench": bench, "strategies": ["dual", "dreducible", "pcircuit"],
     "fault_tolerance": {"defect_density": 0.1, "redundancy": "tmr"}}
    for bench in ("xnor2", "fa_carry", "mux4")
]


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _case_id(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _answer(family: str, params: dict) -> str:
    payload = compute(family, params)
    if family == "synthesis":
        payload = payload["fault_tolerance"]
    return _digest(payload)


CASES = ([("faultsim", params) for params in FAULTSIM_CASES]
         + [("varsweep", params) for params in VARSWEEP_CASES]
         + [("synthesis", params) for params in FAULT_TOLERANCE_CASES])


def test_golden_file_is_in_sync_with_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["cases"]) == sorted(
        f"{family} {_case_id(params)}" for family, params in CASES)


@pytest.mark.parametrize(
    "family,params", CASES,
    ids=[f"{family}-{index}" for index, (family, _) in enumerate(CASES)])
def test_answer_matches_golden(family, params):
    golden = json.loads(GOLDEN.read_text())
    assert _answer(family, params) == golden["cases"][
        f"{family} {_case_id(params)}"]


def _write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "comment": "sha256 of the JSON point payloads (faultsim, varsweep) "
                   "and fault-tolerance reports (synthesis) of each case",
        "cases": {f"{family} {_case_id(params)}": _answer(family, params)
                  for family, params in CASES},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
