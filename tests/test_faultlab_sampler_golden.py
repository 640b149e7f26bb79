"""The batched defect samplers against a committed golden file.

A persisted faultsim point stays valid only while the same generator
draws give the same defect maps (``_STORE_VERSION`` in
:mod:`repro.faultlab.campaign` promises it).  This suite pins both batched
samplers, :func:`~repro.faultlab.maps.bernoulli_defect_batch` and
:func:`~repro.faultlab.maps.clustered_defect_batch`, to
``tests/data/faultlab_sampler_golden.json``: per case, the sha256 digests
of the sampled ``states`` bytes and of the generator's final
``bit_generator.state``, so a sampler that draws more or fewer values
fails even where its maps agree.

The cases are trials {0, 1, 7, 256} x shapes {1x1, 1x9, 9x1, 8x8, 32x32,
5x40} x densities {0, 0.02, 0.2, 1.0} x stuck-open shares {0, 0.8, 1} for
each sampler, plus a 256-trial 128x128 batch at density 0.2, whose padded
clustered attempt tensor (about 10M elements) takes three
``CHUNK_ELEMENTS`` draws per stream.  A change that moves sampling on
purpose bumps ``_STORE_VERSION`` and regenerates the file with::

    PYTHONPATH=src python tests/test_faultlab_sampler_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from itertools import product

import numpy as np
import pytest

from repro.faultlab import bernoulli_defect_batch, clustered_defect_batch

GOLDEN = pathlib.Path(__file__).parent / "data" / "faultlab_sampler_golden.json"

SAMPLERS = {"bernoulli": bernoulli_defect_batch,
            "clustered": clustered_defect_batch}
SHAPES = [(1, 1), (1, 9), (9, 1), (8, 8), (32, 32), (5, 40)]

CASES = [
    (sampler, trials, rows, cols, density, share)
    for sampler in SAMPLERS
    for (rows, cols), trials, density, share in product(
        SHAPES, (0, 1, 7, 256), (0.0, 0.02, 0.2, 1.0), (0.0, 0.8, 1.0))
] + [(sampler, 256, 128, 128, 0.2, 0.8) for sampler in SAMPLERS]


def _case_id(case: tuple) -> str:
    sampler, trials, rows, cols, density, share = case
    return f"{sampler} t{trials} {rows}x{cols} d{density!r} sof{share!r}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _answer(case: tuple) -> dict[str, str]:
    """The digests of one case's batch and of its generator's end state;
    each case seeds its generator from its own id."""
    sampler, trials, rows, cols, density, share = case
    seed = int(_sha(_case_id(case).encode())[:16], 16)
    gen = np.random.default_rng(seed)
    states = SAMPLERS[sampler](trials, rows, cols, density, gen,
                               stuck_open_fraction=share).states
    assert states.shape == (trials, rows, cols)
    end = json.dumps(gen.bit_generator.state, sort_keys=True)
    return {"states": _sha(states.tobytes()), "generator": _sha(end.encode())}


def _groups() -> dict[str, list[tuple]]:
    """The cases by sampler and shape, one test each."""
    groups: dict[str, list[tuple]] = {}
    for case in CASES:
        sampler, _, rows, cols, *_ = case
        groups.setdefault(f"{sampler}-{rows}x{cols}", []).append(case)
    return groups


GROUPS = _groups()


def test_golden_file_is_in_sync_with_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["cases"]) == sorted(_case_id(c) for c in CASES)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_batches_match_golden(group):
    golden = json.loads(GOLDEN.read_text())["cases"]
    cases = GROUPS[group]
    assert {_case_id(c): _answer(c) for c in cases} == {
        _case_id(c): golden[_case_id(c)] for c in cases}


def _write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "comment": "sha256 of each batch's states.tobytes() and of its "
                   "generator's final bit_generator.state (sorted JSON)",
        "cases": {_case_id(case): _answer(case) for case in CASES},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
