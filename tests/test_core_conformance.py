"""Kernel conformance against a committed golden file.

The flood and delay kernels promise *bit-identical* outputs whichever
path the dispatch takes — the scipy label pass when scipy imports, the
packed flood up to 64 rows otherwise and the unpacked flood above that.  This suite pins that
promise to ``tests/data/core_conformance_golden.json``: sha256 digests
of the raw output bytes on deterministic, arithmetically synthesized
workloads (no RNG, so the inputs are identical on every platform and
numpy version).

Every case runs twice against the same digests: once as dispatched (the
label pass where scipy is installed) and once with scipy hidden from the
flood module, so the numpy floods are pinned even where scipy is present.

The ``cases`` records use a modular pattern that leaves most grids
disconnected and blocked, so they pin the dispatch more than the flood.
The ``ramp_cases`` records run the same shapes on hashed grids whose ON
density ramps across the batch through the site-percolation threshold
(about 0.593), so every shape has both conducting and blocked grids.

Regenerate (only after an intentional kernel-semantics change) with::

    PYTHONPATH=src python tests/test_core_conformance.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

import pytest

from repro.xbareval import (
    best_path_delay_batch,
    connectivity,
    top_bottom_connected_batch,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "core_conformance_golden.json"

#: (batch, rows, cols) regimes: scalar-sized, both sides of the packed
#: flood's 64-row limit, and a genuinely tall grid.
CASES = ((16, 5, 4), (8, 63, 6), (8, 64, 6), (8, 65, 6), (4, 128, 9))


def _grids(batch: int, rows: int, cols: int) -> np.ndarray:
    """Deterministic boolean grids — pure integer arithmetic, no RNG."""
    b, r, c = np.meshgrid(np.arange(batch), np.arange(rows),
                          np.arange(cols), indexing="ij")
    return ((3 * b + 5 * r + 7 * c + r * c) % 11) < 6


def _ramp_grids(batch: int, rows: int, cols: int) -> np.ndarray:
    """Hashed grids whose ON density ramps from 0.30 to 0.95 across the batch.

    Each site gets a splitmix64-style hash of its index and its grid's
    index (wrapping ``uint64`` arithmetic, no RNG); grid ``b`` keeps the
    sites whose hash falls under its density.
    """
    b, r, c = np.meshgrid(np.arange(batch, dtype=np.uint64),
                          np.arange(rows, dtype=np.uint64),
                          np.arange(cols, dtype=np.uint64), indexing="ij")
    h = (r * np.uint64(cols) + c + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    h ^= b * np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(32)
    scale = 1 << 16
    u = (h % np.uint64(scale)).astype(np.int64)
    step = batch - 1
    return u * step * 100 < (30 * step + 65 * b.astype(np.int64)) * scale


#: Grid generator per golden section.
GENERATORS = {"cases": _grids, "ramp_cases": _ramp_grids}


def _resistance(batch: int, rows: int, cols: int) -> np.ndarray:
    b, r, c = np.meshgrid(np.arange(batch), np.arange(rows),
                          np.arange(cols), indexing="ij")
    return 1.0 + (2 * b + 3 * r + 5 * c) % 13


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _case_record(batch: int, rows: int, cols: int,
                 section: str = "cases") -> dict:
    grids = GENERATORS[section](batch, rows, cols)
    return {
        "batch": batch, "rows": rows, "cols": cols,
        "top_bottom": _digest(top_bottom_connected_batch(grids)),
        "delay": _digest(best_path_delay_batch(
            grids, _resistance(batch, rows, cols))),
    }


def test_golden_file_is_in_sync_with_cases():
    golden = json.loads(GOLDEN.read_text())
    for section in GENERATORS:
        assert [(c["batch"], c["rows"], c["cols"])
                for c in golden[section]] == list(CASES), section


@pytest.mark.parametrize("batch,rows,cols", CASES)
def test_ramp_cases_have_mixed_flood_outputs(batch, rows, cols):
    connected = top_bottom_connected_batch(_ramp_grids(batch, rows, cols))
    assert set(connected.tolist()) == {False, True}


#: Every case of both sections as dispatched, then with scipy hidden
#: (the packed and unpacked floods).
DISPATCHES = [
    pytest.param(*case, section, scipy,
                 id=("" if scipy else "no-scipy-")
                 + ("" if section == "cases" else "ramp-")
                 + "{}-{}-{}".format(*case))
    for section in GENERATORS
    for scipy in (True, False) for case in CASES]


@pytest.mark.parametrize("batch,rows,cols,section,scipy", DISPATCHES)
def test_kernel_outputs_match_golden(batch, rows, cols, section, scipy,
                                     monkeypatch):
    if not scipy:
        monkeypatch.setattr(connectivity, "_ndimage", None)
    golden = json.loads(GOLDEN.read_text())
    want = next(c for c in golden[section]
                if (c["batch"], c["rows"], c["cols"]) == (batch, rows, cols))
    got = _case_record(batch, rows, cols, section)
    # one comparison per kernel so a mismatch names the guilty kernel
    assert got["top_bottom"] == want["top_bottom"]
    assert got["delay"] == want["delay"]


def _write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "comment": "sha256 of raw kernel output bytes; shared by the "
                   "scipy label pass and the numpy floods to prove "
                   "bit-identity",
        "cases": [_case_record(*case) for case in CASES],
        "ramp_cases": [_case_record(*case, "ramp_cases") for case in CASES],
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
