"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper (see DESIGN.md's
per-experiment index).  Rendered tables are written to
``benchmarks/results/<experiment>.txt`` so the artefacts survive pytest's
output capturing, and printed (visible with ``-s``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    """Persist a rendered experiment table and echo it."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture
def save_core_speed(results_dir):
    """Merge one section into the raw-speed artifact.

    The core-speed story spans two benchmark files (tall-grid floods,
    engine wide-n dedup); each contributes its own section to the local,
    gitignored ``results/BENCH_core_speed.json`` so a partial rerun
    refreshes only what it measured.
    """

    def _save(section: str, payload: dict) -> None:
        path = results_dir / "BENCH_core_speed.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        data[section] = payload
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"\n[{section} merged into {path}]")

    return _save
