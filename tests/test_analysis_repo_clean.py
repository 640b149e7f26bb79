"""The repo's own invariant: ``nanoxbar lint src/`` stays clean.

This is the CI gate as a test — every determinism / concurrency /
layering rule over the entire source tree, with zero unsuppressed
findings, and every suppression (if any ever appear) carrying a reason.
"""

from __future__ import annotations

import os

from repro.analysis import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lint(*relative):
    return lint_paths([os.path.join(REPO_ROOT, part) for part in relative])


def test_src_tree_lints_clean():
    report = _lint("src")
    assert report.files_checked > 100
    offenders = "\n".join(f.render() for f in report.unsuppressed)
    assert report.exit_code == 0, f"unsuppressed findings:\n{offenders}"


def test_benchmarks_and_examples_lint_clean():
    report = _lint("benchmarks", "examples")
    assert report.files_checked > 0
    offenders = "\n".join(f.render() for f in report.unsuppressed)
    assert report.exit_code == 0, f"unsuppressed findings:\n{offenders}"


def test_every_suppression_carries_a_reason():
    report = _lint("src", "benchmarks", "examples")
    for finding in report.findings:
        if finding.suppressed:
            assert finding.reason, f"reasonless suppression: {finding.render()}"


def test_every_all_entry_resolves_and_star_imports():
    """A deleted definition must not leave a stale ``__all__`` entry: every
    listed name exists and ``from <module> import *`` succeeds."""
    import importlib
    import pkgutil

    import repro

    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    exported = 0
    for name in names:
        module = importlib.import_module(name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        missing = [entry for entry in listed if not hasattr(module, entry)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"
        exec(f"from {name} import *", {})
        exported += len(listed)
    assert len(names) > 100 and exported > 300
