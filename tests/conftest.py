"""Suite-wide wiring: the runtime lock sanitizer and the experiment cache.

Running the tier-1 suite with ``NANOXBAR_LOCKCHECK=1`` installs
:mod:`repro.analysis.lockwatch` before any test creates a lock: every
``threading.Lock``/``RLock`` made during the run is instrumented, and at
session end any recorded violations (lock-order inversions, locks held
across a fork boundary) fail the run even though every individual test
passed.  Without the flag the sanitizer does nothing.

The ``fast_experiment`` fixture runs each paper experiment in fast mode
at most once per session, however many tests read its rows.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis import lockwatch

_watch = lockwatch.install_from_env()


@pytest.fixture(scope="session")
def fast_experiment():
    """``fast_experiment(id)``: the experiment's fast-mode result, shared."""
    from repro.eval import get_experiment

    @functools.cache
    def run(experiment_id: str):
        return get_experiment(experiment_id).run(True)

    return run


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if _watch is None:
        return
    violations = _watch.violations()
    if violations and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus: int, config) -> None:
    if _watch is None:
        return
    violations = _watch.violations()
    if violations:
        terminalreporter.section("lockwatch violations")
        terminalreporter.write_line(_watch.render_report())
    else:
        terminalreporter.write_line(
            "lockwatch: no lock-order or fork-safety violations")
