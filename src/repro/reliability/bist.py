"""Built-In Self-Test configurations (Section IV-A).

The paper's BIST achieves **exhaustive coverage of all logic-level faults**
(stuck-at, bridging, open, functional) by programming *single-term
functions* into the crossbar during test mode: every row carries one
product term, so every sensitised fault propagates to an observable row
output.  The configuration count is **constant** (five patterns) and the
vector count is **linear** in the number of columns — versus the naive
per-crosspoint approach that needs ``R*C`` configurations.

The five patterns and what they catch (wired-AND read-out):

=============  ===================================================
``all-on``     crosspoint stuck-opens, line stuck-at faults
``all-off``    crosspoint stuck-closeds
``even-cols``  column bridges (c, c+1) with even c
``odd-cols``   column bridges with odd c
``diagonal``   adjacent row bridges (distinct single-literal terms)
=============  ===================================================

Vectors per configuration: the all-ones vector, the all-zeros vector and a
walking-zero / walking-one sweep — ``O(C)`` total.  Coverage is *verified*,
not assumed: :func:`run_bist` fault-simulates the entire single-fault
universe and reports every escape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .faults import (
    CrossbarFabric,
    Fault,
    TestConfiguration,
    all_single_faults,
    undetected_faults,
)


def _walking_zero_vectors(cols: int) -> list[tuple[bool, ...]]:
    return [
        tuple(c != z for c in range(cols)) for z in range(cols)
    ]


def _walking_one_vectors(cols: int) -> list[tuple[bool, ...]]:
    return [
        tuple(c == o for c in range(cols)) for o in range(cols)
    ]


def _base_vectors(cols: int) -> list[tuple[bool, ...]]:
    vectors = [tuple([True] * cols), tuple([False] * cols)]
    vectors.extend(_walking_zero_vectors(cols))
    return vectors


def _parity_alternation_vectors(cols: int) -> list[tuple[bool, ...]]:
    even_on = tuple(c % 2 == 0 for c in range(cols))
    odd_on = tuple(c % 2 == 1 for c in range(cols))
    return [even_on, odd_on]


def bist_configurations(rows: int, cols: int) -> list[TestConfiguration]:
    """The five-pattern BIST suite for an ``rows x cols`` fabric."""
    full_on = tuple(tuple([True] * cols) for _ in range(rows))
    full_off = tuple(tuple([False] * cols) for _ in range(rows))
    even_cols = tuple(tuple(c % 2 == 0 for c in range(cols)) for _ in range(rows))
    odd_cols = tuple(tuple(c % 2 == 1 for c in range(cols)) for _ in range(rows))
    diagonal = tuple(
        tuple(c == (r % cols) for c in range(cols)) for r in range(rows)
    )
    base = _base_vectors(cols)
    parity = _parity_alternation_vectors(cols)
    walking_one = _walking_one_vectors(cols)
    return [
        TestConfiguration("all-on", full_on, tuple(base)),
        TestConfiguration("all-off", full_off, tuple(base)),
        TestConfiguration("even-cols", even_cols, tuple(base + parity)),
        TestConfiguration("odd-cols", odd_cols, tuple(base + parity)),
        TestConfiguration("diagonal", diagonal, tuple(base + walking_one)),
    ]


@dataclass(frozen=True)
class BistReport:
    """Cost/coverage summary of a BIST suite (one experiment row)."""

    rows: int
    cols: int
    num_configurations: int
    num_vectors: int
    num_faults: int
    num_detected: int
    escapes: tuple[Fault, ...]

    @property
    def coverage(self) -> float:
        if self.num_faults == 0:
            return 1.0
        return self.num_detected / self.num_faults

    @property
    def naive_configurations(self) -> int:
        """Per-crosspoint testing baseline: one configuration each."""
        return self.rows * self.cols


def run_bist(rows: int, cols: int) -> BistReport:
    """Build the suite and exhaustively fault-simulate it."""
    fabric = CrossbarFabric(rows, cols)
    configurations = bist_configurations(rows, cols)
    universe = all_single_faults(rows, cols)
    escapes = undetected_faults(fabric, configurations, universe)
    return BistReport(
        rows=rows,
        cols=cols,
        num_configurations=len(configurations),
        num_vectors=sum(c.num_vectors for c in configurations),
        num_faults=len(universe),
        num_detected=len(universe) - len(escapes),
        escapes=tuple(escapes),
    )


# ----------------------------------------------------------------------
# Application-dependent BIST (used by BISM)
# ----------------------------------------------------------------------
def application_bist_passes(fabric: CrossbarFabric,
                            program: tuple[tuple[bool, ...], ...],
                            defect_map,
                            observed_rows: Sequence[int] | None = None,
                            driven_cols: Sequence[int] | None = None) -> bool:
    """Application-dependent BIST: golden vs defective responses.

    This is the pass/fail primitive the BISM strategies invoke; it costs
    one test session.  When the application uses only part of the fabric,
    ``observed_rows`` restricts the compared outputs and ``driven_cols``
    restricts the exercised inputs — unused columns are held at logic 1
    (the wired-AND identity), so defects confined to unused lines cannot
    fail the test, matching what a real self-mapping controller sees.
    """
    rows = list(observed_rows) if observed_rows is not None else list(range(fabric.rows))
    cols = list(driven_cols) if driven_cols is not None else list(range(fabric.cols))
    base_vectors = _base_vectors(len(cols))
    for local_vector in base_vectors:
        vector = [True] * fabric.cols
        for value, c in zip(local_vector, cols):
            vector[c] = value
        golden = fabric.evaluate(program, vector)
        actual = fabric.evaluate(program, vector, defect_map=defect_map)
        if any(golden[r] != actual[r] for r in rows):
            return False
    return True
