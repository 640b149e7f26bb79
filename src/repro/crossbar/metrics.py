"""Area / delay / power models for the three array styles.

The project overview (Section II) evaluates implementations "by considering
performance parameters such as area, delay, power dissipation, and
reliability".  This module provides first-order, technology-normalised
models — the level of abstraction the paper's work packages operate at:

* **area** — crosspoint count of the bounding array (the Fig. 3/Fig. 5
  metric);
* **delay** — dominated by the longest series switch chain the signal must
  traverse: the worst product length for two-terminal planes (plus a wire
  term growing with the array perimeter), and the worst-case-over-inputs
  best conducting path length for lattices (computed exactly by Dijkstra);
* **power** — a static term (pull resistor current per diode row; none for
  complementary FET planes) plus a dynamic term proportional to the number
  of programmed/used switches.

All quantities are in normalised technology units (R_on = C_unit = 1); the
point is *comparing styles on equal footing*, not absolute numbers.  The
four first-order technology constants below are that normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..boolean.truthtable import TruthTable
from .diode import DiodeCrossbar
from .fet import FetCrossbar
from .lattice import Lattice


WIRE_DELAY_PER_LINE = 0.1   # RC per crossed nanowire segment
SWITCH_DELAY = 1.0          # series switch traversal
STATIC_POWER_PER_ROW = 1.0  # diode pull-resistor current
DYNAMIC_POWER_PER_SWITCH = 0.1


@dataclass(frozen=True)
class ArrayMetrics:
    """The paper's three performance parameters for one array."""

    style: str
    area: int
    delay: float
    power: float


def diode_metrics(array: DiodeCrossbar) -> ArrayMetrics:
    """Diode-resistor plane: worst series product + wired-OR column."""
    worst_chain = max(
        sum(row) for row in array.connections
    )
    wire = WIRE_DELAY_PER_LINE * (array.num_rows + array.num_cols)
    delay = SWITCH_DELAY * (worst_chain + 1) + wire  # +1: OR junction
    power = (STATIC_POWER_PER_ROW * array.num_rows
             + DYNAMIC_POWER_PER_SWITCH * array.num_crosspoints_programmed)
    return ArrayMetrics("diode", array.area, delay, power)


def fet_metrics(array: FetCrossbar) -> ArrayMetrics:
    """Complementary FET plane: worst series transistor stack, no static power."""
    worst_stack = max(
        max(len(rows) for rows in array.pullup),
        max(len(rows) for rows in array.pulldown),
    )
    wire = WIRE_DELAY_PER_LINE * (array.num_rows + array.num_cols)
    delay = SWITCH_DELAY * worst_stack + wire
    transistor_count = sum(len(rows) for rows in array.pullup) + sum(
        len(rows) for rows in array.pulldown
    )
    power = DYNAMIC_POWER_PER_SWITCH * transistor_count
    return ArrayMetrics("fet", array.area, delay, power)


def lattice_metrics(lattice: Lattice,
                    table: TruthTable | None = None) -> ArrayMetrics:
    """Four-terminal lattice: exact worst-case best-path series length.

    For every on-set input the signal takes the shortest conducting
    top-bottom path; the delay is the worst such length over the on-set
    (the same computation the variation models refine with per-site
    resistances).
    """
    from ..reliability.variation import best_path_delay

    if table is None:
        table = lattice.to_truth_table()
    unit = np.ones((lattice.rows, lattice.cols))
    worst = 0.0
    for m in table.minterms():
        length = best_path_delay(lattice.conduction_grid(m), unit)
        if length is None:
            raise ValueError("lattice does not conduct on its own on-set")
        worst = max(worst, length)
    wire = WIRE_DELAY_PER_LINE * (lattice.rows + lattice.cols)
    delay = SWITCH_DELAY * worst + wire
    power = DYNAMIC_POWER_PER_SWITCH * lattice.area
    return ArrayMetrics("lattice", lattice.area, delay, power)


def compare_styles(table: TruthTable) -> list[ArrayMetrics]:
    """Area/delay/power of all three styles for one function."""
    from ..synthesis.lattice_dual import synthesize_lattice_dual
    from ..synthesis.optimize import fold_lattice
    from ..synthesis.two_terminal import synthesize_diode, synthesize_fet

    diode = synthesize_diode(table)
    fet = synthesize_fet(table)
    lattice = fold_lattice(synthesize_lattice_dual(table), table)
    return [
        diode_metrics(diode),
        fet_metrics(fet),
        lattice_metrics(lattice, table),
    ]
