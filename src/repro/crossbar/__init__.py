"""Behavioural models of nano-crossbar arrays (Fig. 1 switch semantics).

* :class:`~repro.crossbar.diode.DiodeCrossbar` — two-terminal, diode-resistor
  wired-AND/OR planes.
* :class:`~repro.crossbar.fet.FetCrossbar` — two-terminal, complementary
  CMOS-style pull-up/pull-down planes.
* :class:`~repro.crossbar.lattice.Lattice` — four-terminal switching lattice
  with percolation semantics.
"""

from .diode import DiodeCrossbar, diode_size_formula
from .fet import FetCrossbar, fet_size_formula
from .geometry import DisjointSet, in_bounds, neighbors4, neighbors8
from .lattice import Lattice, Site
from .metrics import (
    ArrayMetrics,
    compare_styles,
    diode_metrics,
    fet_metrics,
    lattice_metrics,
)
from .paths import (
    count_top_bottom_paths,
    enumerate_left_right_paths_8,
    enumerate_top_bottom_paths,
    left_right_blocked_8,
    percolation_duality_holds,
    top_bottom_connected,
)

__all__ = [
    "ArrayMetrics",
    "DiodeCrossbar",
    "DisjointSet",
    "FetCrossbar",
    "Lattice",
    "Site",
    "compare_styles",
    "count_top_bottom_paths",
    "diode_metrics",
    "diode_size_formula",
    "fet_metrics",
    "lattice_metrics",
    "enumerate_left_right_paths_8",
    "enumerate_top_bottom_paths",
    "fet_size_formula",
    "in_bounds",
    "left_right_blocked_8",
    "neighbors4",
    "neighbors8",
    "percolation_duality_holds",
    "top_bottom_connected",
]
