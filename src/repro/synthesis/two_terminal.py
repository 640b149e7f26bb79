"""Two-terminal synthesis flows (Section III-A, Fig. 3).

Functions must be flattened to (minimized) SOP — factored forms and BDDs
cannot be wired on a nanoarray — and then sized by the Fig. 3 formulas:

* diode array: ``#products x (#literals + 1)``;
* FET array: ``#literals x (#products(f) + #products(f^D))``.

Both are optimal for the chosen SOP cover, so the only optimisation lever
is the cover itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..boolean.function import BooleanFunction
from ..boolean.minimize import minimize
from ..boolean.truthtable import TruthTable
from ..crossbar.diode import DiodeCrossbar, diode_size_formula
from ..crossbar.fet import FetCrossbar, fet_size_formula


class TwoTerminalError(RuntimeError):
    """Raised when a flow invariant breaks (verification failure)."""


def synthesize_diode(function: BooleanFunction | TruthTable) -> DiodeCrossbar:
    """Minimize and map onto a diode-resistor crossbar."""
    table = function.on if isinstance(function, BooleanFunction) else function
    cover = minimize(table)
    if cover.num_products == 0:
        raise TwoTerminalError("constant-0 function needs no diode array")
    array = DiodeCrossbar(cover)
    if not array.implements(table):
        raise TwoTerminalError("diode array failed verification")
    return array


def synthesize_fet(function: BooleanFunction | TruthTable) -> FetCrossbar:
    """Minimize ``f`` and ``f^D`` and map onto a complementary FET crossbar."""
    table = function.on if isinstance(function, BooleanFunction) else function
    cover = minimize(table)
    dual_cover = minimize(table.dual())
    if cover.num_products == 0 or dual_cover.num_products == 0:
        raise TwoTerminalError("constant functions need no FET array")
    array = FetCrossbar(cover, dual_cover)
    if not array.implements(table):
        raise TwoTerminalError("FET array failed verification")
    return array


@dataclass(frozen=True)
class TwoTerminalReport:
    """One Fig. 3 table row: formulas and as-built array shapes."""

    label: str
    n: int
    products: int
    dual_products: int
    distinct_literals: int
    diode_formula: tuple[int, int]
    diode_shape: tuple[int, int]
    fet_formula: tuple[int, int]
    fet_shape: tuple[int, int]

    @property
    def diode_area(self) -> int:
        return self.diode_shape[0] * self.diode_shape[1]

    @property
    def fet_area(self) -> int:
        return self.fet_shape[0] * self.fet_shape[1]


def two_terminal_report(function: BooleanFunction) -> TwoTerminalReport:
    """Synthesize both two-terminal styles and collect the Fig. 3 row."""
    table = function.on
    cover = minimize(table)
    dual_cover = minimize(table.dual())
    if cover.num_products == 0 or dual_cover.num_products == 0:
        raise TwoTerminalError("constant functions have no Fig. 3 row")
    diode = DiodeCrossbar(cover)
    fet = FetCrossbar(cover, dual_cover)
    if not diode.implements(table) or not fet.implements(table):
        raise TwoTerminalError("two-terminal arrays failed verification")
    return TwoTerminalReport(
        label=function.label or "f",
        n=function.n,
        products=cover.num_products,
        dual_products=dual_cover.num_products,
        distinct_literals=cover.num_distinct_literals,
        diode_formula=diode_size_formula(cover),
        diode_shape=diode.shape,
        fet_formula=fet_size_formula(cover, dual_cover),
        fet_shape=fet.shape,
    )
