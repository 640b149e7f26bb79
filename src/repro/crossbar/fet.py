"""FET-based (two-terminal) crossbar arrays (Section III-A, Fig. 3).

CMOS-style complementary structure on a crossbar: the output is driven by

* a *pull-up* plane with one column per product of ``f`` — the column
  conducts (connects the output to VDD) exactly when its product is 1;
* a *pull-down* plane with one column per product of the dual ``f^D`` — the
  column conducts (connects the output to GND) exactly when ``f`` is 0.

Gate rows carry input literals.  A pull-up column for product ``p`` places
a PMOS on the row of each literal's *complement* (PMOS conducts when its
gate is low); a pull-down column for dual product ``q`` places an NMOS on
the row of each literal's complement (NMOS conducts when its gate is high,
and ``f(x) = 0  <=>  q(~x) = 1`` for some dual product ``q``).

Size formula (Fig. 3): ``rows = #distinct-literals(f)``,
``cols = #products(f) + #products(f^D)``.  The row formula counts the gate
signals needed when the literal sets of ``f`` and ``f^D`` coincide (true
for every benchmark in the paper's experiments); the model computes the
actual row set, which :func:`fet_size_formula` callers can compare against.

The complementary invariant — exactly one plane conducts for every input —
is read off :meth:`FetCrossbar.drive_state` and property-tested.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..boolean.cover import Cover
from ..boolean.cube import Literal
from ..boolean.truthtable import TruthTable


class FetCrossbar:
    """A complementary FET crossbar for a cover of ``f`` and one of ``f^D``."""

    def __init__(self, cover: Cover, dual_cover: Cover):
        if cover.n != dual_cover.n:
            raise ValueError("cover and dual cover live in different spaces")
        if cover.num_products == 0 or dual_cover.num_products == 0:
            raise ValueError(
                "constant functions need no FET array (no products to place)"
            )
        self.cover = cover
        self.dual_cover = dual_cover
        self.n = cover.n
        # Gate rows: the complements of every literal used by either plane.
        gate_signals: set[Literal] = set()
        for cube in cover:
            gate_signals.update(lit.negated() for lit in cube.literals())
        for cube in dual_cover:
            gate_signals.update(lit.negated() for lit in cube.literals())
        self.gate_rows: list[Literal] = sorted(gate_signals)
        self._row_of = {lit: i for i, lit in enumerate(self.gate_rows)}
        # pullup[j] = list of row indices carrying PMOS for product j of f.
        self.pullup: list[list[int]] = [
            [self._row_of[lit.negated()] for lit in cube.literals()]
            for cube in cover
        ]
        # pulldown[j] = row indices carrying NMOS for product j of f^D.
        self.pulldown: list[list[int]] = [
            [self._row_of[lit.negated()] for lit in cube.literals()]
            for cube in dual_cover
        ]

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.gate_rows)

    @property
    def num_cols(self) -> int:
        return len(self.pullup) + len(self.pulldown)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def area(self) -> int:
        return self.num_rows * self.num_cols

    def __repr__(self) -> str:
        return f"FetCrossbar({self.num_rows}x{self.num_cols}, n={self.n})"

    # ------------------------------------------------------------------
    def _gate_value(self, row: int, assignment: int) -> bool:
        return self.gate_rows[row].evaluate(assignment)

    def pullup_conducts(self, j: int, assignment: int,
                        transistor_override: Callable[[str, int, int, bool], bool] | None = None
                        ) -> bool:
        """PMOS column ``j`` conducts iff every gate on it reads low."""
        for row in self.pullup[j]:
            conducting = not self._gate_value(row, assignment)
            if transistor_override is not None:
                conducting = transistor_override("pullup", j, row, conducting)
            if not conducting:
                return False
        return True

    def pulldown_conducts(self, j: int, assignment: int,
                          transistor_override: Callable[[str, int, int, bool], bool] | None = None
                          ) -> bool:
        """NMOS column ``j`` conducts iff every gate on it reads high."""
        for row in self.pulldown[j]:
            conducting = self._gate_value(row, assignment)
            if transistor_override is not None:
                conducting = transistor_override("pulldown", j, row, conducting)
            if not conducting:
                return False
        return True

    def evaluate(self, assignment: int,
                 transistor_override: Callable[[str, int, int, bool], bool] | None = None
                 ) -> bool:
        """Output value: 1 when pulled up, 0 when pulled down.

        With a fault override both planes may conduct (a short) or neither
        (a float); those are reported by :meth:`drive_state` — plain
        evaluation resolves them pessimistically to the pull-down value.
        """
        up = any(self.pullup_conducts(j, assignment, transistor_override)
                 for j in range(len(self.pullup)))
        down = any(self.pulldown_conducts(j, assignment, transistor_override)
                   for j in range(len(self.pulldown)))
        if down:
            return False
        return up

    def drive_state(self, assignment: int,
                    transistor_override: Callable[[str, int, int, bool], bool] | None = None
                    ) -> str:
        """One of ``"1"``, ``"0"``, ``"short"`` (both) or ``"float"`` (none)."""
        up = any(self.pullup_conducts(j, assignment, transistor_override)
                 for j in range(len(self.pullup)))
        down = any(self.pulldown_conducts(j, assignment, transistor_override)
                   for j in range(len(self.pulldown)))
        if up and down:
            return "short"
        if up:
            return "1"
        if down:
            return "0"
        return "float"

    def to_truth_table(self) -> TruthTable:
        return TruthTable.from_callable(self.n, self.evaluate)

    def implements(self, table: TruthTable) -> bool:
        if table.n != self.n:
            raise ValueError("variable space mismatch")
        return self.to_truth_table() == table

    # ------------------------------------------------------------------
    def render(self, names: Sequence[str] | None = None) -> str:
        """ASCII array: gate rows vs (pull-up | pull-down) columns."""
        headers = [f"u{j}" for j in range(len(self.pullup))] + [
            f"d{j}" for j in range(len(self.pulldown))
        ]
        label_width = max(len(lit.negated().name(names)) for lit in self.gate_rows)
        lines = [" " * label_width + "  " + " ".join(headers)]
        for i, gate in enumerate(self.gate_rows):
            marks = []
            for rows in self.pullup:
                marks.append("P" if i in rows else ".")
            for rows in self.pulldown:
                marks.append("N" if i in rows else ".")
            # Label rows by the literal whose value the gate line carries.
            label = gate.name(names)
            lines.append(label.rjust(label_width) + "  " + "  ".join(marks))
        return "\n".join(lines)


def fet_size_formula(cover: Cover, dual_cover: Cover) -> tuple[int, int]:
    """Fig. 3 size formula for FET arrays: (literals, products(f) + products(f^D))."""
    return cover.num_distinct_literals, cover.num_products + dual_cover.num_products
