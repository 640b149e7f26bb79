"""The :class:`BooleanFunction` facade.

This is the main user-facing entry point of the Boolean substrate: a named,
possibly incompletely specified function built from expressions, truth
tables, covers or PLA text, plus the derived artefacts the crossbar
synthesis flows need (minimized SOP, minimized dual SOP).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .cover import Cover
from .expr import expression_to_truth_table, parse_expression
from .minimize import minimize, verify_cover
from .pla import parse_pla
from .truthtable import TruthTable


class BooleanFunction:
    """An (optionally incompletely specified) Boolean function with names.

    Attributes:
        on: the on-set truth table.
        dc: the don't-care truth table (constant 0 when fully specified).
        names: variable names, index-aligned with truth-table bit positions.
        label: an optional benchmark/debug label.
    """

    def __init__(
        self,
        on: TruthTable,
        dc: TruthTable | None = None,
        names: Sequence[str] | None = None,
        label: str = "",
    ):
        if dc is not None and dc.n != on.n:
            raise ValueError("on-set and dc-set dimensions differ")
        if names is not None and len(names) != on.n:
            raise ValueError(f"expected {on.n} names, got {len(names)}")
        self.on = on
        self.dc = dc if dc is not None else TruthTable.constant(on.n, False)
        self.names = list(names) if names is not None else [
            f"x{i + 1}" for i in range(on.n)
        ]
        self.label = label

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_expression(text: str, names: Sequence[str] | None = None,
                        label: str = "") -> "BooleanFunction":
        """Parse e.g. ``"x1 x2 + x3'"`` (see :mod:`repro.boolean.expr`)."""
        node = parse_expression(text)
        table, resolved = expression_to_truth_table(node, names)
        return BooleanFunction(table, names=resolved, label=label or text)

    @staticmethod
    def from_truth_table(table: TruthTable, names: Sequence[str] | None = None,
                         label: str = "") -> "BooleanFunction":
        return BooleanFunction(table, names=names, label=label)

    @staticmethod
    def from_minterms(n: int, minterms: Iterable[int],
                      dc_minterms: Iterable[int] = (),
                      label: str = "") -> "BooleanFunction":
        on = TruthTable.from_minterms(n, minterms)
        dc_list = list(dc_minterms)
        dc = TruthTable.from_minterms(n, dc_list) if dc_list else None
        return BooleanFunction(on, dc, label=label)

    @staticmethod
    def from_pla_text(text: str, output: int = 0, label: str = "") -> "BooleanFunction":
        pla = parse_pla(text)
        on, dc = pla.output_tables(output)
        return BooleanFunction(
            on, dc if dc.count_ones() else None,
            names=pla.input_names, label=label or pla.output_names[output],
        )

    # ------------------------------------------------------------------
    # Basic facts
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.on.n

    @property
    def is_completely_specified(self) -> bool:
        return self.dc.is_contradiction()

    def evaluate(self, assignment: int) -> bool:
        """On-set value (don't-cares read as 0)."""
        return self.on.evaluate(assignment)

    def __call__(self, assignment: int) -> bool:
        return self.evaluate(assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.on == other.on and self.dc == other.dc

    def __hash__(self) -> int:
        return hash((self.on, self.dc))

    def __repr__(self) -> str:
        tag = self.label or "f"
        return f"BooleanFunction({tag!r}, n={self.n}, |on|={self.on.count_ones()})"

    # ------------------------------------------------------------------
    # Derived artefacts (cached: they drive all the size formulas)
    # ------------------------------------------------------------------
    @cached_property
    def minimized_cover(self) -> Cover:
        """A minimized SOP cover of the function."""
        cover = minimize(self.on, self.dc if not self.is_completely_specified else None)
        assert verify_cover(cover, self.on,
                            self.dc if not self.is_completely_specified else None)
        return cover

    @cached_property
    def dual_table(self) -> TruthTable:
        """Truth table of ``f^D`` (don't-cares are resolved to 0 first)."""
        return self.on.dual()

    @cached_property
    def minimized_dual_cover(self) -> Cover:
        """A minimized SOP cover of the dual (rows of the Fig. 5 lattice)."""
        return minimize(self.dual_table)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def to_expression(self) -> str:
        """Render the minimized cover symbolically."""
        return self.minimized_cover.to_expression(self.names)

    # ------------------------------------------------------------------
    # Paper-facing metrics
    # ------------------------------------------------------------------
    def sop_metrics(self) -> dict[str, int]:
        """The quantities consumed by the Fig. 3 / Fig. 5 size formulas."""
        cover = self.minimized_cover
        dual = self.minimized_dual_cover
        return {
            "n": self.n,
            "products": cover.num_products,
            "literal_occurrences": cover.num_literal_occurrences,
            "distinct_literals": cover.num_distinct_literals,
            "dual_products": dual.num_products,
        }
