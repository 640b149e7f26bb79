"""Logic blocks: one function mapped onto one crossbar (Section V roadmap).

The paper's sub-objectives 3-4 build *arithmetic and memory elements* and
finally a synchronous state machine out of crossbar arrays.  A
:class:`LogicBlock` is the unit of that construction: a Boolean function
plus a concrete array implementation (four-terminal lattice, diode plane or
FET plane) with area/verification metadata.  A :class:`CombinationalCircuit`
bundles one block per output bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..boolean.function import BooleanFunction
from ..boolean.truthtable import TruthTable
from ..crossbar.diode import DiodeCrossbar
from ..crossbar.fet import FetCrossbar
from ..crossbar.lattice import Lattice
from ..synthesis.lattice_dual import synthesize_lattice_dual
from ..synthesis.optimize import fold_lattice
from ..synthesis.two_terminal import synthesize_diode, synthesize_fet

#: Supported implementation styles.
STYLES = ("lattice", "diode", "fet")


@dataclass(frozen=True)
class LogicBlock:
    """One output bit realised on one crossbar array."""

    name: str
    function: BooleanFunction
    style: str
    array: Lattice | DiodeCrossbar | FetCrossbar

    @property
    def shape(self) -> tuple[int, int]:
        if isinstance(self.array, Lattice):
            return self.array.shape
        return self.array.shape

    @property
    def area(self) -> int:
        rows, cols = self.shape
        return rows * cols

    def evaluate(self, assignment: int) -> bool:
        return self.array.evaluate(assignment)


def synthesize_block(name: str, function: BooleanFunction,
                     style: str = "lattice") -> LogicBlock:
    """Map one function onto an array in the requested style.

    Lattices are the dual-based construction, folded.  Constant functions
    get degenerate 1x1 lattices regardless of style (two-terminal planes
    cannot express constants).
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    table = function.on
    if table.is_constant() or style == "lattice":
        lattice = synthesize_lattice_dual(table)
        if not table.is_constant():
            lattice = fold_lattice(lattice, table)
        return LogicBlock(name, function, "lattice", lattice)
    if style == "diode":
        return LogicBlock(name, function, style, synthesize_diode(table))
    return LogicBlock(name, function, style, synthesize_fet(table))


@dataclass(frozen=True)
class CombinationalCircuit:
    """A multi-output combinational element: one block per output bit."""

    name: str
    blocks: tuple[LogicBlock, ...]

    @property
    def num_inputs(self) -> int:
        return self.blocks[0].function.n if self.blocks else 0

    @property
    def num_outputs(self) -> int:
        return len(self.blocks)

    @property
    def total_area(self) -> int:
        return sum(block.area for block in self.blocks)

    def evaluate(self, assignment: int) -> int:
        """All output bits packed into an int (bit i = block i)."""
        out = 0
        for i, block in enumerate(self.blocks):
            if block.evaluate(assignment):
                out |= 1 << i
        return out

    def verify_against(self, reference) -> bool:
        """Exhaustively compare with ``reference(assignment) -> int``."""
        return all(
            self.evaluate(m) == reference(m) for m in range(1 << self.num_inputs)
        )


def circuit_from_tables(name: str, tables: Sequence[TruthTable],
                        style: str = "lattice",
                        labels: Sequence[str] | None = None) -> CombinationalCircuit:
    """Build a circuit from per-output truth tables."""
    blocks = []
    for i, table in enumerate(tables):
        label = labels[i] if labels is not None else f"{name}[{i}]"
        function = BooleanFunction.from_truth_table(table, label=label)
        blocks.append(synthesize_block(label, function, style))
    return CombinationalCircuit(name, tuple(blocks))
