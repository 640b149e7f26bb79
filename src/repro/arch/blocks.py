"""Logic blocks: one function mapped onto one crossbar (Section V roadmap).

The paper's sub-objectives 3-4 build *arithmetic and memory elements* and
finally a synchronous state machine out of crossbar arrays.  A
:class:`LogicBlock` is the unit of that construction: a Boolean function
plus the four-terminal lattice that realises it, with area/verification
metadata.  A :class:`CombinationalCircuit` bundles one block per output
bit.  (Diode and FET planes are compared with lattices by
:func:`repro.crossbar.metrics.compare_styles`; the architecture is built
from lattices only.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..boolean.function import BooleanFunction
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from ..synthesis.lattice_dual import synthesize_lattice_dual
from ..synthesis.optimize import fold_lattice


@dataclass(frozen=True)
class LogicBlock:
    """One output bit realised on one switching lattice."""

    name: str
    function: BooleanFunction
    array: Lattice

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def area(self) -> int:
        rows, cols = self.shape
        return rows * cols

    def evaluate(self, assignment: int) -> bool:
        return self.array.evaluate(assignment)


def synthesize_block(name: str, function: BooleanFunction) -> LogicBlock:
    """Map one function onto a lattice: the dual-based construction, folded.

    Constant functions get degenerate 1x1 lattices.
    """
    table = function.on
    lattice = synthesize_lattice_dual(table)
    if not table.is_constant():
        lattice = fold_lattice(lattice, table)
    return LogicBlock(name, function, lattice)


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
                        labels: Sequence[str]) -> CombinationalCircuit:
    """Build a circuit from per-output truth tables, one label per output."""
    blocks = []
    for table, label in zip(tables, labels, strict=True):
        function = BooleanFunction.from_truth_table(table, label=label)
        blocks.append(synthesize_block(label, function))
    return CombinationalCircuit(name, tuple(blocks))
