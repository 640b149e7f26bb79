"""Arithmetic elements from crossbar blocks (paper sub-objective 3).

Adders and magnitude comparators whose per-output functions are
synthesised onto switching lattices.  Input packing convention: operand
``a`` occupies bits ``0..width-1`` and operand ``b`` bits
``width..2*width-1``.
"""

from __future__ import annotations

from ..boolean.truthtable import TruthTable
from .blocks import CombinationalCircuit, circuit_from_tables


def _adder_bit_tables(width: int) -> list[TruthTable]:
    """Truth tables for the sum bits and the carry-out of an adder."""
    n = 2 * width
    reference = adder_reference(width)
    tables = []
    for out_bit in range(width + 1):
        def value(m: int, out_bit=out_bit) -> bool:
            return bool((reference(m) >> out_bit) & 1)

        tables.append(TruthTable.from_callable(n, value))
    return tables


def synthesize_adder(width: int) -> CombinationalCircuit:
    """A ``width``-bit adder: width sum bits plus the carry-out.

    Outputs are synthesised flat (each output bit as one two-level block),
    which is the only form a crossbar can realise directly (Section III-A).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    tables = _adder_bit_tables(width)
    labels = [f"sum{i}" for i in range(width)] + ["carry"]
    return circuit_from_tables(f"adder{width}", tables, labels)


def adder_reference(width: int):
    """Reference model matching the adder circuit's packing."""

    def reference(m: int) -> int:
        a = m & ((1 << width) - 1)
        b = (m >> width) & ((1 << width) - 1)
        return a + b

    return reference


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
def _comparator_tables(width: int) -> list[TruthTable]:
    """Truth tables for (a < b, a == b, a > b)."""
    n = 2 * width

    def unpack(m: int) -> tuple[int, int]:
        return m & ((1 << width) - 1), (m >> width) & ((1 << width) - 1)

    lt = TruthTable.from_callable(n, lambda m: unpack(m)[0] < unpack(m)[1])
    eq = TruthTable.from_callable(n, lambda m: unpack(m)[0] == unpack(m)[1])
    gt = TruthTable.from_callable(n, lambda m: unpack(m)[0] > unpack(m)[1])
    return [lt, eq, gt]


def synthesize_comparator(width: int) -> CombinationalCircuit:
    """A ``width``-bit magnitude comparator with lt/eq/gt outputs."""
    if width < 1:
        raise ValueError("width must be >= 1")
    tables = _comparator_tables(width)
    return circuit_from_tables(f"cmp{width}", tables, ["lt", "eq", "gt"])


def comparator_reference(width: int):
    """Reference: bit0 = a<b, bit1 = a==b, bit2 = a>b."""

    def reference(m: int) -> int:
        a = m & ((1 << width) - 1)
        b = (m >> width) & ((1 << width) - 1)
        return (a < b) | ((a == b) << 1) | ((a > b) << 2)

    return reference
