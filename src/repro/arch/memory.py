"""Memory elements from crossbar structures (paper sub-objective 3).

* :class:`CrossbarMemory` — a word-addressable crossbar ROM/RAM: word
  lines are crossbar rows, bit lines are columns, a programmed crosspoint
  stores a 1 and the selected row drives the bit lines (wired-OR read-out).
  The address decoder is itself a diode crossbar (one product term per word
  line), so the whole memory is made of the same fabric the logic uses.
* :class:`RegisterBank` — clocked state storage for the SSM; behavioural
  (flip-flops are not crossbar devices in this technology generation, as
  the paper's SSM objective notes arithmetic *and* memory elements must be
  combined with sequential elements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..boolean.cover import Cover
from ..boolean.cube import Cube
from ..crossbar.diode import DiodeCrossbar


def address_decoder(address_bits: int) -> DiodeCrossbar:
    """A 1-of-2^k decoder as a diode crossbar: row i = minterm i."""
    if address_bits < 1:
        raise ValueError("need at least one address bit")
    cubes = [Cube.from_minterm(address_bits, m) for m in range(1 << address_bits)]
    return DiodeCrossbar(Cover(address_bits, cubes))


class CrossbarMemory:
    """A 2^k x width crossbar memory with a diode-crossbar decoder."""

    def __init__(self, address_bits: int, width: int):
        if address_bits < 1 or width < 1:
            raise ValueError("address bits and width must be positive")
        self.address_bits = address_bits
        self.width = width
        self.decoder = address_decoder(address_bits)
        self.cells = [[False] * width for _ in range(1 << address_bits)]

    @property
    def num_words(self) -> int:
        return 1 << self.address_bits

    @property
    def array_shape(self) -> tuple[int, int]:
        """Storage plane shape (word lines x bit lines)."""
        return (self.num_words, self.width)

    @property
    def total_area(self) -> int:
        """Storage plane plus decoder crosspoints."""
        rows, cols = self.array_shape
        return rows * cols + self.decoder.area

    # ------------------------------------------------------------------
    def _word_line(self, address: int) -> int:
        """Drive the decoder and return the selected word line index."""
        if not 0 <= address < self.num_words:
            raise ValueError(f"address {address} out of range")
        selected = [
            r for r in range(self.decoder.num_rows)
            if self.decoder.row_value(r, address)
        ]
        if len(selected) != 1:
            raise RuntimeError("decoder must select exactly one word line")
        return selected[0]

    def write(self, address: int, value: int) -> None:
        """Program one word (reprogrammable crosspoints)."""
        if not 0 <= value < (1 << self.width):
            raise ValueError(f"value {value} exceeds width {self.width}")
        row = self._word_line(address)
        for c in range(self.width):
            self.cells[row][c] = bool((value >> c) & 1)

    def read(self, address: int) -> int:
        """Wired-OR read of the selected word line."""
        row = self._word_line(address)
        value = 0
        for c in range(self.width):
            if self.cells[row][c]:
                value |= 1 << c
        return value

    def load(self, contents: dict[int, int]) -> None:
        for address, value in contents.items():
            self.write(address, value)


@dataclass
class RegisterBank:
    """Edge-triggered state register for the synchronous state machine."""

    width: int
    state: int = 0
    _next: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("register width must be positive")
        self._check(self.state)

    def _check(self, value: int) -> None:
        if not 0 <= value < (1 << self.width):
            raise ValueError(f"value {value} exceeds register width {self.width}")

    def capture(self, next_state: int) -> None:
        """Latch the next-state value (D inputs)."""
        self._check(next_state)
        self._next = next_state

    def clock(self) -> int:
        """Rising edge: transfer D to Q; returns the new state."""
        if self._next is None:
            raise RuntimeError("clock edge without captured next state")
        self.state = self._next
        self._next = None
        return self.state
