"""A synchronous state machine from crossbar logic (paper sub-objective 4).

"With combination of arithmetic and memory elements a synchronous state
machine (SSM), representation of a computer, is realized" (Section II).
Here the next-state and output functions are synthesised onto crossbar
blocks (one per bit) and a :class:`~repro.arch.memory.RegisterBank` holds
the state between clock edges.

Input packing for the combinational core: state bits occupy positions
``0..state_bits-1``, external inputs ``state_bits..state_bits+input_bits-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..boolean.truthtable import TruthTable
from .blocks import CombinationalCircuit, circuit_from_tables
from .memory import RegisterBank


@dataclass(frozen=True)
class SsmSpec:
    """Behavioural specification of a Moore/Mealy machine.

    ``next_state(state, inputs)`` and ``output(state, inputs)`` define the
    semantics; bit widths bound the encodings.  The machine resets to
    state 0.
    """

    state_bits: int
    input_bits: int
    output_bits: int
    next_state: Callable[[int, int], int]
    output: Callable[[int, int], int]
    name: str = "ssm"


class SynchronousStateMachine:
    """Crossbar-synthesised SSM: combinational core + state register."""

    def __init__(self, spec: SsmSpec):
        self.spec = spec
        n = spec.state_bits + spec.input_bits

        def packed(fn: Callable[[int, int], int], bit: int) -> TruthTable:
            def value(m: int) -> bool:
                state = m & ((1 << spec.state_bits) - 1)
                inputs = m >> spec.state_bits
                return bool((fn(state, inputs) >> bit) & 1)

            return TruthTable.from_callable(n, value)

        next_tables = [packed(spec.next_state, b) for b in range(spec.state_bits)]
        out_tables = [packed(spec.output, b) for b in range(spec.output_bits)]
        self.next_logic = circuit_from_tables(
            f"{spec.name}.next", next_tables,
            [f"ns{b}" for b in range(spec.state_bits)],
        )
        self.output_logic = circuit_from_tables(
            f"{spec.name}.out", out_tables,
            [f"out{b}" for b in range(spec.output_bits)],
        ) if spec.output_bits else CombinationalCircuit(f"{spec.name}.out", ())
        self.register = RegisterBank(spec.state_bits)

    # ------------------------------------------------------------------
    @property
    def state(self) -> int:
        return self.register.state

    @property
    def total_area(self) -> int:
        """Crossbar sites of both combinational cores."""
        return self.next_logic.total_area + self.output_logic.total_area

    def _pack(self, inputs: int) -> int:
        if not 0 <= inputs < (1 << self.spec.input_bits):
            raise ValueError(f"inputs {inputs} exceed {self.spec.input_bits} bits")
        return self.register.state | (inputs << self.spec.state_bits)

    def step(self, inputs: int = 0) -> int:
        """One clock cycle; returns the output sampled before the edge."""
        packed = self._pack(inputs)
        output = self.output_logic.evaluate(packed) if self.spec.output_bits else 0
        self.register.capture(self.next_logic.evaluate(packed))
        self.register.clock()
        return output

    def run(self, input_sequence: Iterable[int]) -> list[int]:
        """Clock the machine through a sequence, collecting outputs."""
        return [self.step(inputs) for inputs in input_sequence]

    def verify_against_spec(self) -> bool:
        """Exhaustively compare the synthesised core with the behaviour."""
        spec = self.spec
        for state in range(1 << spec.state_bits):
            for inputs in range(1 << spec.input_bits):
                packed = state | (inputs << spec.state_bits)
                if self.next_logic.evaluate(packed) != spec.next_state(state, inputs):
                    return False
                if spec.output_bits and (
                    self.output_logic.evaluate(packed) != spec.output(state, inputs)
                ):
                    return False
        return True


# ----------------------------------------------------------------------
# Example machines
# ----------------------------------------------------------------------
def counter_spec(bits: int, name: str = "counter") -> SsmSpec:
    """An up-counter with enable input; output = current state."""
    mask = (1 << bits) - 1
    return SsmSpec(
        state_bits=bits,
        input_bits=1,
        output_bits=bits,
        next_state=lambda s, i: (s + i) & mask,
        output=lambda s, i: s,
        name=name,
    )


def sequence_detector_spec(pattern: Sequence[int],
                           name: str = "detector") -> SsmSpec:
    """Moore detector for a bit pattern on a serial input (overlapping).

    State = length of the longest pattern prefix matched so far; output 1
    is emitted in the cycle after the full pattern was seen.
    """
    if not pattern or any(b not in (0, 1) for b in pattern):
        raise ValueError("pattern must be a non-empty 0/1 sequence")
    pattern = list(pattern)
    length = len(pattern)
    state_bits = max(1, length.bit_length())

    def next_state(state: int, inputs: int) -> int:
        if state > length:
            state = 0  # unreachable encodings behave like the reset state
        seen = pattern[:state] + [inputs & 1]
        # Longest suffix of the observed window that is a pattern prefix
        # (k = length means the pattern just (re-)completed).
        for k in range(min(len(seen), length), 0, -1):
            if seen[len(seen) - k:] == pattern[:k]:
                return k
        return 0

    def output(state: int, inputs: int) -> int:
        return 1 if state == length else 0

    return SsmSpec(
        state_bits=state_bits,
        input_bits=1,
        output_bits=1,
        next_state=next_state,
        output=output,
        name=name,
    )
