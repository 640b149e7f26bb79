"""Logic-level fault models and the fault simulator (Section IV-A).

The BIST/BISD flows operate on a *reconfigurable crossbar fabric*: ``R`` row
(output) wires crossing ``C`` column (input) wires, each crosspoint holding
a programmable switch.  A configuration programs a subset of crosspoints;
in the diode-logic read-out used here, each row output is the wired-AND of
the inputs on its programmed columns (one product term per row — the
"single-term functions" of the paper's test method), all rows observable.

Fault universe (the paper's stuck-at, bridging, open and functional
classes):

* ``CrosspointStuckOpen`` / ``CrosspointStuckClosed`` — functional switch
  faults (the same physical classes the BISM defect maps use);
* ``LineStuckAt`` — an input column or output row stuck at 0/1 (line opens
  behave as stuck lines at this abstraction and are folded in);
* ``BridgeFault`` — two *adjacent* columns or rows shorted, wired-AND
  semantics (the dominant coupling model for nanowire bundles).

:meth:`CrossbarFabric.evaluate` simulates one vector under one fault;
:func:`detection_matrix` answers every (fault, configuration) detection
question of a suite at once, and every suite-level question below goes
through it.  ``evaluate``/``detects`` stay as the scalar reference it is
property-tested against (``tests/test_reliability_detection_matrix.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .defects import STUCK_CLOSED, STUCK_OPEN, DefectMap


# ----------------------------------------------------------------------
# Fault taxonomy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """Base class; concrete faults below."""


@dataclass(frozen=True)
class CrosspointStuckOpen(Fault):
    row: int
    col: int


@dataclass(frozen=True)
class CrosspointStuckClosed(Fault):
    row: int
    col: int


@dataclass(frozen=True)
class LineStuckAt(Fault):
    line: str  # "row" or "col"
    index: int
    value: bool


@dataclass(frozen=True)
class BridgeFault(Fault):
    line: str  # "row" or "col": bridges (index, index+1)
    index: int


def all_single_faults(rows: int, cols: int) -> list[Fault]:
    """Enumerate the complete single-fault universe of a fabric, bridges
    between adjacent lines included."""
    faults: list[Fault] = []
    for r in range(rows):
        for c in range(cols):
            faults.append(CrosspointStuckOpen(r, c))
            faults.append(CrosspointStuckClosed(r, c))
    for r in range(rows):
        faults.append(LineStuckAt("row", r, False))
        faults.append(LineStuckAt("row", r, True))
    for c in range(cols):
        faults.append(LineStuckAt("col", c, False))
        faults.append(LineStuckAt("col", c, True))
    for c in range(cols - 1):
        faults.append(BridgeFault("col", c))
    for r in range(rows - 1):
        faults.append(BridgeFault("row", r))
    return faults


# ----------------------------------------------------------------------
# The reconfigurable fabric
# ----------------------------------------------------------------------
class CrossbarFabric:
    """An R x C reconfigurable crossbar with wired-AND row read-out."""

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError("fabric dimensions must be positive")
        self.rows = rows
        self.cols = cols

    def check_configuration(self, program: Sequence[Sequence[bool]]) -> None:
        if len(program) != self.rows or any(len(r) != self.cols for r in program):
            raise ValueError(
                f"configuration must be {self.rows}x{self.cols}"
            )

    def check_fault(self, fault: Fault) -> None:
        """Reject a fault that names a line or crosspoint off this fabric.

        A bridge shorts lines ``index`` and ``index + 1``, so both must
        exist.  Raises ``ValueError`` naming the fault.
        """
        if isinstance(fault, (CrosspointStuckOpen, CrosspointStuckClosed)):
            ok = (_within(fault.row, self.rows)
                  and _within(fault.col, self.cols))
        elif (isinstance(fault, (LineStuckAt, BridgeFault))
              and fault.line in ("row", "col")):
            lines = self.rows if fault.line == "row" else self.cols
            if isinstance(fault, BridgeFault):
                lines -= 1
            ok = _within(fault.index, lines)
        else:
            ok = False
        if not ok:
            raise ValueError(
                f"{fault!r} is not a fault of the {self.rows}x{self.cols} "
                "fabric"
            )

    # ------------------------------------------------------------------
    def evaluate(self, program: Sequence[Sequence[bool]], vector: Sequence[bool],
                 fault: Fault | None = None,
                 defect_map: DefectMap | None = None) -> list[bool]:
        """Row outputs for one input vector, optionally faulty/defective.

        ``fault`` injects one modelled fault; ``defect_map`` overlays
        fabrication defects of a crossbar of the fabric's shape (both may
        be given).
        """
        self.check_configuration(program)
        if len(vector) != self.cols:
            raise ValueError(f"vector must have {self.cols} entries")
        if fault is not None:
            self.check_fault(fault)
        if defect_map is not None and (defect_map.rows, defect_map.cols) != (
                self.rows, self.cols):
            raise ValueError(
                f"{defect_map.rows}x{defect_map.cols} defect map on a "
                f"{self.rows}x{self.cols} fabric")
        inputs = [bool(v) for v in vector]
        # Column-line faults act on the input values seen by all rows.
        if isinstance(fault, LineStuckAt) and fault.line == "col":
            inputs[fault.index] = fault.value
        if isinstance(fault, BridgeFault) and fault.line == "col":
            shorted = inputs[fault.index] and inputs[fault.index + 1]
            inputs[fault.index] = shorted
            inputs[fault.index + 1] = shorted

        def effective(r: int, c: int) -> bool:
            programmed = bool(program[r][c])
            if defect_map is not None:
                state = defect_map.state(r, c)
                if state == STUCK_OPEN:
                    programmed = False
                elif state == STUCK_CLOSED:
                    programmed = True
            if isinstance(fault, CrosspointStuckOpen) and (fault.row, fault.col) == (r, c):
                programmed = False
            if isinstance(fault, CrosspointStuckClosed) and (fault.row, fault.col) == (r, c):
                programmed = True
            return programmed

        outputs = []
        for r in range(self.rows):
            value = all(
                inputs[c] for c in range(self.cols) if effective(r, c)
            )
            outputs.append(value)
        # Row-line faults act on the observed outputs.
        if isinstance(fault, LineStuckAt) and fault.line == "row":
            outputs[fault.index] = fault.value
        if isinstance(fault, BridgeFault) and fault.line == "row":
            shorted = outputs[fault.index] and outputs[fault.index + 1]
            outputs[fault.index] = shorted
            outputs[fault.index + 1] = shorted
        return outputs

    # ------------------------------------------------------------------
    def detects(self, program: Sequence[Sequence[bool]],
                vector: Sequence[bool], fault: Fault) -> bool:
        """True when the vector's faulty response differs from golden."""
        golden = self.evaluate(program, vector)
        faulty = self.evaluate(program, vector, fault=fault)
        return golden != faulty

    def detected_by_suite(self, configurations: Sequence["TestConfiguration"],
                          fault: Fault) -> bool:
        """True when any configuration/vector pair detects the fault."""
        return bool(detection_matrix(self, configurations, [fault]).any())


def _within(index: object, count: int) -> bool:
    return isinstance(index, (int, np.integer)) and 0 <= index < count


@dataclass(frozen=True)
class TestConfiguration:
    """A programmed configuration plus its test vector set."""

    name: str
    program: tuple[tuple[bool, ...], ...]
    vectors: tuple[tuple[bool, ...], ...]

    @property
    def num_vectors(self) -> int:
        return len(self.vectors)


# ----------------------------------------------------------------------
# The batched fault simulator
# ----------------------------------------------------------------------
#: Element budget for one chunk of a batched kernel; bounds its working
#: set on large fabrics.  :func:`detection_matrix` counts unpacked
#: ``(faults, vectors, rows, cols)`` crosspoint reads; the batched trial
#: loops count sites or crosspoints, faultlab's samplers drawn values.
CHUNK_ELEMENTS = 1 << 22

# Where a fault acts, as in CrossbarFabric.evaluate: on the program, on
# the input columns, or on the observed row outputs.
_CROSSPOINT, _COL_STUCK, _COL_BRIDGE, _ROW_STUCK, _ROW_BRIDGE = range(5)


def _fault_codes(fabric: CrossbarFabric, faults: Sequence[Fault]) -> np.ndarray:
    """``(F, 4)`` edits ``(kind, line or row, col, value)``, one per fault."""
    codes = []
    for fault in faults:
        fabric.check_fault(fault)
        if isinstance(fault, (CrosspointStuckOpen, CrosspointStuckClosed)):
            codes.append((_CROSSPOINT, fault.row, fault.col,
                          isinstance(fault, CrosspointStuckClosed)))
        elif isinstance(fault, LineStuckAt):
            kind = _COL_STUCK if fault.line == "col" else _ROW_STUCK
            codes.append((kind, fault.index, 0, bool(fault.value)))
        else:
            kind = _COL_BRIDGE if fault.line == "col" else _ROW_BRIDGE
            codes.append((kind, fault.index, 0, 0))
    return np.array(codes, dtype=np.int64).reshape(len(codes), 4)


def _edit_lines(values: np.ndarray, codes: np.ndarray,
                stuck: int, bridge: int) -> None:
    """Apply stuck lines and wired-AND bridges along the last axis, in place.

    ``values`` is ``(F, V, lines)``: fault ``f``'s inputs or outputs.
    """
    kind, line, _, value = codes.T
    hit = np.flatnonzero(kind == stuck)
    values[hit, :, line[hit]] = value[hit, None].astype(bool)
    hit = np.flatnonzero(kind == bridge)
    low = line[hit]
    shorted = values[hit, :, low] & values[hit, :, low + 1]
    values[hit, :, low] = shorted
    values[hit, :, low + 1] = shorted


def _row_outputs(programs: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Wired-AND read-out of ``(F, R, C)`` programs under ``(F, V, C)`` inputs.

    Returns ``(F, V, R)``: a row reads 1 unless one of its programmed
    columns carries a 0.  The column axis is packed eight to a byte.
    """
    programmed = np.packbits(programs, axis=-1)[:, None, :, :]
    zeros = np.packbits(~inputs, axis=-1)[:, :, None, :]
    return ~(programmed & zeros).any(axis=-1)


def detection_matrix(fabric: CrossbarFabric,
                     configurations: Sequence[TestConfiguration],
                     faults: Sequence[Fault]) -> np.ndarray:
    """Which configurations detect which faults, as a ``(F, K)`` bool array.

    Entry ``[i, k]`` is ``any(fabric.detects(configurations[k].program, v,
    faults[i]) for v in configurations[k].vectors)``.  Each configuration's
    fault-free response is computed once; each fault is applied as an edit
    where :meth:`CrossbarFabric.evaluate` applies it (program, inputs or
    outputs), and the fault axis is walked in chunks of at most
    :data:`CHUNK_ELEMENTS` crosspoint reads.  A fault off the fabric
    raises ``ValueError`` (:meth:`CrossbarFabric.check_fault`).
    """
    codes = _fault_codes(fabric, faults)
    detected = np.zeros((len(codes), len(configurations)), dtype=bool)
    for k, config in enumerate(configurations):
        fabric.check_configuration(config.program)
        if any(len(vector) != fabric.cols for vector in config.vectors):
            raise ValueError(f"vector must have {fabric.cols} entries")
        if not config.vectors:
            continue
        program = np.array(config.program, dtype=bool)
        vectors = np.array(config.vectors, dtype=bool)
        golden = _row_outputs(program[None], vectors[None])[0]
        step = max(1, CHUNK_ELEMENTS // (len(vectors) * program.size))
        for start in range(0, len(codes), step):
            chunk = codes[start:start + step]
            programs = np.repeat(program[None], len(chunk), axis=0)
            kind, row, col, value = chunk.T
            hit = np.flatnonzero(kind == _CROSSPOINT)
            programs[hit, row[hit], col[hit]] = value[hit].astype(bool)
            inputs = np.repeat(vectors[None], len(chunk), axis=0)
            _edit_lines(inputs, chunk, _COL_STUCK, _COL_BRIDGE)
            outputs = _row_outputs(programs, inputs)
            _edit_lines(outputs, chunk, _ROW_STUCK, _ROW_BRIDGE)
            detected[start:start + len(chunk), k] = (
                outputs != golden).any(axis=(1, 2))
    return detected


def undetected_faults(fabric: CrossbarFabric,
                      configurations: Sequence[TestConfiguration],
                      faults: Sequence[Fault] | None = None) -> list[Fault]:
    """Exhaustively fault-simulate a suite and list the escapes."""
    universe = list(faults) if faults is not None else all_single_faults(
        fabric.rows, fabric.cols
    )
    caught = detection_matrix(fabric, configurations, universe).any(axis=1)
    return [fault for fault, hit in zip(universe, caught.tolist()) if not hit]


def coverage(fabric: CrossbarFabric,
             configurations: Sequence[TestConfiguration]) -> float:
    """Fault coverage of a configuration suite over the fault universe."""
    universe = all_single_faults(fabric.rows, fabric.cols)
    escapes = undetected_faults(fabric, configurations, universe)
    return 1.0 - len(escapes) / len(universe)
