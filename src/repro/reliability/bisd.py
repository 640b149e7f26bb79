"""Built-In Self-Diagnosis with block codes (Section IV-A).

Diagnosis identifies *which* resource is faulty from the pass/fail
outcomes of a small set of configurations.  Each crosspoint gets the
binary codeword of its index; diagnosis configuration ``k`` programs
exactly the crosspoints whose codeword has bit ``k`` set.  With exhaustive
vectors per configuration:

* a stuck-open at index ``i`` fails configuration ``k`` iff bit ``k`` of
  ``i`` is 1 (the fault only matters where programmed) — the fail vector
  *is* the codeword;
* a stuck-closed at ``i`` fails configuration ``k`` iff bit ``k`` is 0 —
  the fail vector is the complemented codeword.

Two extra *type probes* disambiguate the cases (and catch codeword corner
cases such as a stuck-closed at an all-ones index, which passes every code
configuration): the all-on configuration fails only for stuck-open-class
faults, the all-off configuration only for stuck-closed-class faults.  So

    #configurations = ceil(log2(R*C)) + 2

— logarithmic in the number of resources, exactly the paper's claim.  The
pass/fail outcome space is a binary block code with the typing bits acting
as the code selector; :func:`diagnose` decodes it back to the faulty
crosspoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bist import _base_vectors, bist_configurations
from .faults import (
    CrossbarFabric,
    CrosspointStuckClosed,
    CrosspointStuckOpen,
    Fault,
    TestConfiguration,
    all_single_faults,
    detection_matrix,
)


def _codeword_bits(rows: int, cols: int) -> int:
    resources = rows * cols
    return max(1, math.ceil(math.log2(resources))) if resources > 1 else 1


def diagnosis_configurations(rows: int, cols: int) -> list[TestConfiguration]:
    """The two type probes plus one configuration per codeword bit."""
    bits = _codeword_bits(rows, cols)
    vectors = tuple(_base_vectors(cols))
    configs = [
        TestConfiguration(
            "open-probe",
            tuple(tuple([True] * cols) for _ in range(rows)),
            vectors,
        ),
        TestConfiguration(
            "closed-probe",
            tuple(tuple([False] * cols) for _ in range(rows)),
            vectors,
        ),
    ]
    for k in range(bits):
        program = tuple(
            tuple(bool(((r * cols + c) >> k) & 1) for c in range(cols))
            for r in range(rows)
        )
        configs.append(TestConfiguration(f"code-bit-{k}", program, vectors))
    return configs


def signature(fabric: CrossbarFabric, configs: list[TestConfiguration],
              fault: Fault) -> tuple[bool, ...]:
    """The pass/fail vector (True = fail) across the diagnosis suite."""
    return tuple(detection_matrix(fabric, configs, [fault])[0].tolist())


@dataclass(frozen=True)
class Diagnosis:
    """Decoded diagnosis outcome."""

    fault_type: str  # "stuck_open", "stuck_closed" or "none"
    row: int | None
    col: int | None


def diagnose(rows: int, cols: int, observed: tuple[bool, ...]) -> Diagnosis:
    """Decode a pass/fail signature back to the faulty crosspoint.

    ``observed[0]``/``observed[1]`` are the open/closed type probes; the
    remaining bits spell the codeword (stuck-open) or its complement
    (stuck-closed).
    """
    bits = _codeword_bits(rows, cols)
    if len(observed) != bits + 2:
        raise ValueError(f"expected {bits + 2} outcomes, got {len(observed)}")
    open_probe, closed_probe, *code = observed
    if open_probe and closed_probe:
        raise ValueError("both type probes failed: not a single crosspoint fault")
    if open_probe:
        index = sum(1 << k for k, fail in enumerate(code) if fail)
        kind = "stuck_open"
    elif closed_probe:
        index = sum(1 << k for k, fail in enumerate(code) if not fail)
        kind = "stuck_closed"
    else:
        return Diagnosis("none", None, None)
    if index >= rows * cols:
        raise ValueError(f"decoded index {index} outside the fabric")
    return Diagnosis(kind, index // cols, index % cols)


def diagnose_fault(fabric: CrossbarFabric, fault: Fault) -> Diagnosis:
    """Run the full diagnosis flow against one injected fault."""
    configs = diagnosis_configurations(fabric.rows, fabric.cols)
    observed = signature(fabric, configs, fault)
    return diagnose(fabric.rows, fabric.cols, observed)


@dataclass(frozen=True)
class BisdReport:
    """Diagnosability summary (one experiment row)."""

    rows: int
    cols: int
    num_resources: int
    num_configurations: int
    theoretical_minimum: int
    num_correct: int
    num_faults: int

    @property
    def accuracy(self) -> float:
        return self.num_correct / self.num_faults if self.num_faults else 1.0


@dataclass(frozen=True)
class FaultDictionary:
    """Signature -> candidate-fault dictionary over a configuration suite.

    Extends diagnosis beyond crosspoint faults: *every* modelled fault
    (lines, bridges, crosspoints) is simulated against the suite and keyed
    by its pass/fail signature.  Faults sharing a signature form an
    *ambiguity group* — indistinguishable by this suite, the standard
    dictionary-based diagnosis notion.
    """

    rows: int
    cols: int
    num_configurations: int
    groups: dict[tuple[bool, ...], tuple[Fault, ...]]

    @property
    def num_faults(self) -> int:
        return sum(len(g) for g in self.groups.values())

    @property
    def num_signatures(self) -> int:
        return len(self.groups)

    @property
    def max_ambiguity(self) -> int:
        return max((len(g) for g in self.groups.values()), default=0)

    @property
    def avg_ambiguity(self) -> float:
        if not self.groups:
            return 0.0
        return self.num_faults / self.num_signatures

    def lookup(self, observed: tuple[bool, ...]) -> tuple[Fault, ...]:
        """Candidate faults for an observed signature (empty = unknown)."""
        return self.groups.get(observed, ())


def build_fault_dictionary(rows: int, cols: int) -> FaultDictionary:
    """Simulate the full fault universe against diagnosis + BIST configs."""
    fabric = CrossbarFabric(rows, cols)
    configs = diagnosis_configurations(rows, cols)
    configs += [c for c in bist_configurations(rows, cols)
                if c.name not in {"all-on", "all-off"}]
    universe = all_single_faults(rows, cols)
    matrix = detection_matrix(fabric, configs, universe)
    groups: dict[tuple[bool, ...], list[Fault]] = {}
    for fault, observed in zip(universe, matrix.tolist()):
        groups.setdefault(tuple(observed), []).append(fault)
    return FaultDictionary(
        rows=rows,
        cols=cols,
        num_configurations=len(configs),
        groups={key: tuple(value) for key, value in groups.items()},
    )


def run_bisd(rows: int, cols: int) -> BisdReport:
    """Inject every single crosspoint fault and check unique diagnosis."""
    fabric = CrossbarFabric(rows, cols)
    configs = diagnosis_configurations(rows, cols)
    injected = [(fault(r, c), Diagnosis(kind, r, c))
                for r in range(rows) for c in range(cols)
                for fault, kind in ((CrosspointStuckOpen, "stuck_open"),
                                    (CrosspointStuckClosed, "stuck_closed"))]
    matrix = detection_matrix(fabric, configs, [f for f, _ in injected])
    correct = sum(
        diagnose(rows, cols, tuple(observed)) == expected
        for (_, expected), observed in zip(injected, matrix.tolist())
    )
    return BisdReport(
        rows=rows,
        cols=cols,
        num_resources=rows * cols,
        num_configurations=len(configs),
        theoretical_minimum=_codeword_bits(rows, cols),
        num_correct=correct,
        num_faults=len(injected),
    )
