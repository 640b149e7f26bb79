"""Declarative batch-synthesis jobs and their results.

A :class:`SynthesisJob` is a plain, hashable, picklable description of one
synthesis request: the target function (packed truth-table bits), which
strategies of the portfolio to race, and optional fault-tolerance
post-processing (defect-aware mapping onto a random fabric, TMR).  Jobs
deliberately carry *no* live objects — they cross process boundaries in the
sharded pool and act as deduplication units, so everything is value-like.

A :class:`JobResult` records the winning lattice plus enough provenance to
audit the run: which strategy won, every strategy's outcome, whether the
answer came from the persistent NPN cache, and the fault-tolerance report
when one was requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..boolean.function import BooleanFunction
from ..boolean.truthtable import MAX_DENSE_VARS, TruthTable
from ..crossbar.lattice import Lattice
from .campaign import check_fields

#: Portfolio strategy order (also the tie-break order: earlier wins ties).
DEFAULT_STRATEGIES = ("dual", "dreducible", "pcircuit", "optimal")

#: Largest fabric side and placement budget a fault-tolerance spec accepts:
#: a job draws one ``fabric_rows x fabric_cols`` defect map and tries up to
#: ``mapping_trials`` placements on it.
MAX_FABRIC_SIDE = 256
MAX_MAPPING_TRIALS = 10_000


@dataclass(frozen=True)
class FaultToleranceSpec:
    """Optional reliability post-processing for a job.

    When ``defect_density > 0`` the winning lattice is mapped onto a random
    defective fabric (:mod:`repro.reliability.lattice_mapping`); when
    ``redundancy == "tmr"`` the lattice is additionally tripled through the
    majority-voter lattice (:mod:`repro.reliability.redundancy`).  ``seed``
    makes the whole post-processing deterministic.
    """

    defect_density: float = 0.0
    fabric_rows: int = 8
    fabric_cols: int = 8
    mapping_trials: int = 200
    redundancy: str = "none"  # "none" | "tmr"
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 <= self.defect_density < 1.0:
            raise ValueError("defect_density must be in [0, 1)")
        for name, most in (("fabric_rows", MAX_FABRIC_SIDE),
                           ("fabric_cols", MAX_FABRIC_SIDE),
                           ("mapping_trials", MAX_MAPPING_TRIALS)):
            if not 1 <= getattr(self, name) <= most:
                raise ValueError(f"{name} must be in [1, {most}]")
        if self.redundancy not in ("none", "tmr"):
            raise ValueError(f"unknown redundancy {self.redundancy!r}")


@dataclass(frozen=True)
class FaultToleranceReport:
    """What the reliability post-processing observed."""

    mapped: bool = False
    mapping_trials: int = 0
    exploited_defects: int = 0
    tmr_area: int = 0


@dataclass(frozen=True)
class SynthesisJob:
    """One batch-synthesis request (value semantics, picklable)."""

    label: str
    n: int
    bits: int
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    fault_tolerance: FaultToleranceSpec | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        # Before the shift below: 1 << n for a huge n would fill memory.
        if not 1 <= self.n <= MAX_DENSE_VARS:
            raise ValueError(f"jobs need 1 to {MAX_DENSE_VARS} variables, "
                             f"got n={self.n}")
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise ValueError(f"truth-table bits out of range for n={self.n}")
        if not self.strategies:
            raise ValueError("a job must name at least one strategy")

    @staticmethod
    def from_function(function: BooleanFunction | TruthTable,
                      label: str = "",
                      strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
                      fault_tolerance: FaultToleranceSpec | None = None
                      ) -> "SynthesisJob":
        """Build a job from a live function object (don't-cares read as 0)."""
        if isinstance(function, BooleanFunction):
            table = function.on
            label = label or function.label or "f"
        else:
            table = function
            label = label or "f"
        return SynthesisJob(
            label=label,
            n=table.n,
            bits=table.bits,
            strategies=tuple(strategies),
            fault_tolerance=fault_tolerance,
        )

    @property
    def table(self) -> TruthTable:
        """Rehydrate the dense truth table."""
        return TruthTable.from_bits(self.n, self.bits)


@dataclass(frozen=True)
class StrategyOutcome:
    """What one portfolio strategy did for one function.

    ``status`` is ``"ok"`` (produced a verified lattice), ``"skipped"``
    (deterministic effort gate declined to run it), ``"not-applicable"``
    (e.g. a non-D-reducible function in the D-reducible flow), or
    ``"failed"`` (the flow raised or its candidate failed verification).
    ``area`` is -1 unless ``status == "ok"``.
    """

    strategy: str
    status: str
    area: int = -1
    shape: tuple[int, int] = (0, 0)
    elapsed: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class JobResult:
    """The engine's answer for one job.

    ``elapsed`` covers the per-job tail work only (witness rewrite,
    verification, fault-tolerance post-processing); the portfolio races
    run batched and deduplicated across jobs, so their cost lives in
    ``outcomes[*].elapsed`` and the engine-level ``EngineStats.elapsed``.
    """

    label: str
    n: int
    strategy: str
    lattice: Lattice
    cache_hit: bool
    elapsed: float = 0.0
    outcomes: tuple[StrategyOutcome, ...] = field(default_factory=tuple)
    fault_tolerance: FaultToleranceReport | None = None

    @property
    def area(self) -> int:
        return self.lattice.area

    @property
    def shape(self) -> tuple[int, int]:
        return self.lattice.shape
