"""nanoxbar — a reproduction of "Computing with Nano-Crossbar Arrays:
Logic Synthesis and Fault Tolerance" (Altun, Ciriani, Tahoori, DATE 2017).

Sub-packages:

* :mod:`repro.boolean`     — Boolean substrate (cubes, covers, truth tables,
  minimization, duals, PLA parsing, NPN classes, affine spaces)
* :mod:`repro.sat`         — pure-Python CDCL SAT solver + one-hot encodings
* :mod:`repro.crossbar`    — diode / FET / four-terminal lattice array models
* :mod:`repro.synthesis`   — the paper's synthesis flows (Fig. 3 / Fig. 5,
  P-circuits, D-reducible, SAT-optimal, folding)
* :mod:`repro.reliability` — BIST, BISD, BISM, defect-unaware flow,
  variation and yield models (Section IV)
* :mod:`repro.arch`        — arithmetic / memory / SSM extensions (Section V)
* :mod:`repro.eval`        — benchmark suite + experiment registry + CLI
* :mod:`repro.engine`      — parallel batch-synthesis engine
* :mod:`repro.faultlab`    — vectorized Monte-Carlo fault-tolerance
  campaigns (Section IV at ensemble scale, ``nanoxbar faultsim``)
* :mod:`repro.varsim`      — batched variation-aware Monte-Carlo delay
  campaigns (Section IV variation tolerance, ``nanoxbar varsweep``)
* :mod:`repro.xbareval`    — batched packed-bitset lattice evaluation core
  (whole truth tables and shortest-path delay relaxation per kernel call;
  the scalar references remain as bit-exact checks)
* :mod:`repro.analysis`    — invariant lint engine (``nanoxbar lint``)
  and runtime lock sanitizer (``NANOXBAR_LOCKCHECK=1``) guarding the
  determinism / concurrency / layering contracts above

Quickstart::

    from repro.boolean import BooleanFunction
    from repro.synthesis import synthesize_lattice_dual

    f = BooleanFunction.from_expression("x1 x2 + x1' x2'")
    lattice = synthesize_lattice_dual(f.on)   # the paper's 2x2 example

Batch synthesis engine
----------------------

:mod:`repro.engine` turns the single-function flows above into a batch
service: declarative :class:`~repro.engine.SynthesisJob` descriptions, a
persistent SQLite result store keyed by the NPN-canonical form (array
synthesis cost is NPN-invariant, so one cached race serves the whole
equivalence class — hits are rewritten back through the stored witness
transform), a strategy portfolio racing the dual-based, D-reducible,
P-circuit and SAT-optimal flows under deterministic effort budgets, and a
sharded multiprocessing pool with serial fallback.  ``nanoxbar batch``
drives the whole standard benchmark suite through it in one shot::

    from repro.engine import BatchEngine, SynthesisJob
    from repro.eval.benchsuite import standard_suite

    jobs = [SynthesisJob.from_function(b.function, b.name)
            for b in standard_suite()]
    with BatchEngine(cache_path="results.sqlite", processes=4) as engine:
        results = engine.run(jobs)   # bit-identical in serial / pooled mode
        print(engine.report())       # hit rate, dedup, throughput, wins
"""

from . import analysis, arch, boolean, crossbar, eval, reliability, sat
from . import engine, synthesis, xbareval
from .boolean import BooleanFunction, Cover, Cube, Literal, TruthTable
from .crossbar import DiodeCrossbar, FetCrossbar, Lattice
from .engine import BatchEngine, JobResult, SynthesisJob
from .synthesis import (
    synthesize_diode,
    synthesize_dreducible,
    synthesize_fet,
    synthesize_lattice_dual,
    synthesize_lattice_optimal,
)

__version__ = "1.0.0"


def _wire_kernel_event_sink() -> None:
    """Composition root: kernels emit operational events through the
    :mod:`repro.xbareval.events` seam with no knowledge of repro.obs;
    only here, where every layer is visible, is the structured logger
    injected as the sink (lint rule NX302 keeps it that way)."""
    from .obs import get_logger, log_event
    from .xbareval import events

    def _sink(source: str, message: str, **fields: object) -> None:
        log_event(get_logger(source), message, **fields)

    events.set_event_sink(_sink)


_wire_kernel_event_sink()

__all__ = [
    "BatchEngine",
    "BooleanFunction",
    "Cover",
    "Cube",
    "DiodeCrossbar",
    "FetCrossbar",
    "JobResult",
    "Lattice",
    "Literal",
    "SynthesisJob",
    "TruthTable",
    "__version__",
    "analysis",
    "arch",
    "boolean",
    "crossbar",
    "engine",
    "eval",
    "reliability",
    "sat",
    "synthesis",
    "synthesize_diode",
    "synthesize_dreducible",
    "synthesize_fet",
    "synthesize_lattice_dual",
    "synthesize_lattice_optimal",
    "xbareval",
]
