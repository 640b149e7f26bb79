"""Parallel batch-synthesis engine (the scaling substrate of the repo).

The paper's synthesis flows are single-function calls; this package turns
them into a batch service:

* :mod:`repro.engine.jobs`      — declarative ``SynthesisJob`` / ``JobResult``
* :mod:`repro.engine.cache`     — NPN-canonical cache keys, witness
  rewrites and the cache-row JSON codec
* :mod:`repro.engine.portfolio` — strategy race (dual / D-reducible /
  P-circuit / SAT-optimal) under deterministic effort budgets
* :mod:`repro.engine.pool`      — sharded multiprocessing map with serial
  fallback
* :mod:`repro.engine.store`     — the one SQLite store: the NPN cache
  rows, the campaign payloads (e.g. :mod:`repro.faultlab`) and the
  claimable experiment-grid rows :mod:`repro.grid` orchestrates
* :mod:`repro.engine.engine`    — the ``BatchEngine`` facade

Quickstart::

    from repro.engine import BatchEngine, SynthesisJob
    from repro.eval.benchsuite import standard_suite

    jobs = [SynthesisJob.from_function(b.function, b.name)
            for b in standard_suite()]
    with BatchEngine(cache_path="results.sqlite", processes=4) as engine:
        results = engine.run(jobs)
        print(engine.report())
"""

from .cache import (
    CachedResult,
    canonical_cache_key,
    canonical_polarity_table,
    lattice_from_text,
    lattice_to_text,
    transform_lattice_from_canonical,
    transform_lattice_to_canonical,
)
from .engine import BatchEngine, EngineStats
from .jobs import (
    DEFAULT_STRATEGIES,
    FaultToleranceReport,
    FaultToleranceSpec,
    JobResult,
    StrategyOutcome,
    SynthesisJob,
)
from .pool import batch_sizes, chunk_size, default_processes, map_sharded
from .portfolio import (
    PortfolioResult,
    known_strategies,
    run_portfolio,
)

from .store import GridRow, JsonStore

__all__ = [
    "BatchEngine",
    "CachedResult",
    "DEFAULT_STRATEGIES",
    "EngineStats",
    "FaultToleranceReport",
    "FaultToleranceSpec",
    "GridRow",
    "JobResult",
    "JsonStore",
    "PortfolioResult",
    "StrategyOutcome",
    "SynthesisJob",
    "canonical_cache_key",
    "canonical_polarity_table",
    "batch_sizes",
    "chunk_size",
    "default_processes",
    "known_strategies",
    "lattice_from_text",
    "lattice_to_text",
    "map_sharded",
    "run_portfolio",
    "transform_lattice_from_canonical",
    "transform_lattice_to_canonical",
]
