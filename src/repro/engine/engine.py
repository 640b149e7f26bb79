"""The :class:`BatchEngine` facade: cache-probe, dedupe, shard, rewrite.

The pipeline for ``run(jobs)``:

1. **Canonicalise** every job's function and probe the persistent cache
   (:mod:`repro.engine.cache` rows of a :class:`~repro.engine.store.JsonStore`)
   under the portfolio gates' fingerprint.
2. **Dedupe** the misses by canonical key — one portfolio race per NPN
   class per batch, however many jobs land in it.
3. **Shard** the unique races across the worker pool
   (:mod:`repro.engine.pool`); workers synthesise the canonical-polarity
   function, so their results are directly storable.
4. **Rewrite** each cached/computed canonical lattice back to the job's
   original function through the stored NPN witness, re-verify it against
   the job's truth table, and run any requested fault-tolerance
   post-processing (defect-aware mapping, TMR) with a per-job seed.

Workers are pure functions of their task tuples and all tie-breaks are
deterministic, so serial and pooled runs return bit-identical results.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..boolean.npn import NpnTransform
from ..boolean.truthtable import TruthTable
from ..obs import get_logger, log_event, metrics, tracing
from ..xbareval import implements_table
from .cache import (
    CACHE_NAMESPACE,
    MAX_NPN_VARS,
    CachedResult,
    cache_key,
    canonical_cache_key,
    canonical_polarity_table,
    result_from_json,
    result_to_json,
    transform_lattice_from_canonical,
)
from .jobs import (
    FaultToleranceReport,
    FaultToleranceSpec,
    JobResult,
    SynthesisJob,
)
from .pool import default_processes, map_sharded
from .portfolio import fingerprint, run_portfolio
from .store import JsonStore

_LOG = get_logger("engine")


@dataclass
class EngineStats:
    """Aggregate accounting for one or more ``run`` calls.

    Accumulation and snapshotting are atomic under an internal lock:
    ``run`` calls record a whole batch in one :meth:`record_run`, and
    ``as_dict`` (the server's ``/api/stats`` payload, read from another
    thread while served batches land) never observes a half-applied
    batch.  ``strategy_wins`` is kept key-sorted, so
    snapshot order is deterministic however runs interleave.
    """

    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    races_run: int = 0
    deduped: int = 0
    elapsed: float = 0.0
    strategy_wins: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record_run(self, jobs: int, cache_hits: int, races_run: int,
                   deduped: int, elapsed: float,
                   strategy_wins: dict[str, int]) -> None:
        """Fold one batch's accounting in as a single atomic step."""
        with self._lock:
            self.jobs += jobs
            self.cache_hits += cache_hits
            self.cache_misses += jobs - cache_hits
            self.races_run += races_run
            self.deduped += deduped
            self.elapsed += elapsed
            merged = dict(self.strategy_wins)
            for name, count in strategy_wins.items():
                merged[name] = merged.get(name, 0) + count
            self.strategy_wins = {name: merged[name]
                                  for name in sorted(merged)}

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot (the server's ``/api/stats`` payload)."""
        with self._lock:
            jobs, hits = self.jobs, self.cache_hits
            return {
                "jobs": jobs,
                "cache_hits": hits,
                "cache_misses": self.cache_misses,
                "races_run": self.races_run,
                "deduped": self.deduped,
                "elapsed": self.elapsed,
                "hit_rate": hits / jobs if jobs else 0.0,
                "throughput": jobs / self.elapsed if self.elapsed > 0
                else 0.0,
                "strategy_wins": dict(sorted(self.strategy_wins.items())),
            }

    def render(self) -> str:
        snapshot = self.as_dict()
        wins = ", ".join(f"{name}:{count}"
                         for name, count in snapshot["strategy_wins"].items())
        return (
            f"jobs={snapshot['jobs']}  hits={snapshot['cache_hits']}  "
            f"misses={snapshot['cache_misses']}  "
            f"races={snapshot['races_run']}  "
            f"deduped={snapshot['deduped']}  "
            f"hit_rate={snapshot['hit_rate']:.1%}  "
            f"throughput={snapshot['throughput']:.2f} fn/s\n"
            f"strategy wins: {wins or '-'}"
        )


def _race_task(task: tuple[str, int, int, tuple[str, ...]]
               ) -> tuple[str, CachedResult]:
    """Worker body: run one portfolio race on a canonical-polarity function.

    Module-level so it pickles across the process pool.
    """
    canon, n, bits, strategies = task
    table = TruthTable.from_bits(n, bits)
    outcome = run_portfolio(table, strategies)
    return canon, CachedResult(
        strategy=outcome.strategy,
        lattice=outcome.lattice,
        outcomes=outcome.outcomes,
        # Semi-canonically keyed entries (n > MAX_NPN_VARS) persist the
        # full synthesised table so probes can prove a hit is for the
        # same function; exact keys don't need the extra bytes.
        table=table if n > MAX_NPN_VARS else None,
    )


def _fault_tolerance_report(lattice, spec: FaultToleranceSpec,
                            job: SynthesisJob) -> FaultToleranceReport:
    """Deterministic reliability post-processing for one job.

    The RNG stream is derived from the spec's seed plus the *job content*
    (not its batch position), so the same benchmark under the same seed
    sees the same fabric regardless of which other jobs ran alongside it.
    """
    from ..reliability.defects import random_defect_map
    from ..reliability.lattice_mapping import map_lattice_random
    from ..reliability.redundancy import make_tmr

    mapped = False
    trials = 0
    exploited = 0
    if spec.defect_density > 0:
        content = zlib.crc32(f"{job.n}/{job.bits}/{job.label}".encode())
        rng = random.Random((spec.seed << 32) ^ content)
        fabric_rows = max(spec.fabric_rows, lattice.rows)
        fabric_cols = max(spec.fabric_cols, lattice.cols)
        defect_map = random_defect_map(fabric_rows, fabric_cols,
                                       spec.defect_density, rng)
        result = map_lattice_random(lattice, defect_map, rng,
                                    max_trials=spec.mapping_trials)
        mapped = result.success
        trials = result.trials
        exploited = result.exploited_defects
    tmr_area = make_tmr(lattice).area if spec.redundancy == "tmr" else 0
    return FaultToleranceReport(
        mapped=mapped,
        mapping_trials=trials,
        exploited_defects=exploited,
        tmr_area=tmr_area,
    )


class BatchEngine:
    """Parallel batch synthesis with a persistent NPN-canonical cache.

    Args:
        cache_path: SQLite file the cache rows live in (``":memory:"`` for
            an ephemeral per-engine cache), or an open
            :class:`~repro.engine.store.JsonStore` the engine borrows and
            leaves open.
        processes: worker count for the sharded pool; ``1`` runs serially
            and ``None`` picks :func:`~repro.engine.pool.default_processes`.
    """

    def __init__(self, cache_path: str | JsonStore = ":memory:",
                 processes: int | None = 1):
        self._opened = contextlib.ExitStack()
        self.store = (self._opened.enter_context(JsonStore(cache_path))
                      if isinstance(cache_path, str) else cache_path)
        self.processes = default_processes() if processes is None else processes
        self.stats = EngineStats()
        self._run_lock = threading.RLock()
        registry = metrics.registry()
        self._m_jobs = registry.counter(
            "engine_jobs_total", "synthesis jobs processed")
        self._m_hits = registry.counter(
            "engine_cache_hits_total", "jobs answered from the NPN cache")
        self._m_misses = registry.counter(
            "engine_cache_misses_total", "jobs that needed a portfolio race")
        self._m_deduped = registry.counter(
            "engine_dedup_total", "in-batch duplicate jobs folded away")
        self._m_races = registry.counter(
            "engine_races_total", "portfolio races executed")
        self._m_batch_seconds = registry.histogram(
            "engine_batch_seconds", "wall-clock of whole engine.run batches")

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._opened.close()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the batch pipeline ----------------------------------------------
    def run(self, jobs: Sequence[SynthesisJob] | Iterable[SynthesisJob]
            ) -> list[JobResult]:
        """Synthesize every job, reusing the cache and the pool.

        Safe to call from several threads: whole batches are serialised
        (they already shard internally over the process pool), and the
        caller's thread keeps its ambient trace, so engine spans land in
        the calling request's trace.
        """
        with self._run_lock:
            return self._run(list(jobs))

    def _run(self, jobs: list[SynthesisJob]) -> list[JobResult]:
        with tracing.span("engine.run_batch", jobs=len(jobs)):
            return self._run_spanned(jobs)

    def _run_spanned(self, jobs: list[SynthesisJob]) -> list[JobResult]:
        start = time.perf_counter()

        # Phase 1: canonicalise + probe the cache.  The NPN canonical key
        # is shared by a function and its complement-reachable classmates,
        # so the *polarity* of the witness (its output negation) is part of
        # the slot: each class stores up to two lattices, one per polarity.
        # Each job's dense table is built once, here.
        tables = [job.table for job in jobs]
        transforms: list[NpnTransform] = []
        probed: list[CachedResult | None] = []
        tasks: dict[str, tuple[str, int, int, tuple[str, ...]]] = {}
        task_keys: list[str] = []
        deduped = 0
        with tracing.span("engine.cache_probe", jobs=len(jobs)):
            for job, table in zip(jobs, tables):
                canon, transform = canonical_cache_key(table)
                transforms.append(transform)
                task_key = cache_key(job.n, canon, transform.output_negate,
                                     fingerprint(job.strategies))
                cached = result_from_json(job.n, self.store.get(task_key))
                if cached is not None and cached.table is not None:
                    # Semi-canonical keys hash the full representative, so
                    # a collision cannot happen in practice — but the
                    # stored table makes the guarantee unconditional: a
                    # mismatched entry reads as a miss, never a wrong hit.
                    if cached.table != canonical_polarity_table(table,
                                                               transform):
                        cached = None
                probed.append(cached)
                task_keys.append(task_key)
                if cached is None:
                    if task_key in tasks:
                        deduped += 1
                    else:
                        g_table = canonical_polarity_table(table, transform)
                        tasks[task_key] = (task_key, job.n, g_table.bits,
                                          job.strategies)

        # Phase 2+3: race the unique misses across the pool, then persist
        # the whole wave in one transaction.
        with tracing.span("engine.race", tasks=len(tasks)):
            raced = dict(map_sharded(_race_task, list(tasks.values()),
                                     self.processes))
        for result in raced.values():
            self._observe_race(result)
        if raced:
            self.store.put_many([(task_key, result_to_json(result))
                                 for task_key, result in raced.items()])

        # Phase 4: rewrite each canonical answer back to its job.
        with tracing.span("engine.rewrite", jobs=len(jobs)):
            results, healed = self._rewrite_phase(jobs, tables, transforms,
                                                  probed, raced, task_keys)

        # Accounting: one atomic fold into the shared stats, mirrored to
        # the metrics registry (counters are independently atomic; scrape
        # consistency across them is best-effort by design).
        elapsed = time.perf_counter() - start
        hits = sum(1 for result in results if result.cache_hit)
        wins: dict[str, int] = {}
        for result in results:
            wins[result.strategy] = wins.get(result.strategy, 0) + 1
        self.stats.record_run(len(jobs), hits, len(tasks) + len(healed),
                              deduped, elapsed, wins)
        self._m_jobs.inc(len(jobs))
        self._m_hits.inc(hits)
        self._m_misses.inc(len(jobs) - hits)
        self._m_races.inc(len(tasks) + len(healed))
        self._m_deduped.inc(deduped)
        self._m_batch_seconds.observe(elapsed)
        registry = metrics.registry()
        for name, count in wins.items():
            registry.counter(
                "engine_strategy_wins_total",
                "jobs whose winning lattice came from this strategy",
                labels={"strategy": name},
            ).inc(count)
        log_event(_LOG, "batch complete", jobs=len(jobs), cache_hits=hits,
                  races=len(tasks) + len(healed), deduped=deduped,
                  seconds=round(elapsed, 6))
        return results

    def _observe_race(self, result: CachedResult) -> None:
        """Record per-strategy latency/outcome metrics for one fresh race.

        Only freshly raced results flow through here — cache hits replay
        persisted :class:`StrategyOutcome` rows whose elapsed times were
        already observed when they were first computed.
        """
        registry = metrics.registry()
        for outcome in result.outcomes:
            registry.counter(
                "engine_strategy_outcomes_total",
                "portfolio strategy attempts by terminal status",
                labels={"strategy": outcome.strategy,
                        "status": outcome.status},
            ).inc()
            registry.histogram(
                "engine_strategy_seconds",
                "per-strategy synthesis latency inside portfolio races",
                labels={"strategy": outcome.strategy},
            ).observe(outcome.elapsed)

    def _rewrite_phase(
        self,
        jobs: list[SynthesisJob],
        tables: list[TruthTable],
        transforms: list[NpnTransform],
        probed: list[CachedResult | None],
        raced: dict[str, CachedResult],
        task_keys: list[str],
    ) -> tuple[list[JobResult], dict[str, CachedResult]]:
        results: list[JobResult] = []
        healed: dict[str, CachedResult] = {}
        for index, (job, table, transform, cached) in enumerate(
                zip(jobs, tables, transforms, probed)):
            job_start = time.perf_counter()
            hit = cached is not None
            if cached is None:
                cached = raced.get(task_keys[index])
            if cached is None:  # pragma: no cover - phase 2 guarantees presence
                raise RuntimeError(f"cache lost the result for {job.label}")
            lattice = transform_lattice_from_canonical(cached.lattice,
                                                       transform)
            if not implements_table(lattice, table):
                if not hit:
                    raise RuntimeError(
                        f"freshly-raced lattice for {job.label!r} failed "
                        "the witness-rewrite verification (engine bug)")
                # A corrupted persistent entry costs time, never
                # correctness: re-race this class and overwrite the row.
                cached = healed.get(task_keys[index])
                if cached is None:
                    g_table = canonical_polarity_table(table, transform)
                    _, cached = _race_task(
                        (task_keys[index], job.n, g_table.bits,
                         job.strategies))
                    self.store.put(task_keys[index], result_to_json(cached))
                    healed[task_keys[index]] = cached
                    self._observe_race(cached)
                hit = False
                lattice = transform_lattice_from_canonical(cached.lattice,
                                                           transform)
                if not implements_table(lattice, table):  # pragma: no cover
                    raise RuntimeError(
                        f"re-raced lattice for {job.label!r} still fails "
                        "verification (engine bug)")
            report = None
            if job.fault_tolerance is not None:
                report = _fault_tolerance_report(lattice, job.fault_tolerance,
                                                 job)
            results.append(JobResult(
                label=job.label,
                n=job.n,
                strategy=cached.strategy,
                lattice=lattice,
                cache_hit=hit,
                elapsed=time.perf_counter() - job_start,
                outcomes=cached.outcomes,
                fault_tolerance=report,
            ))

        return results, healed

    def report(self) -> str:
        """Human-readable throughput / cache summary."""
        mode = "serial" if self.processes <= 1 else f"{self.processes} workers"
        return (f"BatchEngine [{mode}, cache={self.store.path}, "
                f"{self.store.count(CACHE_NAMESPACE)} entries]\n"
                + self.stats.render())
