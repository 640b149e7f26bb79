"""Declarative variation-aware Monte-Carlo delay campaigns (Section IV).

A *variation campaign* reproduces the paper's Section IV claim —
"variation awareness ensures predictability and performance" — at
ensemble scale: for each variation strength ``sigma`` it samples a whole
``(trials, N, M)`` lognormal resistance ensemble in one draw, selects the
application lines both variation-aware and obliviously for every trial at
once, and computes every trial's critical delay (worst best-path delay
over the on-set) through the batched Bellman-Ford kernel of
:mod:`repro.xbareval.delay`:

* :class:`VariationCampaignSpec` — the declarative grid (lattice, sigmas,
  crossbar size, trial count, seed);
* :class:`VariationCampaignPoint` — one sampled ensemble (one sigma; the
  aware and oblivious policies share the ensemble, so they are comparable
  trial-by-trial);
* :func:`iter_variation_campaign` — the family's batch task and delay
  fold on the shared :class:`repro.engine.campaign.PointRunner`: it
  persists each sigma's delay vectors in the engine's
  :class:`~repro.engine.store.JsonStore` and **yields** the
  :class:`VariationPointEstimate` as soon as the sigma completes;
* :func:`run_variation_campaign` — drains the iterator into an aggregate
  :class:`VariationCampaignResult`.

Determinism: the same contract as :mod:`repro.faultlab.campaign` — each
point's RNG root is a ``SeedSequence`` over the campaign seed plus a
*content* hash of the point (lattice sites included, grid position never),
and batch streams are spawned from that root.  A seeded campaign is
therefore bit-reproducible between serial and pooled execution, across
sigma reorderings, and across cache hits/misses.

The scalar reference loop stays in
:func:`repro.reliability.variation.variation_sweep`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..boolean.cube import Literal
from ..crossbar.lattice import Lattice
from ..engine.campaign import (
    CampaignRun,
    PointRunner,
    check_cost,
    check_distinct,
    check_fields,
)
from ..engine.jobs import MAX_FABRIC_SIDE
from ..engine.pool import batch_sizes
from ..engine.store import JsonStore
from ..xbareval.delay import onset_critical_delay_batch
from .ensembles import (
    lognormal_variation_batch,
    oblivious_selection_batch,
    variation_aware_selection_batch,
)

#: Bump when the sampling semantics change (invalidates persisted points).
_STORE_VERSION = "v1"


def lattice_content_hash(lattice: Lattice) -> str:
    """Position-free content address of a lattice's sites and arity.

    Two equal lattices hash equally regardless of how they were built;
    the campaign store keys and ``SeedSequence`` entropies derive from
    this, never from object identity.
    """
    tokens = []
    for row in lattice.sites:
        for site in row:
            if isinstance(site, Literal):
                tokens.append(f"{site.var}{'+' if site.positive else '-'}")
            else:
                tokens.append("1" if site else "0")
    text = f"{lattice.n};{lattice.rows}x{lattice.cols};{','.join(tokens)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class VariationCampaignPoint:
    """One sampled ensemble: a single sigma of the campaign grid."""

    lattice_hash: str
    app_rows: int
    app_cols: int
    sigma: float
    crossbar_rows: int
    crossbar_cols: int
    trials: int
    seed: int
    nominal: float
    batch_size: int

    def key(self) -> str:
        """Persistent-store key (content-addressed, position-free).

        ``batch_size`` is part of the key because the spawned batch
        streams — and therefore the sampled ensemble — depend on the
        batch layout; two layouts are two (equally valid) estimates.
        """
        return (f"varsim/{_STORE_VERSION}/l{self.lattice_hash}"
                f"/a{self.app_rows}x{self.app_cols}"
                f"/x{self.crossbar_rows}x{self.crossbar_cols}"
                f"/sig{self.sigma!r}/t{self.trials}/s{self.seed}"
                f"/nom{self.nominal!r}/b{self.batch_size}")

    def entropy(self) -> tuple[int, int]:
        """``SeedSequence`` entropy derived from content, not position."""
        digest = hashlib.sha256(self.key().encode()).digest()
        return (self.seed, int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class VariationCampaignSpec:
    """Declarative sweep grid for one variation campaign run.

    Also the varsweep request schema
    (:func:`repro.engine.campaign.build_spec`).
    """

    lattice: Lattice
    sigmas: tuple[float, ...] = field(metadata={"axis": "sigma"})
    crossbar_rows: int
    crossbar_cols: int
    trials: int = 500
    seed: int = 0
    nominal: float = 1.0
    batch_size: int = 128

    def __post_init__(self) -> None:
        check_fields(self)
        check_distinct(self, "sigmas")
        if not self.sigmas:
            raise ValueError("campaign grid needs at least one sigma")
        if not all(math.isfinite(s) and s >= 0 for s in self.sigmas):
            raise ValueError("sigmas must be finite and non-negative")
        if (self.crossbar_rows < self.lattice.rows
                or self.crossbar_cols < self.lattice.cols):
            raise ValueError("crossbar smaller than the lattice")
        for name in ("crossbar_rows", "crossbar_cols"):
            if getattr(self, name) > MAX_FABRIC_SIDE:
                raise ValueError(f"{name} must be at most {MAX_FABRIC_SIDE}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not (math.isfinite(self.nominal) and self.nominal > 0):
            raise ValueError("nominal resistance must be finite and positive")
        check_cost(self.trials, self.batch_size,
                   [self.crossbar_rows * self.crossbar_cols]
                   * len(self.sigmas))

    def points(self) -> list[VariationCampaignPoint]:
        """Grid expansion: one point per sigma."""
        content = lattice_content_hash(self.lattice)
        return [
            VariationCampaignPoint(
                content, self.lattice.rows, self.lattice.cols, sigma,
                self.crossbar_rows, self.crossbar_cols, self.trials,
                self.seed, self.nominal, self.batch_size)
            for sigma in self.sigmas
        ]


@dataclass(frozen=True)
class VariationPointEstimate:
    """Aggregated Monte-Carlo answer for one campaign point.

    The full per-trial delay vectors are kept (and persisted): summary
    statistics are derived views, so cached and fresh estimates are
    indistinguishable and new quantiles never invalidate the store.
    """

    point: VariationCampaignPoint
    aware_delays: tuple[float, ...]
    oblivious_delays: tuple[float, ...]
    cache_hit: bool

    @property
    def trials(self) -> int:
        return len(self.aware_delays)

    @property
    def aware_mean(self) -> float:
        return float(np.mean(self.aware_delays))

    @property
    def aware_p95(self) -> float:
        return float(np.percentile(self.aware_delays, 95))

    @property
    def oblivious_mean(self) -> float:
        return float(np.mean(self.oblivious_delays))

    @property
    def oblivious_p95(self) -> float:
        return float(np.percentile(self.oblivious_delays, 95))

    @property
    def mean_improvement(self) -> float:
        """Relative mean-delay gain of awareness over oblivious placement."""
        if self.oblivious_mean == 0:
            return 0.0
        return 1.0 - self.aware_mean / self.oblivious_mean

    @property
    def p95_improvement(self) -> float:
        """Relative tail-delay gain (the "predictability" claim)."""
        if self.oblivious_p95 == 0:
            return 0.0
        return 1.0 - self.aware_p95 / self.oblivious_p95


class VariationCampaignResult(CampaignRun):
    """Everything one ``run_variation_campaign`` call produced."""

    def rows(self) -> list[dict]:
        """Delay-distribution rows, one per sigma (the E-VAR table shape)."""
        return [{
            "sigma": est.point.sigma,
            "trials": est.trials,
            "aware_mean": est.aware_mean,
            "aware_p95": est.aware_p95,
            "oblivious_mean": est.oblivious_mean,
            "oblivious_p95": est.oblivious_p95,
            "mean_gain": est.mean_improvement,
            "p95_gain": est.p95_improvement,
        } for est in self.estimates]

    def render(self) -> str:
        from .report import render_variation_campaign

        return render_variation_campaign(self)


# ----------------------------------------------------------------------
# The family's pieces, run by the shared point runner
# ----------------------------------------------------------------------
def _point_batch_task(task: tuple) -> tuple[tuple[float, ...],
                                            tuple[float, ...]]:
    """Worker body: sample one trial batch, return its delay vectors.

    Module-level and pure (a function of the task tuple alone) so it
    pickles across the process pool and keeps serial == pooled bit-exact.
    RNG consumption order is fixed: one lognormal ensemble draw, then the
    oblivious row and column subset draws.
    """
    (lattice, minterms, sigma, crossbar_rows, crossbar_cols, nominal,
     batch_trials, seed_seq) = task
    gen = np.random.default_rng(seed_seq)
    batch = lognormal_variation_batch(batch_trials, crossbar_rows,
                                      crossbar_cols, sigma, gen, nominal)
    rows_aware, cols_aware = variation_aware_selection_batch(
        batch.resistance, lattice.rows, lattice.cols)
    rows_obl = oblivious_selection_batch(batch_trials, crossbar_rows,
                                         lattice.rows, gen)
    cols_obl = oblivious_selection_batch(batch_trials, crossbar_cols,
                                         lattice.cols, gen)
    minterm_array = np.array(minterms, dtype=np.int64)
    # One stacked kernel call covers both policies (aware trials first).
    submaps = np.concatenate([batch.submaps(rows_aware, cols_aware),
                              batch.submaps(rows_obl, cols_obl)])
    delays = onset_critical_delay_batch(lattice, minterm_array, submaps)
    return (tuple(delays[:batch_trials].tolist()),
            tuple(delays[batch_trials:].tolist()))


def _point_tasks(spec: VariationCampaignSpec,
                 point: VariationCampaignPoint) -> list[tuple]:
    """One worker task per seeded trial batch of this sigma point."""
    minterms = tuple(spec.lattice.to_truth_table().minterms())
    if not minterms:
        raise ValueError(
            "variation campaign is undefined for a constant-0 lattice: "
            "critical delay has no conducting on-set input")
    root = np.random.SeedSequence(point.entropy())
    sizes = batch_sizes(point.trials, point.batch_size)
    return [
        (spec.lattice, minterms, point.sigma, point.crossbar_rows,
         point.crossbar_cols, point.nominal, batch_trials, child)
        for child, batch_trials in zip(root.spawn(len(sizes)), sizes)
    ]


def _fold(point: VariationCampaignPoint,
          batches: list) -> VariationPointEstimate:
    """Concatenate the batches' delay vectors into the point's estimate."""
    aware = tuple(d for batch_aware, _ in batches for d in batch_aware)
    oblivious = tuple(d for _, batch_obl in batches for d in batch_obl)
    return VariationPointEstimate(point, aware, oblivious, cache_hit=False)


def _valid_payload(payload, point: VariationCampaignPoint) -> bool:
    if not isinstance(payload, dict):
        return False
    aware = payload.get("aware")
    oblivious = payload.get("oblivious")
    return all(
        isinstance(delays, list)
        and len(delays) == point.trials
        and all(isinstance(d, float) and math.isfinite(d) and d > 0
                for d in delays)
        for delays in (aware, oblivious)
    )


def payload_for(estimate: VariationPointEstimate) -> dict:
    """The store payload for one estimate (shared by campaigns and grid).

    Grid rows persist exactly this shape under ``point.key()``, so a grid
    sweep and ``run_variation_campaign`` dedup against each other's
    results.
    """
    return {
        "aware": list(estimate.aware_delays),
        "oblivious": list(estimate.oblivious_delays),
    }


def estimate_from_payload(point: VariationCampaignPoint, payload
                          ) -> VariationPointEstimate | None:
    """Rehydrate a persisted payload (a cache hit), or ``None`` if it fails
    validation."""
    if not _valid_payload(payload, point):
        return None
    return VariationPointEstimate(point, tuple(payload["aware"]),
                                  tuple(payload["oblivious"]),
                                  cache_hit=True)


def estimate_record(estimate: VariationPointEstimate) -> dict:
    """One sigma-point answer as the batch server's JSON record."""
    return {
        "sigma": estimate.point.sigma,
        "trials": estimate.trials,
        "aware_delays": list(estimate.aware_delays),
        "oblivious_delays": list(estimate.oblivious_delays),
        "aware_mean": estimate.aware_mean,
        "oblivious_mean": estimate.oblivious_mean,
        "cache_hit": estimate.cache_hit,
    }


_RUNNER = PointRunner("varsweep", "varsim", _point_batch_task, _fold,
                      payload_for, estimate_from_payload)


def compute_point(spec: VariationCampaignSpec,
                  point: VariationCampaignPoint,
                  processes: int = 1) -> VariationPointEstimate:
    """Sample one sigma point from scratch (no store probe, no persist).

    Bit-identical wherever and however often it runs (content seeds).
    ``spec`` carries the lattice (the point only stores its content hash).
    """
    (estimate,) = _RUNNER.iter_points([point], partial(_point_tasks, spec),
                                      None, processes)
    return estimate


def iter_variation_campaign(spec: VariationCampaignSpec,
                            store: JsonStore | str | None = None,
                            processes: int = 1):
    """Yield one :class:`VariationPointEstimate` per sigma as it completes.

    As :func:`repro.faultlab.campaign.iter_campaign`; a constant-0 lattice
    raises :class:`ValueError` (critical delay needs a non-empty on-set).
    """
    return _RUNNER.iter_points(spec.points(), partial(_point_tasks, spec),
                               store, processes)


def run_variation_campaign(spec: VariationCampaignSpec,
                           store: JsonStore | str | None = None,
                           processes: int = 1) -> VariationCampaignResult:
    """Run a whole campaign through :func:`iter_variation_campaign`."""
    return VariationCampaignResult.drain(
        spec, iter_variation_campaign(spec, store, processes))
