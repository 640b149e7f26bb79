"""Declarative Monte-Carlo fault-tolerance campaigns (Section IV, Figs. 5-6).

A *campaign* sweeps the paper's Section IV questions — "how large a clean
``k x k`` does an ``N x N`` crossbar recover, and with what probability?"
(Fig. 6 recovery, manufacturing yield) — over a grid of crossbar sizes,
defect densities, defect models and extraction strategies, with thousands
of sampled chips per grid point:

* :class:`CampaignSpec` — the declarative grid (``N``, ``k``, density,
  model, strategy, trial count, seed);
* :class:`CampaignPoint` — one sampled ensemble (every ``k`` threshold is
  answered from the same ensemble's recovered-``k`` histogram);
* :func:`iter_campaign` — the family's batch task and histogram fold on
  the shared :class:`repro.engine.campaign.PointRunner`: it persists each
  point's histogram in the engine's :class:`~repro.engine.store.JsonStore`
  keyed by ``(model, N, density, strategy, trials, seed, ...)`` and
  **yields** the :class:`PointEstimate` as soon as the point completes —
  the batch server streams these to clients incrementally;
* :func:`run_campaign` — drains the iterator into an aggregate
  :class:`CampaignResult`.

Determinism: each point's RNG root is a ``SeedSequence`` over the campaign
seed plus a *content* hash of the point (never its grid position), and
batch streams are spawned from that root — so a seeded campaign is
bit-reproducible between serial and pooled execution, across grid
reorderings, and across cache hits/misses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..engine.campaign import (
    CampaignRun,
    PointRunner,
    build_spec,
    check_cost,
    check_distinct,
    check_fields,
)
from ..engine.jobs import MAX_FABRIC_SIDE
from ..engine.pool import batch_sizes
from ..engine.store import JsonStore
from ..reliability.defects import STUCK_OPEN_FRACTION
from .kernels import recovered_k_batch, recovered_k_exact_batch
from .maps import bernoulli_defect_batch, clustered_defect_batch

#: Supported defect models and clean-subarray extraction strategies.
MODELS = ("bernoulli", "clustered")
STRATEGIES = ("greedy", "exact")

#: Largest N the "exact" strategy accepts (the scalar branch-and-bound's
#: documented validation regime; see ``max_clean_square_exact``).
MAX_EXACT_N = 14

#: Bump when the sampling semantics change (invalidates persisted points).
_STORE_VERSION = "v1"


@dataclass(frozen=True)
class CampaignPoint:
    """One sampled ensemble: a (model, N, density, strategy) grid point."""

    model: str
    n: int
    density: float
    strategy: str
    trials: int
    seed: int
    stuck_open_fraction: float
    batch_size: int

    def key(self) -> str:
        """Persistent-store key (content-addressed, position-free).

        ``batch_size`` is part of the key because the spawned batch
        streams — and therefore the sampled ensemble — depend on the batch
        layout; two layouts are two (equally valid) estimates.
        """
        return (f"faultlab/{_STORE_VERSION}/{self.model}/n{self.n}"
                f"/d{self.density!r}/{self.strategy}/t{self.trials}"
                f"/s{self.seed}/sof{self.stuck_open_fraction!r}"
                f"/b{self.batch_size}")

    def sampling_key(self) -> str:
        """The part of the key that determines the sampled ensemble.

        The extraction strategy is an *analysis* choice, not a sampling
        one — greedy and exact runs of the same point therefore see
        identical defect maps and are comparable trial-by-trial.
        """
        return (f"faultlab/{_STORE_VERSION}/{self.model}/n{self.n}"
                f"/d{self.density!r}/t{self.trials}/s{self.seed}"
                f"/sof{self.stuck_open_fraction!r}/b{self.batch_size}")

    def entropy(self) -> tuple[int, int]:
        """``SeedSequence`` entropy derived from content, not position."""
        digest = hashlib.sha256(self.sampling_key().encode()).digest()
        return (self.seed, int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative sweep grid for one campaign run.

    Also the faultsim request schema (:func:`spec_from_params`): ``axis``
    names a list field's one value in a grid point.
    """

    n_values: tuple[int, ...] = field(metadata={"axis": "n"})
    k_values: tuple[int, ...]
    densities: tuple[float, ...] = field(metadata={"axis": "density"})
    models: tuple[str, ...] = field(default=("bernoulli",),
                                    metadata={"axis": "model"})
    strategies: tuple[str, ...] = field(default=("greedy",),
                                        metadata={"axis": "strategy"})
    trials: int = 1000
    seed: int = 0
    stuck_open_fraction: float = STUCK_OPEN_FRACTION
    batch_size: int = 256

    def __post_init__(self) -> None:
        check_fields(self)
        check_distinct(self, "n_values", "k_values", "densities", "models",
                       "strategies")
        if not self.n_values or not self.k_values or not self.densities:
            raise ValueError("campaign grid needs at least one N, k and "
                             "density")
        if any(not 1 <= n <= MAX_FABRIC_SIDE for n in self.n_values):
            raise ValueError(f"n_values must be in [1, {MAX_FABRIC_SIDE}]")
        if any(k < 0 for k in self.k_values):
            raise ValueError("k thresholds must be non-negative")
        if any(not 0.0 <= d <= 1.0 for d in self.densities):
            raise ValueError("densities must be in [0, 1]")
        for model in self.models:
            if model not in MODELS:
                raise ValueError(f"unknown defect model {model!r}")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
        if "exact" in self.strategies and max(self.n_values) > MAX_EXACT_N:
            # Beyond this the branch-and-bound extractor both explodes in
            # time and can silently fall back to a sub-optimal k when its
            # node budget trips — which would be persisted as "exact".
            raise ValueError(
                f"the 'exact' strategy is limited to N <= {MAX_EXACT_N} "
                "(the branch-and-bound validation regime); use 'greedy' "
                "for larger crossbars")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.stuck_open_fraction <= 1.0:
            raise ValueError("stuck_open_fraction must be in [0, 1]")
        sampled = (len(self.models) * len(self.densities)
                   * len(self.strategies))
        check_cost(self.trials, self.batch_size,
                   [n * n for n in self.n_values] * sampled)

    def points(self) -> list[CampaignPoint]:
        """Grid expansion; ``k`` is not sampled (thresholds share samples)."""
        return [
            CampaignPoint(model, n, density, strategy, self.trials,
                          self.seed, self.stuck_open_fraction,
                          self.batch_size)
            for model, n, density, strategy in product(
                self.models, self.n_values, self.densities, self.strategies)
        ]


@dataclass(frozen=True)
class PointEstimate:
    """Aggregated Monte-Carlo answer for one campaign point."""

    point: CampaignPoint
    #: ``k_histogram[k]`` = number of trials whose recovered clean square
    #: side was exactly ``k`` (length ``n + 1``).
    k_histogram: tuple[int, ...]
    cache_hit: bool

    @property
    def trials(self) -> int:
        return sum(self.k_histogram)

    def successes(self, k: int) -> int:
        """Trials that recovered a clean square of side >= ``k``."""
        if k <= 0:
            return self.trials
        return sum(self.k_histogram[k:])

    def yield_rate(self, k: int) -> float:
        return self.successes(k) / self.trials if self.trials else 0.0

    @property
    def mean_k(self) -> float:
        if not self.trials:
            return 0.0
        return sum(k * count for k, count in enumerate(self.k_histogram)) \
            / self.trials

    @property
    def min_k(self) -> int:
        for k, count in enumerate(self.k_histogram):
            if count:
                return k
        return 0

    @property
    def max_k(self) -> int:
        for k in range(len(self.k_histogram) - 1, -1, -1):
            if self.k_histogram[k]:
                return k
        return 0


class CampaignResult(CampaignRun):
    """Everything one ``run_campaign`` call produced."""

    def rows(self) -> list[dict]:
        """Yield-curve rows, one per (point, k) pair, with Wilson CIs."""
        from .report import wilson_interval

        rows = []
        for est in self.estimates:
            point = est.point
            for k in self.spec.k_values:
                successes = est.successes(k) if k <= point.n else 0
                low, high = wilson_interval(successes, est.trials)
                rows.append({
                    "model": point.model,
                    "N": point.n,
                    "k": k,
                    "density": point.density,
                    "strategy": point.strategy,
                    "trials": est.trials,
                    "successes": successes,
                    "yield": successes / est.trials if est.trials else 0.0,
                    "wilson_low": low,
                    "wilson_high": high,
                })
        return rows

    def recovery_rows(self) -> list[dict]:
        """Fig. 6b-style recovered-``k`` degradation rows, one per point."""
        return [{
            "model": est.point.model,
            "N": est.point.n,
            "density": est.point.density,
            "strategy": est.point.strategy,
            "trials": est.trials,
            "avg_k": est.mean_k,
            "k_over_n": est.mean_k / est.point.n,
            "min_k": est.min_k,
            "max_k": est.max_k,
        } for est in self.estimates]

    def render(self) -> str:
        from .report import render_campaign

        return render_campaign(self)


# ----------------------------------------------------------------------
# The family's pieces, run by the shared point runner
# ----------------------------------------------------------------------
def _point_batch_task(task: tuple) -> tuple[int, ...]:
    """Worker body: sample one trial batch, return its recovered-k histogram.

    Module-level and pure (a function of the task tuple alone) so it
    pickles across the process pool and keeps serial == pooled bit-exact.
    """
    model, n, density, strategy, stuck_open_fraction, batch_trials, seed_seq \
        = task
    gen = np.random.default_rng(seed_seq)
    if model == "bernoulli":
        batch = bernoulli_defect_batch(batch_trials, n, n, density, gen,
                                       stuck_open_fraction)
    else:
        batch = clustered_defect_batch(
            batch_trials, n, n, density, gen,
            stuck_open_fraction=stuck_open_fraction)
    if strategy == "greedy":
        ks = recovered_k_batch(batch.defective())
    else:
        ks = recovered_k_exact_batch(batch)
    return tuple(int(x) for x in np.bincount(ks, minlength=n + 1))


def _point_tasks(point: CampaignPoint) -> list[tuple]:
    """One worker task per seeded trial batch of this grid point."""
    root = np.random.SeedSequence(point.entropy())
    sizes = batch_sizes(point.trials, point.batch_size)
    return [
        (point.model, point.n, point.density, point.strategy,
         point.stuck_open_fraction, batch_trials, child)
        for child, batch_trials in zip(root.spawn(len(sizes)), sizes)
    ]


def _fold(point: CampaignPoint, histograms: list) -> PointEstimate:
    """Sum the batches' recovered-k histograms into the point's estimate."""
    total = np.sum(np.array(histograms, dtype=np.int64), axis=0)
    return PointEstimate(point, tuple(int(x) for x in total),
                         cache_hit=False)


def _valid_payload(payload, point: CampaignPoint) -> bool:
    if not isinstance(payload, dict):
        return False
    histogram = payload.get("k_histogram")
    return (isinstance(histogram, list)
            and len(histogram) == point.n + 1
            and all(isinstance(c, int) and c >= 0 for c in histogram)
            and sum(histogram) == point.trials)


def payload_for(estimate: PointEstimate) -> dict:
    """The store payload for one estimate (shared by campaigns and grid).

    Grid rows persist exactly this shape under ``point.key()``, so a grid
    sweep and ``run_campaign`` dedup against each other's results.
    """
    return {
        "k_histogram": list(estimate.k_histogram),
        "trials": estimate.point.trials,
    }


def estimate_from_payload(point: CampaignPoint, payload
                          ) -> PointEstimate | None:
    """Rehydrate a persisted payload (a cache hit), or ``None`` if it fails
    validation."""
    if not _valid_payload(payload, point):
        return None
    return PointEstimate(point, tuple(payload["k_histogram"]),
                         cache_hit=True)


def estimate_record(estimate: PointEstimate) -> dict:
    """One grid-point answer as the batch server's JSON record."""
    point = estimate.point
    return {
        "model": point.model,
        "n": point.n,
        "density": point.density,
        "strategy": point.strategy,
        "trials": estimate.trials,
        "k_histogram": list(estimate.k_histogram),
        "mean_k": estimate.mean_k,
        "cache_hit": estimate.cache_hit,
    }


_RUNNER = PointRunner("faultsim", "faultlab", _point_batch_task, _fold,
                      payload_for, estimate_from_payload)


def spec_from_params(params: dict, point: bool = False) -> CampaignSpec:
    """The faultsim parser (:func:`repro.engine.campaign.build_spec`).

    A grid point's ``k`` thresholds are ``(0,)``: they only read the
    sampled histogram, so they never change the point.
    """
    return build_spec(CampaignSpec, params, point=point,
                      given={"k_values": (0,)} if point else None)


def compute_point(point: CampaignPoint, processes: int = 1) -> PointEstimate:
    """Sample one grid point from scratch (no store probe, no persist).

    Bit-identical wherever and however often it runs (content seeds).
    """
    (estimate,) = _RUNNER.iter_points([point], _point_tasks, None, processes)
    return estimate


def iter_campaign(spec: CampaignSpec,
                  store: JsonStore | str | None = None,
                  processes: int = 1):
    """Yield one :class:`PointEstimate` per grid point as it completes.

    Points come in :meth:`CampaignSpec.points` order; ``store`` and
    ``processes`` are as in
    :meth:`~repro.engine.campaign.PointRunner.iter_points`.  Batch seeds
    are content-addressed, so streamed estimates are bit-identical to the
    aggregate runner's, serial or pooled.
    """
    return _RUNNER.iter_points(spec.points(), _point_tasks, store, processes)


def run_campaign(spec: CampaignSpec,
                 store: JsonStore | str | None = None,
                 processes: int = 1) -> CampaignResult:
    """Run a whole campaign through :func:`iter_campaign` and aggregate."""
    return CampaignResult.drain(spec, iter_campaign(spec, store, processes))
