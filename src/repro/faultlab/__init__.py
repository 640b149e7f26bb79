"""Vectorized Monte-Carlo fault-tolerance campaigns (Section IV at scale).

:mod:`repro.reliability` models one chip at a time with scalar RNG loops;
this package turns the paper's Section IV experiments into *campaigns* —
declarative sweeps over crossbar size, defect density, defect model and
extraction strategy, evaluated as NumPy kernels over whole trial
ensembles and sharded across the :mod:`repro.engine` worker pool with
estimates persisted in the engine's JSON store.

API -> paper map:

* :mod:`repro.faultlab.maps` — batched defect-map ensembles and their
  Bernoulli / clustered generators (Section IV defect regimes; the local
  density variation motivating hybrid BISM and Fig. 6's per-chip flow).
  Both draw in trial chunks under
  :data:`~repro.reliability.faults.CHUNK_ELEMENTS`, consuming the
  generator exactly as one dense draw would; the clustered one keeps only
  its live attempts, so its work past the draws grows with them;
* :mod:`repro.faultlab.kernels` — batched clean-subarray extraction
  (Fig. 6 / Section IV-C): the greedy kernel, validated against its
  scalar :mod:`repro.reliability` reference, and the exact search;
* :mod:`repro.faultlab.campaign` — ``CampaignSpec`` grids, the sharded
  runner and persisted ``PointEstimate`` histograms (Fig. 6b recovery
  curves and the Section IV yield story, at ensemble scale);
* :mod:`repro.faultlab.report` — yield curves with Wilson intervals and
  cross-checks against the analytic
  :mod:`repro.reliability.yield_model` bounds.

Quickstart::

    from repro.faultlab import CampaignSpec, run_campaign

    spec = CampaignSpec(n_values=(32,), k_values=(24, 28, 32),
                        densities=(0.01, 0.05, 0.1), trials=1000)
    result = run_campaign(spec, store="campaigns.sqlite", processes=4)
    print(result.render())

The same sweep is available from the shell as ``nanoxbar faultsim``.
"""

from .campaign import (
    MAX_EXACT_N,
    MODELS,
    STRATEGIES,
    CampaignPoint,
    CampaignResult,
    CampaignSpec,
    PointEstimate,
    iter_campaign,
    run_campaign,
)
from .kernels import (
    greedy_clean_subarray_batch,
    recovered_k_batch,
    recovered_k_exact_batch,
)
from .maps import (
    OK,
    STUCK_CLOSED,
    STUCK_OPEN,
    DefectBatch,
    bernoulli_defect_batch,
    clustered_defect_batch,
)
from .report import analytic_crosschecks, render_campaign, wilson_interval

__all__ = [
    "CampaignPoint",
    "CampaignResult",
    "CampaignSpec",
    "DefectBatch",
    "MAX_EXACT_N",
    "MODELS",
    "OK",
    "PointEstimate",
    "STRATEGIES",
    "STUCK_CLOSED",
    "STUCK_OPEN",
    "analytic_crosschecks",
    "bernoulli_defect_batch",
    "clustered_defect_batch",
    "greedy_clean_subarray_batch",
    "iter_campaign",
    "recovered_k_batch",
    "recovered_k_exact_batch",
    "render_campaign",
    "run_campaign",
    "wilson_interval",
]
