"""Campaign reporting: yield curves, Wilson intervals, analytic checks.

Paper anchor: Section IV (manufacturing yield) and Fig. 6 — the same
quantities :mod:`repro.reliability.yield_model` derives analytically for
iid defects are cross-checked here against every campaign estimate:

* :func:`wilson_interval` — Wilson score confidence interval for the
  per-point binomial yield estimate;
* :func:`analytic_crosschecks` — per yield row, the first-moment Markov
  bound :func:`~repro.reliability.yield_model.expected_clean_squares`
  (an upper bound on the true yield) and, for ``k == N``, the exact
  :func:`~repro.reliability.yield_model.clean_placement_probability`
  (the greedy extractor finds the full array clean iff it is defect-free,
  so the Monte-Carlo rate must track it);
* :func:`render_campaign` — aligned text tables for the CLI and benches.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..eval.tables import format_table
from ..reliability.yield_model import (
    clean_placement_probability,
    expected_clean_squares,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .campaign import CampaignResult

#: z of the 95% interval every campaign row reports.
_Z95 = 1.959963984540054

#: Absolute tolerance of the analytic cross-checks.
CROSSCHECK_SLACK = 0.02


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion.

    Unlike the normal approximation it stays inside ``[0, 1]`` and behaves
    at the extremes (0 or ``trials`` successes) — exactly the regimes
    yield campaigns live in (near-certain recovery, near-certain loss).
    """
    if trials < 0 or not 0 <= successes <= max(trials, 0):
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    centre = p + z2 / (2.0 * trials)
    spread = _Z95 * math.sqrt(p * (1.0 - p) / trials
                           + z2 / (4.0 * trials * trials))
    low = max(0.0, (centre - spread) / denom)
    high = min(1.0, (centre + spread) / denom)
    # The closed form hits the boundary exactly at the extremes; pin it
    # there so float noise never excludes the observed proportion.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


def analytic_crosschecks(result: "CampaignResult") -> list[dict]:
    """Check every Bernoulli-model yield row against the analytic models.

    Two checks per row (both trivially pass for non-Bernoulli models,
    where the iid analytics do not apply):

    * ``within_markov``: the Wilson lower bound must not exceed the
      first-moment bound ``min(1, E[#clean k x k])`` (Markov:
      ``P(exists) <= E[count]``) by more than ``CROSSCHECK_SLACK``;
    * ``matches_exact`` (only for ``k == N``): the Wilson interval,
      widened by ``CROSSCHECK_SLACK``, must contain ``(1-p)^(N^2)``.
    """
    checks = []
    for row in result.rows():
        applicable = row["model"] == "bernoulli"
        markov = min(1.0, expected_clean_squares(
            row["N"], row["k"], row["density"]))
        within_markov = (not applicable
                         or row["wilson_low"] <= markov + CROSSCHECK_SLACK)
        exact = None
        matches_exact = True
        if applicable and row["k"] == row["N"]:
            exact = clean_placement_probability(row["N"], row["N"],
                                                row["density"])
            matches_exact = (row["wilson_low"] - CROSSCHECK_SLACK <= exact
                             <= row["wilson_high"] + CROSSCHECK_SLACK)
        checks.append({
            "model": row["model"],
            "N": row["N"],
            "k": row["k"],
            "density": row["density"],
            "strategy": row["strategy"],
            "mc_yield": row["yield"],
            "markov_bound": markov,
            "within_markov": within_markov,
            "exact_prob": float("nan") if exact is None else exact,
            "matches_exact": matches_exact,
        })
    return checks


def render_campaign(result: "CampaignResult") -> str:
    """Human-readable campaign report: yield, recovery, checks, stats."""
    spec = result.spec
    lines = [
        f"faultlab campaign: {len(result.estimates)} points x "
        f"{spec.trials} trials  (models={'/'.join(spec.models)}, "
        f"strategies={'/'.join(spec.strategies)}, seed={spec.seed})",
        "",
        format_table(result.rows(), title="yield (Wilson 95% CI)"),
        "",
        format_table(result.recovery_rows(),
                     title="recovered clean-k degradation"),
    ]
    checks = analytic_crosschecks(result)
    failed = [c for c in checks
              if not (c["within_markov"] and c["matches_exact"])]
    if any(c["model"] == "bernoulli" for c in checks):
        lines.append("")
        if failed:
            lines.append(f"analytic cross-checks: {len(failed)} of "
                         f"{len(checks)} rows FAILED")
            lines.append(format_table(failed, title="failing rows"))
        else:
            lines.append(f"analytic cross-checks: all {len(checks)} rows "
                         "within the Markov/exact bounds")
    lines.append("")
    lines.append(
        f"elapsed={result.elapsed:.2f}s  cache_hits={result.cache_hits}/"
        f"{len(result.estimates)} points  sampled={result.trials_sampled} "
        f"trials  throughput={result.throughput:.0f} trials/s")
    return "\n".join(lines)
