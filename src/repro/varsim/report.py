"""Variation-campaign reporting: delay tables and sanity cross-checks.

Paper anchor: Section IV (variation tolerance) — the rendered table is the
ensemble-scale version of the E-VAR experiment: per sigma, the aware vs
oblivious mean and 95th-percentile delays plus the relative gains, with a
qualitative check that awareness never *hurts* (its selected sub-grid
minimises the row/column budgets the oblivious baseline draws from).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..eval.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .campaign import VariationCampaignResult


#: Relative tolerance of the aware-not-worse check.
AWARENESS_SLACK = 0.05


def awareness_crosschecks(result: "VariationCampaignResult") -> list[dict]:
    """Per-sigma qualitative checks of the Section IV claim.

    ``aware_not_worse``: the aware mean delay must not exceed the
    oblivious mean by more than ``AWARENESS_SLACK`` (relative) — awareness
    picks the minimum-budget lines, so with shared ensembles any violation beyond
    Monte-Carlo noise indicates a selection-kernel regression.
    """
    checks = []
    for row in result.rows():
        not_worse = (row["aware_mean"]
                     <= row["oblivious_mean"] * (1.0 + AWARENESS_SLACK))
        checks.append({
            "sigma": row["sigma"],
            "aware_mean": row["aware_mean"],
            "oblivious_mean": row["oblivious_mean"],
            "aware_not_worse": not_worse,
        })
    return checks


def render_variation_campaign(result: "VariationCampaignResult") -> str:
    """Human-readable campaign report: delay table, checks, run stats."""
    spec = result.spec
    lines = [
        f"varsim campaign: lattice {spec.lattice.rows}x{spec.lattice.cols} "
        f"(n={spec.lattice.n}) on a {spec.crossbar_rows}x"
        f"{spec.crossbar_cols} crossbar, {len(result.estimates)} sigmas x "
        f"{spec.trials} trials  (seed={spec.seed})",
        "",
        format_table(result.rows(),
                     title="aware vs oblivious mapping delay"),
    ]
    checks = awareness_crosschecks(result)
    failed = [c for c in checks if not c["aware_not_worse"]]
    lines.append("")
    if failed:
        lines.append(f"awareness cross-checks: {len(failed)} of "
                     f"{len(checks)} sigmas FAILED")
        lines.append(format_table(failed, title="failing sigmas"))
    else:
        lines.append(f"awareness cross-checks: all {len(checks)} sigmas "
                     "aware <= oblivious mean delay")
    lines.append("")
    lines.append(
        f"elapsed={result.elapsed:.2f}s  cache_hits={result.cache_hits}/"
        f"{len(result.estimates)} points  sampled={result.trials_sampled} "
        f"trials  throughput={result.throughput:.0f} trials/s")
    return "\n".join(lines)
