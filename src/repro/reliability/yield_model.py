"""Manufacturing yield models (Section IV: "improve the manufacturing
yield" via defect tolerance).

Analytic building blocks for iid Bernoulli defects plus the classical
Poisson area-defect model, and Monte-Carlo estimators that the benchmarks
cross-check against them:

* probability a *fixed* ``r x c`` placement is clean;
* first-moment (union-bound) estimate of the number of clean ``k x k``
  subarrays in an ``N x N`` crossbar;
* Monte-Carlo yield of "chip recovers a clean ``k x k``" — the quantity
  the defect-unaware flow (Fig. 6b) improves by choosing ``k < N``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .defect_unaware import _greedy_ks


def clean_placement_probability(rows: int, cols: int, density: float) -> float:
    """P(fixed rows x cols placement has zero defects) = (1-p)^(r*c)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    return (1.0 - density) ** (rows * cols)


def expected_clean_squares(n: int, k: int, density: float) -> float:
    """First moment: E[#clean k x k subarrays] = C(n,k)^2 (1-p)^(k^2).

    An upper-bound proxy for yield via Markov: P(exists) <= E[count]; it is
    tight in the rare-clean regime and the benches show where it diverges.
    """
    if k > n:
        return 0.0
    return math.comb(n, k) ** 2 * clean_placement_probability(k, k, density)


@dataclass(frozen=True)
class YieldEstimate:
    """Monte-Carlo yield for one (N, k, density) point."""

    n: int
    k: int
    density: float
    trials: int
    successes: int

    @property
    def yield_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def monte_carlo_yield(n: int, k: int, density: float, trials: int,
                      rng: random.Random) -> YieldEstimate:
    """P(an N x N crossbar contains a clean k x k subarray), estimated.

    Each trial draws one ``random_defect_map``; the greedy extractor, run
    on the trials in batches, makes the estimate a *lower* bound (faultlab's
    ``"exact"`` strategy gives the branch-and-bound value for small N).
    """
    found = _greedy_ks(n, density, trials, rng)
    successes = sum(1 for side in found if side >= k)
    return YieldEstimate(n, k, density, trials, successes)


def yield_sweep(n: int, k_values: Sequence[int], densities: Sequence[float],
                trials: int, rng: random.Random) -> list[dict]:
    """Yield table across k and density (analytic bound + Monte Carlo)."""
    rows = []
    for density in densities:
        for k in k_values:
            estimate = monte_carlo_yield(n, k, density, trials, rng)
            rows.append({
                "N": n,
                "k": k,
                "density": density,
                "monte_carlo_yield": estimate.yield_rate,
                "fixed_placement_prob": clean_placement_probability(k, k, density),
                "expected_clean_count": expected_clean_squares(n, k, density),
            })
    return rows
