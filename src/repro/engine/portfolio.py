"""Strategy portfolio: race the paper's lattice flows, keep the best area.

Four strategies compete per function:

* ``dual`` — the Altun-Riedel dual-based construction, folded;
* ``dreducible`` — the Section III-B.2 decomposition (when applicable);
* ``pcircuit`` — the best Section III-B.1 split over all (var, polarity);
* ``optimal`` — SAT-based exact synthesis, upper-bounded by the best
  heuristic result found so far.

Budgets are **deterministic effort budgets** — SAT conflict caps and size
gates — rather than wall-clock timeouts, so a portfolio run produces
bit-identical results in serial and pooled execution (the acceptance
contract of :class:`repro.engine.engine.BatchEngine`).  Elapsed times are
recorded per strategy for reporting only; they never influence the outcome.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from ..synthesis.compose import constant_lattice
from ..synthesis.dreducible import synthesize_dreducible
from ..synthesis.lattice_dual import synthesize_lattice_dual
from ..synthesis.lattice_optimal import synthesize_lattice_optimal
from ..synthesis.optimize import fold_lattice
from ..synthesis.pcircuit import best_pcircuit
from ..xbareval import implements_table
from .jobs import DEFAULT_STRATEGIES, StrategyOutcome


#: Deterministic effort gates of the race.  They keep the expensive flows
#: inside the regime the underlying papers report results in: exact SAT
#: synthesis explodes past a handful of variables or once the heuristic
#: upper bound is already large, and the P-circuit sweep costs ``2n`` block
#: synthesis rounds.  Every gate is part of :func:`fingerprint`, so raising
#: one never reuses a cache row raced under the old value.
OPTIMAL_CONFLICT_BUDGET = 20_000
OPTIMAL_MAX_VARS = 4
OPTIMAL_MAX_UPPER_AREA = 16
PCIRCUIT_MAX_VARS = 6
DREDUCIBLE_MAX_VARS = 8


def fingerprint(strategies: tuple[str, ...] = DEFAULT_STRATEGIES) -> str:
    """Stable text identifying (gates, strategy set) for cache keys."""
    return json.dumps({
        "dreducible_max_vars": DREDUCIBLE_MAX_VARS,
        "optimal_conflict_budget": OPTIMAL_CONFLICT_BUDGET,
        "optimal_max_upper_area": OPTIMAL_MAX_UPPER_AREA,
        "optimal_max_vars": OPTIMAL_MAX_VARS,
        "pcircuit_max_vars": PCIRCUIT_MAX_VARS,
        "strategies": list(strategies),
    }, sort_keys=True)


@dataclass(frozen=True)
class PortfolioResult:
    """The race's verdict for one function."""

    lattice: Lattice
    strategy: str
    outcomes: tuple[StrategyOutcome, ...]


def _run_dual(table: TruthTable, best: Lattice | None) -> Lattice | None:
    return fold_lattice(synthesize_lattice_dual(table), table)


def _run_dreducible(table: TruthTable, best: Lattice | None) -> Lattice | None:
    if table.n > DREDUCIBLE_MAX_VARS:
        raise _Skip(f"n={table.n} > dreducible_max_vars")
    result = synthesize_dreducible(table)
    if result is None:
        return None
    return result.lattice


def _run_pcircuit(table: TruthTable, best: Lattice | None) -> Lattice | None:
    if table.n < 2:
        raise _Skip("needs a variable to split on and one to keep")
    if table.n > PCIRCUIT_MAX_VARS:
        raise _Skip(f"n={table.n} > pcircuit_max_vars")
    lattice = best_pcircuit(table).lattice
    return fold_lattice(lattice, table)


def _run_optimal(table: TruthTable, best: Lattice | None) -> Lattice | None:
    if table.n > OPTIMAL_MAX_VARS:
        raise _Skip(f"n={table.n} > optimal_max_vars")
    if best is not None and best.area > OPTIMAL_MAX_UPPER_AREA:
        raise _Skip(f"upper bound {best.area} > optimal_max_upper_area")
    result = synthesize_lattice_optimal(
        table,
        conflict_budget=OPTIMAL_CONFLICT_BUDGET,
        upper_bound=best,
    )
    return result.lattice


class _Skip(Exception):
    """Raised by a strategy to record a deterministic effort-gate skip."""


_STRATEGY_RUNNERS = {
    "dual": _run_dual,
    "dreducible": _run_dreducible,
    "pcircuit": _run_pcircuit,
    "optimal": _run_optimal,
}


def known_strategies() -> tuple[str, ...]:
    return tuple(_STRATEGY_RUNNERS)


def run_portfolio(table: TruthTable,
                  strategies: tuple[str, ...] = DEFAULT_STRATEGIES
                  ) -> PortfolioResult:
    """Race the named strategies on ``table`` and keep the smallest lattice.

    Strategies run in the given order; a strictly smaller area displaces
    the incumbent, so ties go to the earlier strategy.  Every winning
    candidate is verified against ``table`` before it can win.  At least
    one strategy must succeed (``dual`` is total, so any portfolio
    containing it cannot come up empty).
    """
    unknown = [s for s in strategies if s not in _STRATEGY_RUNNERS]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; "
                         f"known: {sorted(_STRATEGY_RUNNERS)}")

    if table.is_constant():
        lattice = constant_lattice(table.n, bool(table.evaluate(0)))
        outcome = StrategyOutcome("constant", "ok", lattice.area,
                                  lattice.shape)
        return PortfolioResult(lattice, "constant", (outcome,))

    best: Lattice | None = None
    winner = ""
    outcomes: list[StrategyOutcome] = []
    for name in strategies:
        runner = _STRATEGY_RUNNERS[name]
        start = time.perf_counter()
        try:
            lattice = runner(table, best)
        except _Skip as gate:
            outcomes.append(StrategyOutcome(
                name, "skipped", elapsed=time.perf_counter() - start,
                detail=str(gate)))
            continue
        except Exception as error:  # a failed flow loses the race
            outcomes.append(StrategyOutcome(
                name, "failed", elapsed=time.perf_counter() - start,
                detail=f"{type(error).__name__}: {error}"))
            continue
        elapsed = time.perf_counter() - start
        if lattice is None:
            outcomes.append(StrategyOutcome(
                name, "not-applicable", elapsed=elapsed))
            continue
        # Batched whole-table verification (repro.xbareval): one flood
        # call per candidate instead of 2^n scalar percolation checks.
        if not implements_table(lattice, table):
            outcomes.append(StrategyOutcome(
                name, "failed", elapsed=elapsed,
                detail="candidate failed verification"))
            continue
        outcomes.append(StrategyOutcome(
            name, "ok", lattice.area, lattice.shape, elapsed))
        if best is None or lattice.area < best.area:
            best, winner = lattice, name
    if best is None:
        raise RuntimeError(
            f"no strategy produced a lattice (tried {list(strategies)})")
    return PortfolioResult(best, winner, tuple(outcomes))
