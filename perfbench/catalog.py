"""Every metric the benchmark reports and every function its traced pass wraps.

``BENCHMARK.json`` lists the same metrics; ``tests/test_perfbench.py``
keeps the two in step, and ``README.md`` maps each layer metric to the
end-to-end metric it should move.  Per-layer metrics are normalised per *pass* (one
sweep over a workload's fixed inputs; for ``served``, 200 completed
requests), so a faster commit that fits more passes into a run does not
read as more work.  ``_s`` metrics are self times: a span's duration
minus its traced children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .tracer import Hook

WORKLOADS = ("exact", "paper", "sweep", "served")

#: Experiment ids the ``paper`` workload runs: every registered experiment
#: except ``optimal`` (its n = 4 rows do not finish; ``exact`` covers SAT).
PAPER_EXPERIMENTS = (
    "arch", "bisd", "bism", "bist", "dreducible", "expressiveness", "fig1",
    "fig3", "fig4", "fig5", "fig6", "latticemap", "metrics", "pcircuit",
    "recovery", "tmr", "variation", "yield",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: Gated end-to-end metrics: every workload reports each of them.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.2),
    Metric("wall_s", "s", "lower", 0.25),
)

def _t(name: str) -> Metric:
    return Metric(name, "s", "lower")


def _n(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better)


PER_LAYER = (
    _t("sat.solve_s"),
    _t("sat.add_cnf_s"),
    _n("sat.solves"),
    _n("sat.conflicts"),
    _n("sat.propagations"),
    Metric("sat.props_per_s", "1/s", "higher"),
    _t("synthesis.encode_s"),
    _n("synthesis.clauses"),
    _n("synthesis.shapes_tried"),
    _n("synthesis.shapes_skipped"),
    _t("synthesis.dual_s"),
    _t("synthesis.fold_s"),
    _t("synthesis.pcircuit_s"),
    _t("synthesis.dreducible_s"),
    _t("synthesis.two_terminal_s"),
    _t("crossbar.paths_s"),
    _n("crossbar.paths"),
    _t("boolean.minimize_s"),
    _t("xbareval.verify_s"),
    _n("xbareval.verify_calls"),
    _t("xbareval.flood_s"),
    _n("xbareval.flood_grids"),
    _t("xbareval.delay_s"),
    _n("xbareval.delay_grids"),
    *(_t(f"reliability.{part}_s")
      for part in ("bist", "bisd", "bism", "defect_unaware", "yield",
                   "variation", "tmr", "mapping")),
    *(_t(f"eval.{experiment}_s")
      for experiment in PAPER_EXPERIMENTS),
    _t("faultlab.sample_s"),
    _t("faultlab.sample_clustered_s"),
    _t("faultlab.extract_s"),
    _n("faultlab.trials", "higher"),
    _t("varsim.sample_s"),
    _t("varsim.select_s"),
    _n("varsim.trials", "higher"),
    _t("engine.store_put_s"),
    _n("engine.store_puts"),
    _t("engine.claim_s"),
    _n("engine.claims"),
    _t("engine.complete_s"),
    _t("grid.plan_s"),
    _t("grid.point_s"),
    _t("server.http_s.submit"),
    _t("server.http_s.result"),
    _t("server.queue_wait_s"),
    _t("server.job_s"),
    _t("server.cpu_s"),
    _n("server.coalesced", "higher"),
    Metric("client.submit_ms", "ms", "lower"),
    Metric("client.result_ms", "ms", "lower"),
    _t("engine.batch_s"),
    _n("engine.cache_hits", "higher"),
    _n("engine.races"),
    _t("faultlab.point_s"),
    _t("varsim.point_s"),
    _t("engine.shard_s"),
    _n("engine.store_writes"),
    Metric("bench.trace_overhead", "ratio", "lower"),
)


# ----------------------------------------------------------------------
# Traced functions (installed in every workload's traced passes, so a
# layer a workload leaves out reads 0 there).
# ----------------------------------------------------------------------
def _one(name: str):
    return lambda args, kwargs, result, state: {name: 1}


def _arg_len(name: str, position: int):
    return lambda args, kwargs, result, state: {name: len(args[position])}


def _arg_int(name: str, position: int, keyword: str):
    def counts(args: tuple, kwargs: dict, result: Any, state: Any):
        return {name: int(args[position] if len(args) > position
                          else kwargs[keyword])}
    return counts


def _solver_stats(args: tuple, kwargs: dict) -> dict[str, int]:
    return args[0].statistics()


def _solve_counts(args: tuple, kwargs: dict, result: Any,
                  before: dict[str, int]) -> dict[str, float]:
    after = args[0].statistics()
    return {"sat.solves": 1,
            "sat.conflicts": after["conflicts"] - before["conflicts"],
            "sat.propagations": after["propagations"]
            - before["propagations"]}


def _submitted_job(args: tuple, kwargs: dict, result: Any) -> str | None:
    return result.get("job_id") if isinstance(result, dict) else None


def _result_job(args: tuple, kwargs: dict, result: Any) -> str | None:
    return str(args[1])


HOOKS = [
    Hook("repro.sat.solver:Solver.solve", "sat.solve",
         counts=_solve_counts, before=_solver_stats),
    Hook("repro.sat.solver:Solver.add_cnf", "sat.add_cnf"),
    Hook("repro.synthesis.lattice_optimal:encode_shape", "synthesis.encode",
         counts=lambda args, kwargs, result, state:
         {"synthesis.clauses": len(result[0])}),
    Hook("repro.crossbar.paths:enumerate_top_bottom_paths", "crossbar.paths",
         counts=lambda args, kwargs, items, state: {"crossbar.paths": items}),
    Hook("repro.synthesis.lattice_dual:synthesize_lattice_dual",
         "synthesis.dual"),
    Hook("repro.synthesis.optimize:fold_lattice", "synthesis.fold"),
    Hook("repro.synthesis.optimize:optimize_lattice", "synthesis.fold"),
    Hook("repro.synthesis.pcircuit:best_pcircuit", "synthesis.pcircuit"),
    Hook("repro.synthesis.dreducible:synthesize_dreducible",
         "synthesis.dreducible"),
    Hook("repro.synthesis.two_terminal:two_terminal_report",
         "synthesis.two_terminal"),
    Hook("repro.synthesis.two_terminal:synthesize_diode",
         "synthesis.two_terminal"),
    Hook("repro.synthesis.two_terminal:synthesize_fet",
         "synthesis.two_terminal"),
    Hook("repro.boolean.minimize:minimize", "boolean.minimize"),
    Hook("repro.boolean.minimize:exact_minimize", "boolean.minimize"),
    Hook("repro.boolean.minimize:isop", "boolean.minimize"),
    Hook("repro.xbareval.lattice_eval:implements_table", "xbareval.verify",
         counts=_one("xbareval.verify_calls")),
    Hook("repro.xbareval.connectivity:top_bottom_connected_batch",
         "xbareval.flood", counts=_arg_len("xbareval.flood_grids", 0)),
    Hook("repro.xbareval.delay:onset_critical_delay_batch", "xbareval.delay",
         counts=_arg_len("xbareval.delay_grids", 2)),
    Hook("repro.reliability.bist:run_bist", "reliability.bist"),
    Hook("repro.reliability.bisd:run_bisd", "reliability.bisd"),
    Hook("repro.reliability.bism:bism_density_sweep", "reliability.bism"),
    Hook("repro.reliability.defect_unaware:defect_unaware_flow",
         "reliability.defect_unaware"),
    Hook("repro.reliability.defect_unaware:recovery_sweep",
         "reliability.defect_unaware"),
    Hook("repro.reliability.yield_model:yield_sweep", "reliability.yield"),
    Hook("repro.reliability.variation:variation_sweep",
         "reliability.variation"),
    Hook("repro.reliability.redundancy:tmr_reliability", "reliability.tmr"),
    Hook("repro.reliability.redundancy:make_tmr", "reliability.tmr"),
    Hook("repro.reliability.redundancy:repair_with_spares",
         "reliability.tmr"),
    Hook("repro.reliability.lattice_mapping:mapping_success_sweep",
         "reliability.mapping"),
    Hook("repro.faultlab.maps:bernoulli_defect_batch", "faultlab.sample",
         counts=_arg_int("faultlab.trials", 0, "trials")),
    Hook("repro.faultlab.maps:clustered_defect_batch",
         "faultlab.sample_clustered",
         counts=_arg_int("faultlab.trials", 0, "trials")),
    Hook("repro.faultlab.kernels:recovered_k_batch", "faultlab.extract"),
    Hook("repro.faultlab.kernels:recovered_k_exact_batch",
         "faultlab.extract"),
    Hook("repro.varsim.ensembles:lognormal_variation_batch", "varsim.sample",
         counts=_arg_int("varsim.trials", 0, "trials")),
    Hook("repro.varsim.ensembles:variation_aware_selection_batch",
         "varsim.select"),
    Hook("repro.varsim.ensembles:oblivious_selection_batch", "varsim.select"),
    Hook("repro.engine.store:JsonStore.put", "engine.store_put",
         counts=_one("engine.store_puts")),
    Hook("repro.engine.store:JsonStore.grid_claim", "engine.claim",
         counts=_one("engine.claims")),
    Hook("repro.engine.store:JsonStore.grid_complete", "engine.complete"),
    Hook("repro.grid.runner:run_point", "grid.point"),
    Hook("repro.server.client:ServerClient.submit", "client.submit",
         key=_submitted_job),
    Hook("repro.server.client:ServerClient.result", "client.result",
         key=_result_job),
]


def layer_values(self_s: dict[str, float], counts: dict[str, float],
                 passes: float, extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, per pass, from one traced run.

    ``extra`` carries what the workload measures itself (server counter
    deltas, client latencies, the trace overhead); spans and counters
    fill the rest, and a layer the workload never called reads 0.
    """
    solve = self_s.get("sat.solve", 0.0)
    derived = {"sat.props_per_s": (counts.get("sat.propagations", 0.0) / solve
                                   if solve else 0.0)}
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        name = metric.name
        if name in extra:
            values[name] = extra[name]
        elif name in derived:
            values[name] = derived[name]
        elif metric.unit == "s" and name.endswith("_s"):
            values[name] = self_s.get(name[:-2], 0.0) / passes
        else:
            values[name] = counts.get(name, 0.0) / passes
    return values
