"""Experiment registry: one entry per paper table/figure.

Every experiment returns the rows that regenerate the corresponding
artefact of the DATE'17 paper, and a note; :meth:`Experiment.run` makes
them an :class:`ExperimentResult` under the experiment's registered id
and title.  ``fast=True`` shrinks the sweeps for the tier-1 claim checks
(``tests/test_paper_claims.py``); ``nanoxbar run <id>`` runs the full
sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..crossbar.lattice import Lattice
from ..reliability.bisd import run_bisd
from ..reliability.bism import as_program, bism_density_sweep
from ..reliability.bist import run_bist
from ..reliability.defect_unaware import defect_unaware_flow, recovery_sweep
from ..reliability.defects import random_defect_map
from ..reliability.variation import variation_sweep
from ..reliability.yield_model import yield_sweep
from ..synthesis.dreducible import synthesize_dreducible
from ..synthesis.lattice_dual import dual_synthesis_report, synthesize_lattice_dual
from ..synthesis.lattice_optimal import synthesize_lattice_optimal
from ..synthesis.optimize import optimize_lattice
from ..synthesis.pcircuit import best_pcircuit
from ..synthesis.two_terminal import two_terminal_report
from .benchsuite import by_name, suite
from .tables import format_table


@dataclass
class ExperimentResult:
    """Rows + presentation metadata for one experiment."""

    experiment_id: str
    title: str
    rows: list[dict]
    columns: list[str]
    notes: str

    def render(self) -> str:
        text = format_table(self.rows, self.columns,
                            title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += f"\nnotes: {self.notes}"
        return text


@dataclass(frozen=True)
class Experiment:
    """Registry entry; ``compute(fast)`` returns the rows and the notes."""

    experiment_id: str
    title: str
    paper_ref: str
    compute: Callable[[bool], tuple[list[dict], str]]

    def run(self, fast: bool) -> ExperimentResult:
        """The rows of ``compute(fast)``, columns in the first row's order."""
        rows, notes = self.compute(fast)
        return ExperimentResult(self.experiment_id, self.title, rows,
                                list(rows[0]), notes)


_REGISTRY: dict[str, Experiment] = {}


def register(experiment_id: str, title: str, paper_ref: str):
    def decorator(fn: Callable[[bool], tuple[list[dict], str]]):
        _REGISTRY[experiment_id] = Experiment(experiment_id, title, paper_ref, fn)
        return fn

    return decorator


def all_experiments() -> list[Experiment]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None


# ----------------------------------------------------------------------
# E-FIG1: switch model semantics
# ----------------------------------------------------------------------
@register("fig1", "Two- vs four-terminal switch semantics", "Fig. 1")
def experiment_fig1(fast: bool) -> tuple[list[dict], str]:
    from ..synthesis.two_terminal import synthesize_diode, synthesize_fet

    f = by_name("xnor2").function
    diode = synthesize_diode(f.on)
    fet = synthesize_fet(f.on)
    lattice = synthesize_lattice_dual(f.on)
    rows = [
        {
            "model": "diode (2-terminal)",
            "conduction": "unidirectional row->output",
            "array": diode.shape,
            "implements_xnor2": diode.implements(f.on),
        },
        {
            "model": "FET (2-terminal)",
            "conduction": "complementary pull-up/down",
            "array": fet.shape,
            "implements_xnor2": fet.implements(f.on),
        },
        {
            "model": "4-terminal lattice",
            "conduction": "multi-directional percolation",
            "array": lattice.shape,
            "implements_xnor2": lattice.implements(f.on),
        },
    ]
    return rows, "all three behavioural models verified against the same function"


# ----------------------------------------------------------------------
# E-FIG3: two-terminal size formulas
# ----------------------------------------------------------------------
@register("fig3", "Diode/FET array size formulas", "Fig. 3")
def experiment_fig3(fast: bool) -> tuple[list[dict], str]:
    benchmarks = suite(exclude=["large"] if fast else None, max_vars=6)
    rows = []
    for benchmark in benchmarks:
        try:
            report = two_terminal_report(benchmark.function)
        except Exception:
            continue
        rows.append({
            "benchmark": benchmark.name,
            "n": report.n,
            "products": report.products,
            "dual_products": report.dual_products,
            "literals": report.distinct_literals,
            "diode": report.diode_shape,
            "diode_formula_ok": report.diode_formula == report.diode_shape,
            "fet": report.fet_shape,
            "fet_cols_ok": report.fet_formula[1] == report.fet_shape[1],
        })
    return rows, "formula sizes equal as-built array dimensions (Fig. 3 is exact)"


# ----------------------------------------------------------------------
# E-FIG4: the worked lattice example
# ----------------------------------------------------------------------
@register("fig4", "Fig. 4 worked lattice example", "Fig. 4")
def experiment_fig4(fast: bool) -> tuple[list[dict], str]:
    f = by_name("fig4").function
    hand = Lattice.from_strings(6, ["x1 x4", "x2 x5", "x3 x6"])
    formula = synthesize_lattice_dual(f.on)
    folded = optimize_lattice(formula, f.on).lattice
    rows = [
        {"method": "paper Fig. 4 (hand)", "shape": hand.shape,
         "area": hand.area, "implements": hand.implements(f.on)},
        {"method": "Fig. 5 formula [2]", "shape": formula.shape,
         "area": formula.area, "implements": formula.implements(f.on)},
        {"method": "formula + folding [11]", "shape": folded.shape,
         "area": folded.area, "implements": folded.implements(f.on)},
    ]
    return rows, (
        "the formula is correct but suboptimal (28 sites); the paper's "
        "hand lattice uses 6 — exactly the gap the preprocessing targets")


# ----------------------------------------------------------------------
# E-FIG5: lattice sizes and the 2T-vs-4T comparison
# ----------------------------------------------------------------------
@register("fig5", "Four-terminal lattice sizes vs two-terminal arrays", "Fig. 5")
def experiment_fig5(fast: bool) -> tuple[list[dict], str]:
    benchmarks = suite(exclude=["large"] if fast else None, max_vars=6)
    rows = []
    wins = 0
    comparable = 0
    for benchmark in benchmarks:
        try:
            two_terminal = two_terminal_report(benchmark.function)
        except Exception:
            continue
        lattice = dual_synthesis_report(benchmark.function)
        folded = optimize_lattice(lattice.lattice, benchmark.function.on).lattice
        best_2t = min(two_terminal.diode_area, two_terminal.fet_area)
        comparable += 1
        if folded.area <= best_2t:
            wins += 1
        rows.append({
            "benchmark": benchmark.name,
            "n": benchmark.n,
            "p(f)": lattice.products,
            "p(fD)": lattice.dual_products,
            "lattice": lattice.formula_shape,
            "folded": folded.shape,
            "lattice_area": folded.area,
            "diode_area": two_terminal.diode_area,
            "fet_area": two_terminal.fet_area,
            "4T_wins": folded.area <= best_2t,
        })
    return rows, (
        f"four-terminal wins on {wins}/{comparable} benchmarks "
        "(the paper: 'favorably better crossbar sizes')")


# ----------------------------------------------------------------------
# E-TAB-PC: P-circuit decomposition
# ----------------------------------------------------------------------
@register("pcircuit", "Lattice synthesis with P-circuit decomposition",
          "Section III-B.1, [5],[7]")
def experiment_pcircuit(fast: bool) -> tuple[list[dict], str]:
    max_vars = 5 if fast else 6
    benchmarks = [b for b in suite(max_vars=max_vars)
                  if not b.function.on.is_constant()]
    rows = []
    improved = 0
    for benchmark in benchmarks:
        table = benchmark.function.on
        direct = optimize_lattice(synthesize_lattice_dual(table), table).lattice
        decomposed = best_pcircuit(table)
        dec_folded = optimize_lattice(decomposed.lattice, table).lattice
        if dec_folded.area < direct.area:
            improved += 1
        rows.append({
            "benchmark": benchmark.name,
            "n": benchmark.n,
            "direct_area": direct.area,
            "pcircuit_area": dec_folded.area,
            "split_var": f"x{decomposed.decomposition.var + 1}",
            "blocks(=/!=/I)": "/".join(
                str(a) for a in decomposed.block_areas.values()
            ),
            "improves": dec_folded.area < direct.area,
        })
    return rows, (
        f"decomposition reduced area on {improved}/{len(rows)} benchmarks; "
        "both columns are post-folding, so gains are structural")


# ----------------------------------------------------------------------
# E-TAB-DR: D-reducible preprocessing
# ----------------------------------------------------------------------
@register("dreducible", "Lattice synthesis of D-reducible functions",
          "Section III-B.2, [4],[6]")
def experiment_dreducible(fast: bool) -> tuple[list[dict], str]:
    benchmarks = suite(tags=["d-reducible"], max_vars=5 if fast else 7)
    rows = []
    for benchmark in benchmarks:
        table = benchmark.function.on
        direct = optimize_lattice(synthesize_lattice_dual(table), table).lattice
        result = synthesize_dreducible(table)
        if result is None:
            continue
        composed = optimize_lattice(result.lattice, table).lattice
        rows.append({
            "benchmark": benchmark.name,
            "n": benchmark.n,
            "dim(A)": result.space.dim,
            "dims_dropped": result.dimension_drop,
            "chi_area": result.chi_lattice.area,
            "fA_area": result.projection_lattice.area,
            "direct_area": direct.area,
            "composed_area": composed.area,
            "improves": composed.area < direct.area,
        })
    return rows, (
        "f = chi_A AND f_A; the projection block shrinks with dim(A), "
        "the chi_A (parity) block is the price of the restriction")


# ----------------------------------------------------------------------
# E-TAB-OPT: optimal-vs-heuristic lattice sizes
# ----------------------------------------------------------------------
@register("optimal", "SAT-optimal lattice synthesis vs the dual-based bound",
          "[9] (Gange et al.)")
def experiment_optimal(fast: bool) -> tuple[list[dict], str]:
    names = ["xnor2", "xor3", "maj3", "fa_sum", "fa_carry", "mux2"]
    if not fast:
        names += ["xor4", "thr4_2", "onehot4"]
    rows = []
    for name in names:
        benchmark = by_name(name)
        table = benchmark.function.on
        dual = synthesize_lattice_dual(table)
        folded = optimize_lattice(dual, table).lattice
        optimal = synthesize_lattice_optimal(table, conflict_budget=100_000)
        rows.append({
            "benchmark": name,
            "n": benchmark.n,
            "formula_area": dual.area,
            "folded_area": folded.area,
            "optimal_area": optimal.area,
            "optimal_shape": optimal.shape,
            "proved": optimal.proved_optimal,
            "shapes_tried": len(optimal.shapes_tried),
        })
    return rows, (
        "optimal <= folded <= formula everywhere; 'proved' = every "
        "smaller shape refuted by the CDCL solver")


# ----------------------------------------------------------------------
# E-BIST
# ----------------------------------------------------------------------
@register("bist", "BIST: exhaustive coverage with constant configurations",
          "Section IV-A")
def experiment_bist(fast: bool) -> tuple[list[dict], str]:
    sizes = [(4, 4), (6, 6), (8, 8)] if fast else [(4, 4), (6, 6), (8, 8),
                                                   (12, 12), (16, 16)]
    rows = []
    for r, c in sizes:
        report = run_bist(r, c)
        rows.append({
            "crossbar": (r, c),
            "faults": report.num_faults,
            "configs": report.num_configurations,
            "vectors": report.num_vectors,
            "coverage": report.coverage,
            "naive_configs": report.naive_configurations,
        })
    return rows, (
        "100% coverage of stuck-at/bridge/open/functional faults with 5 "
        "single-term configurations vs R*C naive configurations")


# ----------------------------------------------------------------------
# E-BISD
# ----------------------------------------------------------------------
@register("bisd", "BISD: logarithmic diagnosis configurations", "Section IV-A")
def experiment_bisd(fast: bool) -> tuple[list[dict], str]:
    sizes = [(2, 2), (4, 4), (4, 8)] if fast else [(2, 2), (4, 4), (4, 8),
                                                   (8, 8), (8, 16)]
    rows = []
    for r, c in sizes:
        report = run_bisd(r, c)
        rows.append({
            "crossbar": (r, c),
            "resources": report.num_resources,
            "configs": report.num_configurations,
            "log2(resources)": report.theoretical_minimum,
            "single_faults": report.num_faults,
            "diagnosed": report.num_correct,
            "accuracy": report.accuracy,
        })
    return rows, (
        "configs = ceil(log2(resources)) + 2 type probes; every single "
        "crosspoint fault decoded uniquely from its block-code signature")


# ----------------------------------------------------------------------
# E-BISM
# ----------------------------------------------------------------------
@register("bism", "BISM: blind vs greedy vs hybrid across defect densities",
          "Section IV-B")
def experiment_bism(fast: bool) -> tuple[list[dict], str]:
    rng = random.Random(20170327)
    densities = [0.0, 0.05, 0.1, 0.2, 0.3] if fast else [
        0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    trials = 25 if fast else 100
    program = as_program([
        [True, False, True, False],
        [False, True, False, True],
        [True, True, False, False],
    ])
    points = bism_density_sweep(program, 12, 12, densities, trials, rng)
    rows = [{
        "density": p.density,
        "strategy": p.strategy,
        "success": p.success_rate,
        "avg_bist": p.avg_bist_sessions,
        "avg_bisd": p.avg_bisd_sessions,
        "avg_sessions": p.avg_total_sessions,
    } for p in points]
    return rows, (
        "blind explodes with density; greedy pays diagnosis but stays "
        "flat; hybrid tracks the cheaper of the two (Section IV-B)")


# ----------------------------------------------------------------------
# E-FIG6
# ----------------------------------------------------------------------
@register("fig6", "Defect-unaware flow: k recovery, map size, mapping cost",
          "Fig. 6")
def experiment_fig6(fast: bool) -> tuple[list[dict], str]:
    rng = random.Random(691178)
    n = 16 if fast else 32
    densities = [0.01, 0.05, 0.1] if fast else [0.01, 0.02, 0.05, 0.1, 0.15]
    trials = 5 if fast else 20
    per_density: dict[float, list] = {d: [] for d in densities}
    for density in densities:
        for _ in range(trials):
            defect_map = random_defect_map(n, n, density, rng)
            comparison = defect_unaware_flow(defect_map, 3, 3, rng)
            per_density[density].append(comparison)
    aggregated = []
    for density in densities:
        bucket = per_density[density]
        aggregated.append({
            "N": n,
            "density": density,
            "avg_recovered_k": sum(c.recovered_k for c in bucket) / len(bucket),
            "k_over_N": sum(c.recovered_k for c in bucket) / len(bucket) / n,
            "aware_map_words": bucket[0].aware_map_words,
            "unaware_map_words": max(c.unaware_map_words for c in bucket),
            "aware_sessions/app": sum(c.aware_sessions_per_app for c in bucket)
            / len(bucket),
            "unaware_sessions/app": sum(c.unaware_sessions_per_app for c in bucket)
            / len(bucket),
        })
    return aggregated, (
        "defect map shrinks O(N^2) -> O(N); per-application mapping cost "
        "collapses to zero once the clean k x k is extracted (Fig. 6b)")


# ----------------------------------------------------------------------
# E-RECOVERY (supplement to Fig. 6: k/N degradation)
# ----------------------------------------------------------------------
@register("recovery", "Recovered k/N vs defect density", "Fig. 6 supplement")
def experiment_recovery(fast: bool) -> tuple[list[dict], str]:
    rng = random.Random(7)
    n = 16 if fast else 32
    densities = [0.0, 0.02, 0.05, 0.1, 0.2] if fast else [
        0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3]
    trials = 10 if fast else 30
    rows = recovery_sweep(n, densities, trials, rng)
    return rows, "graceful degradation of the universal clean subarray size"


# ----------------------------------------------------------------------
# E-VAR
# ----------------------------------------------------------------------
@register("variation", "Variation-aware vs oblivious mapping delay",
          "Section IV (variation tolerance)")
def experiment_variation(fast: bool) -> tuple[list[dict], str]:
    rng = random.Random(113)
    lattice = synthesize_lattice_dual(by_name("xnor2").function.on)
    sigmas = [0.1, 0.3, 0.6] if fast else [0.05, 0.1, 0.2, 0.3, 0.5, 0.8]
    trials = 30 if fast else 150
    points = variation_sweep(lattice, sigmas, 10, 10, trials, rng)
    rows = [{
        "sigma": p.sigma,
        "aware_mean": p.aware_mean,
        "aware_p95": p.aware_p95,
        "oblivious_mean": p.oblivious_mean,
        "oblivious_p95": p.oblivious_p95,
        "mean_gain": p.mean_improvement,
    } for p in points]
    return rows, (
        "selecting low-resistance lines tightens the delay distribution; "
        "the gain grows with variation strength")


# ----------------------------------------------------------------------
# E-YIELD
# ----------------------------------------------------------------------
@register("yield", "Yield: Monte Carlo vs analytic bounds",
          "Section IV (manufacturing yield)")
def experiment_yield(fast: bool) -> tuple[list[dict], str]:
    rng = random.Random(42)
    n = 8 if fast else 12
    k_values = [n // 2, 3 * n // 4, n]
    densities = [0.02, 0.05, 0.1] if fast else [0.01, 0.02, 0.05, 0.1, 0.2]
    trials = 60 if fast else 300
    rows = yield_sweep(n, k_values, densities, trials, rng)
    return rows, (
        "choosing k < N converts a near-zero full-array yield into a "
        "high recovered yield — the economic case for defect tolerance")


# ----------------------------------------------------------------------
# E-LATTICE-MAP (defect-aware placement of four-terminal lattices)
# ----------------------------------------------------------------------
@register("latticemap", "Defect-aware lattice placement on defective fabrics",
          "Sections III+IV combined (four-terminal BISM analogue)")
def experiment_latticemap(fast: bool) -> tuple[list[dict], str]:
    from ..reliability.lattice_mapping import mapping_success_sweep
    from ..synthesis.optimize import fold_lattice

    rng = random.Random(44)
    f = by_name("xnor2").function
    lattice = fold_lattice(synthesize_lattice_dual(f.on), f.on)
    densities = [0.0, 0.05, 0.15, 0.3] if fast else [
        0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4]
    trials = 20 if fast else 80
    rows = mapping_success_sweep(lattice, f.n, densities, trials, rng)
    return rows, (
        "stuck-closed fabric sites serve as the algebra's constant-1 "
        "padding and stuck-open sites as constant-0 — defects become "
        "resources when they align with padding")


# ----------------------------------------------------------------------
# E-EXPRESSIVENESS (what each lattice shape can compute, [3]/[9] context)
# ----------------------------------------------------------------------
@register("expressiveness", "Lattice shape expressiveness (NPN classes)",
          "[3] context: which functions fit which lattices")
def experiment_expressiveness(fast: bool) -> tuple[list[dict], str]:
    from ..synthesis.enumerate_lattices import expressiveness

    shapes = [(1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)]
    if not fast:
        shapes += [(1, 3, 2), (3, 1, 2), (2, 2, 3)]
    rows = []
    for r, c, n in shapes:
        entry = expressiveness(r, c, n)
        rows.append({
            "shape": (r, c),
            "n": n,
            "labellings": entry.labellings,
            "functions": entry.distinct_functions,
            "of_total": entry.total_functions,
            "coverage": entry.coverage,
            "npn_classes": entry.npn_classes,
        })
    return rows, (
        "exhaustive site-labelling enumeration: a 2x2 lattice already "
        "realises all 16 two-variable functions (4 NPN classes)")


# ----------------------------------------------------------------------
# E-METRICS (Section II: area, delay, power per style)
# ----------------------------------------------------------------------
@register("metrics", "Area/delay/power across the three array styles",
          "Section II performance parameters")
def experiment_metrics(fast: bool) -> tuple[list[dict], str]:
    from ..crossbar.metrics import compare_styles

    names = ["xnor2", "maj3", "fa_sum", "thr4_2", "mux4", "pla5"]
    if not fast:
        names += ["maj5", "sym5_23", "eq2", "gt2"]
    rows = []
    for name in names:
        table = by_name(name).function.on
        for metrics in compare_styles(table):
            rows.append({
                "benchmark": name,
                "style": metrics.style,
                "area": metrics.area,
                "delay": metrics.delay,
                "power": metrics.power,
            })
    return rows, (
        "normalised technology units (R_on = C_unit = 1): lattices "
        "trade the diode plane's static power for longer percolation "
        "paths; FET planes pay area for complementary operation")


# ----------------------------------------------------------------------
# E-TMR (extension: [15], transient + permanent fault tolerance)
# ----------------------------------------------------------------------
@register("tmr", "TMR and spare-line repair (transient/permanent faults)",
          "[15] (Tunali & Altun) / Section IV lifetime reliability")
def experiment_tmr(fast: bool) -> tuple[list[dict], str]:
    from ..reliability.redundancy import (make_tmr, repair_with_spares,
                                          tmr_reliability)
    from ..synthesis.optimize import fold_lattice

    rng = random.Random(15)
    f = by_name("xnor2").function
    replica = fold_lattice(synthesize_lattice_dual(f.on), f.on)
    rates = [0.0, 0.005, 0.02, 0.05, 0.15, 0.3] if not fast else [
        0.0, 0.01, 0.05, 0.2]
    trials = 400 if fast else 2000
    points = tmr_reliability(replica, f.on, rates, trials, rng)
    system = make_tmr(replica)
    rows = [{
        "upset_rate": p.upset_rate,
        "simplex_correct": p.simplex_correct,
        "tmr_correct": p.tmr_correct,
        "tmr_wins": p.tmr_wins,
        "area_overhead": f"{system.area}/{replica.area}",
    } for p in points]
    # spare-line repair success at a benign density
    repairs = 0
    trials_repair = 50 if fast else 200
    for _ in range(trials_repair):
        defect_map = random_defect_map(10, 10, 0.01, rng)
        if repair_with_spares(defect_map, 8, 8).success:
            repairs += 1
    rows.append({
        "upset_rate": "perm. d=0.01",
        "simplex_correct": "",
        "tmr_correct": "",
        "tmr_wins": "",
        "area_overhead": f"spare repair 8x8-in-10x10: {repairs / trials_repair:.2f}",
    })
    return rows, (
        "classic TMR crossover: wins at low upset rates, loses once "
        "multi-replica upsets dominate; whole-line sparing only pays "
        "at low densities (crosspoint-level mapping scales better)")


# ----------------------------------------------------------------------
# E-ARCH
# ----------------------------------------------------------------------
@register("arch", "Arithmetic/memory/SSM built from crossbar blocks",
          "Section V (sub-objectives 3-4)")
def experiment_arch(fast: bool) -> tuple[list[dict], str]:
    from ..arch.arithmetic import (adder_reference, synthesize_adder,
                                   synthesize_comparator, comparator_reference)
    from ..arch.memory import CrossbarMemory
    from ..arch.ssm import SynchronousStateMachine, counter_spec

    rows = []
    widths = [1, 2] if fast else [1, 2, 3]
    for width in widths:
        adder = synthesize_adder(width)
        rows.append({
            "element": f"adder{width} (lattice)",
            "inputs": adder.num_inputs,
            "outputs": adder.num_outputs,
            "area": adder.total_area,
            "verified": adder.verify_against(adder_reference(width)),
        })
    comparator = synthesize_comparator(2)
    rows.append({
        "element": "cmp2 (lattice)",
        "inputs": comparator.num_inputs,
        "outputs": comparator.num_outputs,
        "area": comparator.total_area,
        "verified": comparator.verify_against(comparator_reference(2)),
    })
    memory = CrossbarMemory(3, 4)
    memory.load({i: (i * 5) % 16 for i in range(8)})
    rows.append({
        "element": "memory 8x4 + decoder",
        "inputs": 3,
        "outputs": 4,
        "area": memory.total_area,
        "verified": all(memory.read(i) == (i * 5) % 16 for i in range(8)),
    })
    ssm = SynchronousStateMachine(counter_spec(2))
    sequence = [1, 1, 0, 1, 1, 1]
    outputs = ssm.run(sequence)
    expected = []
    state = 0
    for enable in sequence:
        expected.append(state)
        state = (state + enable) & 0b11
    rows.append({
        "element": "SSM: 2-bit counter",
        "inputs": 3,
        "outputs": 2,
        "area": ssm.total_area,
        "verified": outputs == expected and ssm.verify_against_spec(),
    })
    return rows, (
        "the paper's roadmap endpoint: arithmetic + memory + state "
        "machine, every combinational bit a verified crossbar block")
