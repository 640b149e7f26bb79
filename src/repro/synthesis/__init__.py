"""Synthesis flows for nano-crossbar arrays — the paper's Section III.

* two-terminal (diode / FET) SOP mapping with the Fig. 3 size formulas;
* dual-based four-terminal lattice synthesis (Fig. 5, [2],[3]);
* SAT-based exact lattice synthesis ([9]);
* P-circuit decomposition preprocessing ([5],[7]);
* D-reducible decomposition preprocessing ([4],[6]);
* lattice algebra (OR/AND padding) and post-synthesis folding ([11]).
"""

from .compose import (
    constant_lattice,
    lattice_and,
    lattice_and_many,
    lattice_or,
    lattice_or_many,
    lift_lattice,
    literal_lattice,
    pad_cols,
    pad_rows,
)
from .dreducible import (
    DReducibleLattice,
    synthesize_characteristic,
    synthesize_dreducible,
)
from .enumerate_lattices import (
    ExpressivenessRow,
    enumerate_lattice_functions,
    expressiveness,
    minimal_area_map,
)
from .lattice_dual import (
    DualSynthesisReport,
    SynthesisError,
    dual_synthesis_report,
    lattice_from_covers,
    lattice_size_formula,
    pick_shared_literal,
    synthesize_lattice_dual,
)
from .lattice_optimal import (
    OptimalSynthesisResult,
    candidate_shapes,
    encode_shape,
    synthesize_lattice_optimal,
)
from .optimize import (
    OptimizationReport,
    fold_lattice,
    optimize_lattice,
    remove_col,
    remove_row,
    simplify_sites,
)
from .pcircuit import (
    PCircuitDecomposition,
    PCircuitLattice,
    best_pcircuit,
    pcircuit_decompose,
    recompose_table,
)
from .two_terminal import (
    TwoTerminalError,
    TwoTerminalReport,
    synthesize_diode,
    synthesize_fet,
    two_terminal_report,
)

__all__ = [
    "DReducibleLattice",
    "DualSynthesisReport",
    "ExpressivenessRow",
    "OptimalSynthesisResult",
    "OptimizationReport",
    "PCircuitDecomposition",
    "PCircuitLattice",
    "SynthesisError",
    "TwoTerminalError",
    "TwoTerminalReport",
    "best_pcircuit",
    "candidate_shapes",
    "constant_lattice",
    "dual_synthesis_report",
    "encode_shape",
    "enumerate_lattice_functions",
    "expressiveness",
    "fold_lattice",
    "lattice_and",
    "lattice_and_many",
    "lattice_from_covers",
    "lattice_or",
    "lattice_or_many",
    "lattice_size_formula",
    "lift_lattice",
    "literal_lattice",
    "minimal_area_map",
    "synthesize_characteristic",
    "optimize_lattice",
    "pad_cols",
    "pad_rows",
    "pcircuit_decompose",
    "pick_shared_literal",
    "recompose_table",
    "remove_col",
    "remove_row",
    "simplify_sites",
    "synthesize_diode",
    "synthesize_dreducible",
    "synthesize_fet",
    "synthesize_lattice_dual",
    "synthesize_lattice_optimal",
    "two_terminal_report",
]
