"""Boolean-function substrate for the nano-crossbar synthesis flows.

Public surface:

* :class:`~repro.boolean.cube.Literal`, :class:`~repro.boolean.cube.Cube`
* :class:`~repro.boolean.cover.Cover`
* :class:`~repro.boolean.truthtable.TruthTable`
* :class:`~repro.boolean.function.BooleanFunction`
* minimization: :func:`~repro.boolean.minimize.minimize` and friends
  (the dual ``f^D`` is :meth:`~repro.boolean.truthtable.TruthTable.dual`)
* expression and PLA parsing, GF(2)/affine-space tools for D-reducible
  functions, NPN canonical forms
"""

from .affine import (
    AffineSpace,
    affine_hull,
    d_reduction,
    embed_projection,
    gf2_kernel,
    gf2_row_reduce,
    onset_affine_hull,
    parity_table,
    project_onto,
)
from .cover import Cover
from .cube import Cube, Literal
from .expr import (
    ExpressionError,
    expression_to_truth_table,
    expression_variables,
    parse_expression,
)
from .function import BooleanFunction
from .minimize import (
    exact_minimize,
    heuristic_minimize,
    isop,
    minimize,
    prime_implicants,
    verify_cover,
)
from .npn import (
    NpnTransform,
    apply_transform,
    npn_canonical,
    npn_semicanonical,
)
from .pla import Pla, PlaError, parse_pla
from .truthtable import TruthTable

__all__ = [
    "AffineSpace",
    "BooleanFunction",
    "Cover",
    "Cube",
    "ExpressionError",
    "Literal",
    "NpnTransform",
    "Pla",
    "PlaError",
    "TruthTable",
    "affine_hull",
    "apply_transform",
    "d_reduction",
    "embed_projection",
    "exact_minimize",
    "expression_to_truth_table",
    "expression_variables",
    "gf2_kernel",
    "gf2_row_reduce",
    "heuristic_minimize",
    "isop",
    "minimize",
    "npn_canonical",
    "npn_semicanonical",
    "onset_affine_hull",
    "parity_table",
    "parse_expression",
    "parse_pla",
    "prime_implicants",
    "project_onto",
    "verify_cover",
]
