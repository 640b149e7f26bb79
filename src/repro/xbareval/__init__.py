"""``repro.xbareval`` — batched packed-bitset lattice evaluation core.

Every semantic check in the package (Section III lattice synthesis
validation, Section IV mapping/yield experiments) bottoms out in
top-bottom percolation connectivity.  This subsystem computes it for whole
batches at once:

* :mod:`~repro.xbareval.connectivity` — ``(B, R, C)`` boolean conduction
  tensors flooded top to bottom through one dispatch (the scipy label
  pass, else the packed flood up to 64 rows, else the boolean flood),
  replacing the per-grid scalar union-find of :mod:`repro.crossbar.paths`;
* :mod:`~repro.xbareval.lattice_eval` — all ``2^n`` conduction grids of a
  lattice materialised via packed literal masks in one broadcast;
  :func:`lattice_truthtable` returns a
  :class:`~repro.boolean.truthtable.TruthTable` without a Python-level
  loop over assignments, through :func:`evaluate_masks`, which also
  checks edited site masks without building a lattice;
* :mod:`~repro.xbareval.delay` — batched node-weighted shortest-path
  delay (vectorized Bellman-Ford over conduction x resistance tensors),
  the Section IV variation-delay model behind :mod:`repro.varsim`.

The scalar functions stay in place as bit-exact references; the property
suite (``tests/test_xbareval.py``) asserts agreement on every kernel, and
``tests/test_paper_claims.py`` on fixed benchmark-suite workloads.  Consumers:
:class:`repro.crossbar.lattice.Lattice`, the synthesis candidate checks,
the batched fault and trial evaluations of :mod:`repro.reliability`,
:mod:`repro.varsim` and the :mod:`repro.engine` portfolio verification.
"""

from .connectivity import (
    MAX_PACKED_ROWS,
    top_bottom_connected_batch,
)
from .delay import (
    CHUNK_GRIDS,
    best_path_delay_batch,
    onset_critical_delay_batch,
)
from .lattice_eval import (
    CHUNK_ASSIGNMENTS,
    conduction_tensor,
    evaluate_labellings,
    evaluate_masks,
    implements_table,
    lattice_truthtable,
    site_masks,
)

__all__ = [
    "CHUNK_ASSIGNMENTS",
    "CHUNK_GRIDS",
    "MAX_PACKED_ROWS",
    "best_path_delay_batch",
    "conduction_tensor",
    "evaluate_labellings",
    "evaluate_masks",
    "implements_table",
    "lattice_truthtable",
    "onset_critical_delay_batch",
    "site_masks",
    "top_bottom_connected_batch",
]
