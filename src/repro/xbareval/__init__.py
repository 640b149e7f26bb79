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
* :mod:`~repro.xbareval.placement` — batched defect-aware placement
  validity (one placement per fabric of an ensemble, or many placements
  against one fabric);
* :mod:`~repro.xbareval.delay` — batched node-weighted shortest-path
  delay (vectorized Bellman-Ford over conduction x resistance tensors),
  the Section IV variation-delay model behind :mod:`repro.varsim`.

The scalar functions stay in place as bit-exact references; the property
suite (``tests/test_xbareval.py``) asserts agreement on every kernel, and
``tests/test_paper_claims.py`` on fixed benchmark-suite workloads.  Consumers:
:class:`repro.crossbar.lattice.Lattice`, the synthesis candidate checks,
:mod:`repro.reliability.lattice_mapping`, :mod:`repro.faultlab.kernels`
and the :mod:`repro.engine` portfolio verification.
"""

from .connectivity import (
    MAX_PACKED_ROWS,
    top_bottom_connected_batch,
)
from .delay import (
    CHUNK_GRIDS,
    best_path_delay_batch,
    lattice_critical_delay_batch,
    onset_critical_delay_batch,
)
from .lattice_eval import (
    CHUNK_ASSIGNMENTS,
    conduction_tensor,
    evaluate_assignments,
    evaluate_labellings,
    evaluate_masks,
    implements_table,
    lattice_truthtable,
    site_masks,
)
from .placement import (
    SITE_CONST0,
    SITE_CONST1,
    SITE_LITERAL,
    defect_map_states,
    lattice_site_codes,
    placement_valid_batch,
    placement_valid_grid,
)

__all__ = [
    "CHUNK_ASSIGNMENTS",
    "CHUNK_GRIDS",
    "MAX_PACKED_ROWS",
    "SITE_CONST0",
    "SITE_CONST1",
    "SITE_LITERAL",
    "best_path_delay_batch",
    "conduction_tensor",
    "defect_map_states",
    "evaluate_assignments",
    "evaluate_labellings",
    "evaluate_masks",
    "implements_table",
    "lattice_critical_delay_batch",
    "lattice_site_codes",
    "lattice_truthtable",
    "onset_critical_delay_batch",
    "placement_valid_batch",
    "placement_valid_grid",
    "site_masks",
    "top_bottom_connected_batch",
]
