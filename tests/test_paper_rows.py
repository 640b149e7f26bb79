"""The costliest paper experiments reproduce the benchmark's pinned rows.

``perfbench`` pins a digest of every paper experiment's full-mode rows
and checks it in its ``paper`` workload.  This runs the experiments whose
evaluation is batched or shared (the Monte-Carlo trials of ``tmr``,
``yield`` and ``recovery``; the P-circuit blocks and site rewrites behind
``pcircuit``, ``fig5`` and ``dreducible``) and the ones that read defect
maps crosspoint by crosspoint (BISM in ``bism``, the defect-unaware flow
in ``fig6``, lattice placement in ``latticemap``) in full mode against
the same digests, on whichever flood dispatch and numpy this interpreter
has.
"""

import pytest
from perfbench.workloads.paper import ROW_DIGESTS, rows_digest

from repro.eval import get_experiment


@pytest.mark.parametrize("experiment_id", [
    "tmr", "yield", "recovery", "pcircuit", "fig5", "dreducible",
    "bism", "fig6", "latticemap",
])
def test_full_mode_rows_match_the_benchmark_digest(experiment_id):
    rows = get_experiment(experiment_id).run(False).rows
    assert rows_digest(rows) == ROW_DIGESTS[experiment_id]
