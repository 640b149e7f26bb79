"""Declarative experiment grids with claimable work (``nanoxbar grid``).

One config file names a workload family (``synthesis`` / ``faultsim`` /
``varsweep`` / ``bench``), a cartesian (or explicit) parameter grid, and
execution policy.  The grid is materialised as rows in the shared WAL
:class:`~repro.engine.store.JsonStore` — the py_experimenter shape: many
workers (processes or hosts sharing one store file) claim rows under
leases, fill them, and timestamp them, with lease expiry + bounded retry
returning crashed workers' rows to the pool:

* :mod:`repro.grid.families` — the workload-family registry (one parser
  per family, shared with the batch server and the CLI);
* :mod:`repro.grid.config`   — the config format and grid identity;
* :mod:`repro.grid.runner`   — plan / claim-loop / status / export;
* :mod:`repro.grid.worker`   — the ``python -m repro.grid.worker``
  process entry ``grid run --workers N`` fans out to.

Because point keys and payloads are shared with the campaign runners,
grid sweeps and ``run_campaign`` dedup against each other in both
directions, and any point recomputed after a lease expiry is
bit-identical (content-addressed seeds).
"""

from .config import (
    FAMILIES,
    GridConfig,
    GridConfigError,
    config_from_dict,
    grid_id_for,
    load_config,
)
from .families import GridPointError, compute, point_key, validate_payload
from .runner import (
    export_rows,
    grid_status,
    iter_grid_points,
    plan,
    release_claims,
    run_workers,
    work_loop,
)

__all__ = [
    "FAMILIES",
    "GridConfig",
    "GridConfigError",
    "GridPointError",
    "compute",
    "config_from_dict",
    "export_rows",
    "grid_id_for",
    "grid_status",
    "iter_grid_points",
    "load_config",
    "plan",
    "point_key",
    "release_claims",
    "run_workers",
    "work_loop",
]
