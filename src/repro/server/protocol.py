"""Wire format of the batch server: submissions in, per-point results out.

One JSON vocabulary shared by the asyncio app (:mod:`repro.server.app`),
the stdlib client (:mod:`repro.server.client`) and the CLI.  A client
submits one of the workload families::

    {"kind": "synthesis", "jobs": [{"bench": "xnor2"},
                                   {"label": "f", "n": 2, "bits": 6}],
     "strategies": ["dual", "pcircuit"]}

    {"kind": "faultsim", "n_values": [8], "k_values": [4, 8],
     "densities": [0.05], "trials": 200}

    {"kind": "varsweep", "bench": "xnor2", "sigmas": [0.2, 0.5],
     "crossbar_rows": 8, "crossbar_cols": 8, "trials": 100}

    {"kind": "grid", "config": {"name": "sweep", "family": "faultsim",
                                "grid": {"n": [8], "density": [0.05]},
                                "fixed": {"trials": 200}}}

and gets per-point JSON records back (one per synthesis job / campaign
grid point), streamed incrementally over the chunked endpoint.

Every submission normalises to a :class:`Submission` carrying a
**coalesce key**: a content address over what the computation depends on —
:meth:`repro.boolean.truthtable.TruthTable.content_hash` per synthesis
function (the same address the engine's NPN cache keys derive from) and
:meth:`~repro.faultlab.campaign.CampaignPoint.key` /
:meth:`~repro.varsim.campaign.VariationCampaignPoint.key` per campaign
point.  Concurrent identical submissions hash to the same key and share
one computation in the server's job queue.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ..engine import SynthesisJob
from ..engine.campaign import check_keys
from ..engine.store import GridRow
from ..faultlab import CampaignSpec
# Each family's per-point record lives with the family; the server
# re-exports it under its wire-format name.
from ..faultlab.campaign import estimate_record as fault_estimate_record  # noqa: F401
from ..grid import GridConfig, GridConfigError, GridPointError
from ..grid import config_from_dict as grid_config_from_dict
from ..grid.families import CAMPAIGNS, job_key, parse_synthesis_job
from ..grid.families import job_result_record as job_result_record
from ..varsim import VariationCampaignSpec
from ..varsim.campaign import estimate_record as variation_estimate_record  # noqa: F401

#: The workload families the server fronts.
KINDS = ("synthesis", *CAMPAIGNS, "grid")


class ProtocolError(ValueError):
    """A malformed submission (maps to HTTP 400)."""


@dataclass(frozen=True)
class Submission:
    """One normalised, runnable request.

    ``jobs`` is set for synthesis submissions, ``spec`` for the two
    campaign families and ``grid`` for declarative grid configs;
    ``echo`` is the normalised request as the result payload repeats it
    back.
    """

    kind: str
    coalesce_key: str
    points_total: int
    jobs: tuple[SynthesisJob, ...] | None = None
    spec: CampaignSpec | VariationCampaignSpec | None = None
    grid: GridConfig | None = None
    echo: dict | None = None


def _require(payload: dict, field: str) -> Any:
    if field not in payload:
        raise ProtocolError(f"submission misses required field {field!r}")
    return payload[field]


def _digest(kind: str, parts: list[str]) -> str:
    return f"{kind}:{hashlib.sha256('|'.join(parts).encode()).hexdigest()}"


# ----------------------------------------------------------------------
# Submissions
# ----------------------------------------------------------------------
def _parse_synthesis(payload: dict) -> Submission:
    entries = _require(payload, "jobs")
    if not isinstance(entries, list) or not entries:
        raise ProtocolError("synthesis submissions need a non-empty "
                            "'jobs' list")
    if not all(isinstance(entry, dict) for entry in entries):
        raise ProtocolError("synthesis jobs must be JSON objects")
    # Top-level strategies / fault_tolerance apply to every job; each job
    # (and the submission itself) parses through the grid family's parser.
    shared = {field: payload[field]
              for field in ("strategies", "fault_tolerance")
              if field in payload}
    try:
        check_keys(payload, {"kind", "jobs", "strategies",
                             "fault_tolerance"})
        jobs = tuple(parse_synthesis_job({**shared, **entry})
                     for entry in entries)
    except ValueError as error:
        raise ProtocolError(f"bad synthesis submission: {error}") from error
    # The coalesce key addresses the computation (see job_key), in
    # submission order.
    echo = {"kind": "synthesis",
            "jobs": [{"label": job.label, "n": job.n} for job in jobs]}
    return Submission(kind="synthesis",
                      coalesce_key=_digest("synthesis",
                                           [job_key(job) for job in jobs]),
                      points_total=len(jobs), jobs=jobs, echo=echo)


def _parse_campaign(kind: str, payload: dict) -> Submission:
    params = {key: value for key, value in payload.items() if key != "kind"}
    try:
        spec = CAMPAIGNS[kind].spec(params)
    except ValueError as error:
        raise ProtocolError(f"bad {kind} spec: {error}") from error
    points = spec.points()
    parts = [point.key() for point in points]
    fields: dict[str, Any]
    if kind == "faultsim":
        parts.append(f"k={','.join(str(k) for k in spec.k_values)}")
        fields = {"n_values": list(spec.n_values),
                  "k_values": list(spec.k_values),
                  "densities": list(spec.densities),
                  "models": list(spec.models),
                  "strategies": list(spec.strategies)}
    else:
        fields = {"bench": params["bench"], "sigmas": list(spec.sigmas),
                  "crossbar_rows": spec.crossbar_rows,
                  "crossbar_cols": spec.crossbar_cols}
    echo = {"kind": kind, **fields, "trials": spec.trials, "seed": spec.seed}
    return Submission(kind=kind, coalesce_key=_digest(kind, parts),
                      points_total=len(points), spec=spec, echo=echo)


def _parse_grid(payload: dict) -> Submission:
    raw = _require(payload, "config")
    if not isinstance(raw, dict):
        raise ProtocolError("grid submissions need a 'config' object")
    try:
        config = grid_config_from_dict(raw)
        keys = list(config.keyed_points())
    except (GridConfigError, GridPointError) as error:
        raise ProtocolError(f"bad grid config: {error}") from error
    echo = {"kind": "grid", "name": config.name, "family": config.family,
            "points": len(keys)}
    # Content over position: two configs sweeping the same points coalesce
    # regardless of axis order (the same sort grid_id_for applies).
    return Submission(kind="grid",
                      coalesce_key=_digest(
                          "grid", [config.family, *sorted(keys)]),
                      points_total=len(keys), grid=config, echo=echo)


def parse_submission(payload: Any) -> Submission:
    """Normalise one submitted JSON object (raises :class:`ProtocolError`)."""
    if not isinstance(payload, dict):
        raise ProtocolError("a submission must be a JSON object")
    kind = _require(payload, "kind")
    if kind == "synthesis":
        return _parse_synthesis(payload)
    if kind in CAMPAIGNS:
        return _parse_campaign(kind, payload)
    if kind == "grid":
        return _parse_grid(payload)
    raise ProtocolError(f"unknown submission kind {kind!r} "
                        f"(expected one of {', '.join(KINDS)})")


# ----------------------------------------------------------------------
# Per-point result records
# ----------------------------------------------------------------------
def grid_row_record(row: GridRow, verdict: str) -> dict:
    """One terminal grid row as a JSON record."""
    return {
        "point_key": row.point_key,
        "params": row.params,
        "status": row.status,
        "attempts": row.attempts,
        "result": row.result,
        "error": row.error,
        "cache_hit": verdict == "cached",
    }


def dumps(obj: Any) -> bytes:
    """Canonical compact JSON bytes (the one encoder both sides use)."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
