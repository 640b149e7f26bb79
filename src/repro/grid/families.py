"""The workload-family registry: one parser per family for every front end.

* ``faultsim`` / ``varsweep`` — the Monte-Carlo campaigns of
  :mod:`repro.faultlab.campaign` and :mod:`repro.varsim.campaign` (the
  varsweep lattice is the dual construction of the named benchmark).  The
  batch server and ``nanoxbar faultsim`` / ``varsweep`` build their specs
  through the same :attr:`CampaignFamily.spec` parser as grid points do, and a
  grid point is computed as the one-point campaign it parses to, so all of
  them share point keys and store payloads and dedup against each other.
* ``synthesis`` — one synthesis job, answered by the
  :class:`~repro.engine.BatchEngine` on the grid's own store.  Served
  synthesis jobs parse through the same :func:`parse_synthesis_job`, and
  a point's payload is the served record minus ``cache_hit``, so a grid
  sweep and a served batch share the engine's NPN cache rows both ways.
* ``bench`` — SOP metric extraction per benchmark (the Fig. 3/5 size
  formula inputs).

Every ``key`` is content-addressed (never position-derived) and every
``compute`` a pure function of the params, so a lease-expired point
recomputed by another worker is bit-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Any, Callable, Iterator

from ..boolean.truthtable import TruthTable
from ..engine import (
    BatchEngine,
    FaultToleranceReport,
    FaultToleranceSpec,
    JobResult,
    JsonStore,
    SynthesisJob,
    known_strategies,
    lattice_from_text,
    lattice_to_text,
)
from ..engine.campaign import build_spec, check_keys, request_keys
from ..faultlab import campaign as faultsim_campaign
from ..varsim import campaign as varsweep_campaign
from ..xbareval import implements_table


class GridConfigError(ValueError):
    """A malformed grid config (bad key, type, family, or empty grid)."""


class GridPointError(ValueError):
    """A parameter dict the family rejects."""


def _benchmark(params: dict[str, Any]):
    """The suite benchmark the ``bench`` parameter names."""
    from ..eval.benchsuite import by_name

    if "bench" not in params:
        raise GridPointError("missing required parameter 'bench'")
    try:
        return by_name(params["bench"])
    except KeyError as error:
        raise GridPointError(str(error.args[0])) from None


#: The keys that name a synthesis job's function as a truth table.
_TABLE_KEYS = {"label", "n", "bits"}


def parse_synthesis_job(params: dict[str, Any]) -> SynthesisJob:
    """The synthesis-job parser of the server and the grid.

    The function is ``bench`` (a suite name) or ``label`` + ``n`` +
    ``bits`` (its packed truth table).  ``strategies`` is a list or a
    comma string (the full portfolio by default); ``fault_tolerance`` an
    object of :class:`~repro.engine.FaultToleranceSpec` fields.  Both
    parse through :func:`~repro.engine.campaign.build_spec`: unknown keys,
    mistyped values and ``bench`` next to a truth-table key are rejected
    by name.
    """
    if "bench" in params and params.keys() & _TABLE_KEYS:
        raise GridPointError(
            f"'bench' names the function; drop "
            f"{sorted(params.keys() & _TABLE_KEYS)}")
    check_keys(params, {"strategies", "fault_tolerance",
                        *({"bench"} if "bench" in params else _TABLE_KEYS)})
    values = {key: value for key, value in params.items()
              if key not in ("bench", "fault_tolerance")}
    if isinstance(values.get("strategies"), str):
        values["strategies"] = [name for name in values["strategies"].split(",")
                                if name]
    given: dict[str, Any] = {}
    if "fault_tolerance" in params:
        if not isinstance(params["fault_tolerance"], dict):
            raise GridPointError("fault_tolerance must be a JSON object")
        try:
            given["fault_tolerance"] = build_spec(FaultToleranceSpec,
                                                  params["fault_tolerance"])
        except ValueError as error:
            raise GridPointError(
                f"bad fault_tolerance spec: {error}") from None
    if "bench" in params:
        benchmark = _benchmark(params)
        table = benchmark.function.on
        given.update(label=benchmark.name, n=table.n, bits=table.bits)
    job = build_spec(SynthesisJob, values, given=given)
    unknown = [name for name in job.strategies
               if name not in known_strategies()]
    if unknown:
        raise GridPointError(f"unknown strategies {unknown}")
    return job


def job_key(job: SynthesisJob) -> str:
    """The content address of a synthesis job: what its answer depends on.

    The function *content* (not how the client spelled it), the strategy
    portfolio and any fault-tolerance post-processing.
    """
    digest = TruthTable.bits_content_hash(job.n, job.bits)
    return (f"{job.label}/{job.n}/{digest}"
            f"/{','.join(job.strategies)}/{job.fault_tolerance!r}")


def job_result_record(result: JobResult) -> dict:
    """One synthesis answer as a JSON record (lattice in text form).

    A job that asked for fault tolerance also gets its
    :class:`~repro.engine.FaultToleranceReport` as a ``fault_tolerance``
    object; other jobs' records carry no such key.
    """
    record = {
        "label": result.label,
        "n": result.n,
        "strategy": result.strategy,
        "rows": result.shape[0],
        "cols": result.shape[1],
        "area": result.area,
        "cache_hit": result.cache_hit,
        "lattice": lattice_to_text(result.lattice),
    }
    if result.fault_tolerance is not None:
        record["fault_tolerance"] = asdict(result.fault_tolerance)
    return record


def _is_report(report: Any) -> bool:
    """A ``fault_tolerance`` record: every report field, with its type."""
    return (isinstance(report, dict)
            and set(report) == {item.name
                                for item in fields(FaultToleranceReport)}
            and isinstance(report["mapped"], bool)
            and all(type(value) is int
                    for name, value in report.items() if name != "mapped"))


@lru_cache(maxsize=None)
def _dual_lattice(bench: str):
    """The dual-construction lattice of a suite benchmark, built once per
    process (the suite is fixed, so the cache is bounded)."""
    from ..eval.benchsuite import by_name
    from ..synthesis import synthesize_lattice_dual

    return synthesize_lattice_dual(by_name(bench).function.on)


def _varsweep_spec_from_params(params: dict[str, Any], point: bool = False):
    """The varsweep parser: ``bench`` names the lattice, the rest the spec.

    The crossbar defaults to the lattice's size, at least 16 x 16.
    """
    lattice = _dual_lattice(_benchmark(params).name)
    return build_spec(
        varsweep_campaign.VariationCampaignSpec,
        {key: value for key, value in params.items() if key != "bench"},
        point=point,
        given={"lattice": lattice,
               "crossbar_rows": max(16, lattice.rows),
               "crossbar_cols": max(16, lattice.cols)})


@dataclass(frozen=True)
class CampaignFamily:
    """A Monte-Carlo family, which the server and CLI run as well.

    ``spec(params, point=False)`` is its one parser; ``keys`` its request
    keys (see :func:`~repro.engine.campaign.build_spec`).
    """

    spec: Callable[..., Any]
    keys: frozenset[str]
    iterate: Callable[..., Iterator[Any]]
    run: Callable[..., Any]
    encode: Callable[[Any], dict]
    decode: Callable[..., Any]
    record: Callable[[Any], dict]

    def parse(self, params: dict[str, Any]):
        return self.spec(params, True)

    def key(self, spec) -> str:
        return spec.points()[0].key()

    def compute(self, spec, processes: int, store: JsonStore | None) -> dict:
        (estimate,) = self.iterate(spec, None, processes)
        return self.encode(estimate)

    def validate(self, spec, payload: Any) -> bool:
        return self.decode(spec.points()[0], payload) is not None


class _Synthesis:
    """One synthesis job, answered by the engine on the grid's store."""

    parse = staticmethod(parse_synthesis_job)

    def key(self, job: SynthesisJob) -> str:
        return f"grid/synthesis/v2/{job_key(job)}"

    def compute(self, job: SynthesisJob, processes: int,
                store: JsonStore | None) -> dict:
        with BatchEngine(":memory:" if store is None else store,
                         processes) as engine:
            (result,) = engine.run([job])
        record = job_result_record(result)
        del record["cache_hit"]
        return record

    def validate(self, job: SynthesisJob, payload: Any) -> bool:
        """The payload's lattice must implement the job's function, and a
        fault-tolerance job's payload must carry its report."""
        try:
            lattice = lattice_from_text(job.n, payload["lattice"])
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return False
        report = payload.get("fault_tolerance")
        report_ok = (report is None if job.fault_tolerance is None
                     else _is_report(report))
        return (report_ok and isinstance(payload.get("strategy"), str)
                and (payload.get("label"), payload.get("n"),
                     payload.get("rows"), payload.get("cols"),
                     payload.get("area"))
                == (job.label, job.n, lattice.rows, lattice.cols,
                    lattice.area)
                and implements_table(lattice, job.table))


class _Bench:
    """SOP metric extraction for one benchmark."""

    def parse(self, params: dict[str, Any]):
        check_keys(params, {"bench"})
        return _benchmark(params)

    def key(self, benchmark) -> str:
        return (f"grid/bench/v1/{benchmark.name}"
                f"/{benchmark.function.on.content_hash()}")

    def compute(self, benchmark, processes: int,
                store: JsonStore | None) -> dict:
        return {"bench": benchmark.name, **benchmark.function.sop_metrics()}

    def validate(self, benchmark, payload: Any) -> bool:
        return (isinstance(payload, dict)
                and isinstance(payload.get("products"), int)
                and isinstance(payload.get("dual_products"), int))


_REGISTRY: dict[str, Any] = {
    "synthesis": _Synthesis(),
    "faultsim": CampaignFamily(
        spec=faultsim_campaign.spec_from_params,
        keys=request_keys(faultsim_campaign.CampaignSpec),
        iterate=faultsim_campaign.iter_campaign,
        run=faultsim_campaign.run_campaign,
        encode=faultsim_campaign.payload_for,
        decode=faultsim_campaign.estimate_from_payload,
        record=faultsim_campaign.estimate_record),
    "varsweep": CampaignFamily(
        spec=_varsweep_spec_from_params,
        keys=request_keys(varsweep_campaign.VariationCampaignSpec)
        | {"bench"},
        iterate=varsweep_campaign.iter_variation_campaign,
        run=varsweep_campaign.run_variation_campaign,
        encode=varsweep_campaign.payload_for,
        decode=varsweep_campaign.estimate_from_payload,
        record=varsweep_campaign.estimate_record),
    "bench": _Bench(),
}

#: The workload families a grid can sweep.
FAMILIES = tuple(_REGISTRY)

#: The Monte-Carlo families, by name.
CAMPAIGNS = {name: family for name, family in _REGISTRY.items()
             if isinstance(family, CampaignFamily)}


def _parse(family: str, params: dict[str, Any]):
    try:
        handler = _REGISTRY[family]
    except KeyError:
        raise GridConfigError(
            f"unknown family {family!r} "
            f"(expected one of {', '.join(FAMILIES)})") from None
    try:
        return handler, handler.parse(params)
    except ValueError as error:
        raise GridPointError(f"bad {family} point: {error}") from error


def point_key(family: str, params: dict[str, Any]) -> str:
    """Content-addressed store key for one (family, params) point."""
    handler, parsed = _parse(family, params)
    return handler.key(parsed)


def compute(family: str, params: dict[str, Any], processes: int = 1,
            store: JsonStore | None = None) -> dict:
    """Run one point; deterministic in ``params`` alone.

    ``store`` is the grid's store: the synthesis family reads and fills
    the engine's NPN cache rows there (an ephemeral cache without one).
    The other families compute from scratch either way.
    """
    handler, parsed = _parse(family, params)
    return handler.compute(parsed, processes, store)


def validate_payload(family: str, params: dict[str, Any],
                     payload: Any) -> bool:
    """Is this persisted payload a complete answer for the point?"""
    try:
        handler, parsed = _parse(family, params)
    except GridPointError:
        return False
    return handler.validate(parsed, payload)
