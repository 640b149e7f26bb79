"""The workload-family registry: one parser per family for every front end.

* ``faultsim`` / ``varsweep`` — the Monte-Carlo campaigns of
  :mod:`repro.faultlab.campaign` and :mod:`repro.varsim.campaign` (the
  varsweep lattice is the dual construction of the named benchmark).  The
  batch server and ``nanoxbar faultsim`` / ``varsweep`` build their specs
  through the same :attr:`CampaignFamily.spec` parser as grid points do, and a
  grid point is computed as the one-point campaign it parses to, so all of
  them share point keys and store payloads and dedup against each other.
* ``synthesis`` — one portfolio race per (benchmark, strategy set).
* ``bench`` — SOP metric extraction per benchmark (the Fig. 3/5 size
  formula inputs).

Every ``key`` is content-addressed (never position-derived) and every
``compute`` a pure function of the params, so a lease-expired point
recomputed by another worker is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..engine import DEFAULT_STRATEGIES, known_strategies, lattice_to_text, run_portfolio
from ..engine.campaign import build_spec, check_keys, request_keys
from ..faultlab import campaign as faultsim_campaign
from ..varsim import campaign as varsweep_campaign


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


def parse_strategies(value: Any) -> tuple[str, ...]:
    """A non-empty list of strategy names the portfolio knows."""
    if not isinstance(value, (list, tuple)) or not value:
        raise GridPointError(
            f"'strategies' must be a non-empty list, got {value!r}")
    unknown = [name for name in value if name not in known_strategies()]
    if unknown:
        raise GridPointError(f"unknown strategies {unknown}")
    return tuple(value)


def _varsweep_spec_from_params(params: dict[str, Any], point: bool = False):
    """The varsweep parser: ``bench`` names the lattice, the rest the spec.

    The crossbar defaults to the lattice's size, at least 16 x 16.
    """
    from ..synthesis import synthesize_lattice_dual

    lattice = synthesize_lattice_dual(_benchmark(params).function.on)
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

    def compute(self, spec, processes: int) -> dict:
        (estimate,) = self.iterate(spec, None, processes)
        return self.encode(estimate)

    def validate(self, spec, payload: Any) -> bool:
        return self.decode(spec.points()[0], payload) is not None


class _Synthesis:
    """One portfolio race per (benchmark, strategy set)."""

    def parse(self, params: dict[str, Any]):
        check_keys(params, {"bench", "strategies"})
        strategies = params.get("strategies", list(DEFAULT_STRATEGIES))
        if isinstance(strategies, str):
            strategies = [name for name in strategies.split(",") if name]
        return _benchmark(params), parse_strategies(strategies)

    def key(self, parsed) -> str:
        benchmark, strategies = parsed
        return (f"grid/synthesis/v1/{benchmark.name}"
                f"/{benchmark.function.on.content_hash()}"
                f"/{','.join(strategies)}")

    def compute(self, parsed, processes: int) -> dict:
        benchmark, strategies = parsed
        result = run_portfolio(benchmark.function.on, strategies)
        return {
            "bench": benchmark.name,
            "n": benchmark.n,
            "strategy": result.strategy,
            "rows": result.lattice.rows,
            "cols": result.lattice.cols,
            "area": result.area,
            "lattice": lattice_to_text(result.lattice),
            "outcomes": [
                {"strategy": outcome.strategy, "status": outcome.status,
                 "area": outcome.area}
                for outcome in result.outcomes
            ],
        }

    def validate(self, parsed, payload: Any) -> bool:
        return (isinstance(payload, dict)
                and isinstance(payload.get("lattice"), str)
                and isinstance(payload.get("area"), int))


class _Bench:
    """SOP metric extraction for one benchmark."""

    def parse(self, params: dict[str, Any]):
        check_keys(params, {"bench"})
        return _benchmark(params)

    def key(self, benchmark) -> str:
        return (f"grid/bench/v1/{benchmark.name}"
                f"/{benchmark.function.on.content_hash()}")

    def compute(self, benchmark, processes: int) -> dict:
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


def compute(family: str, params: dict[str, Any], processes: int = 1) -> dict:
    """Run one point from scratch; deterministic in ``params`` alone."""
    handler, parsed = _parse(family, params)
    return handler.compute(parsed, processes)


def validate_payload(family: str, params: dict[str, Any],
                     payload: Any) -> bool:
    """Is this persisted payload a complete answer for the point?"""
    try:
        handler, parsed = _parse(family, params)
    except GridPointError:
        return False
    return handler.validate(parsed, payload)
