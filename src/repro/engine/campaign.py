"""The Monte-Carlo point runner and request parser the campaigns share.

The Section IV campaign families (:mod:`repro.faultlab.campaign`,
:mod:`repro.varsim.campaign`) differ only in what one seeded trial batch
computes: :class:`PointRunner` runs every family's points alike, and
:func:`build_spec` parses their requests with the spec dataclass as the
only schema.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
import typing
from typing import Any, Callable, Iterable, Iterator

from ..obs import get_logger, log_event, metrics, tracing
from .pool import iter_sharded
from .store import JsonStore


class PointRunner:
    """One campaign family's point loop.

    ``task`` is the module-level batch function pool workers unpickle (pure
    in its task tuple, so serial == pooled bit-exact); ``fold(point,
    results)`` makes a point's estimate; ``encode`` / ``decode(point,
    payload)`` are the store payload codec (``None``: invalid payload).
    Each computed point reports a ``<layer>.point`` span and the
    ``campaign_point_seconds`` / ``campaign_points_total`` series.
    """

    def __init__(self, family: str, layer: str, task: Callable[[Any], Any],
                 fold: Callable[[Any, list], Any],
                 encode: Callable[[Any], Any],
                 decode: Callable[[Any, Any], Any]):
        self.task, self.fold = task, fold
        self.encode, self.decode = encode, decode
        self._span = f"{layer}.point"
        self._log = get_logger(layer)
        registry = metrics.registry()
        self._seconds = registry.histogram(
            "campaign_point_seconds",
            "wall-clock per completed campaign grid point",
            labels={"family": family})
        self._points = {
            status: registry.counter(
                "campaign_points_total",
                "campaign grid points by terminal status",
                labels={"family": family, "status": status})
            for status in ("completed", "cached", "failed")}

    def iter_points(self, points: Iterable[Any],
                    tasks: Callable[[Any], list],
                    store: JsonStore | str | None = None,
                    processes: int = 1) -> Iterator[Any]:
        """Yield one estimate per point, in order, as each completes.

        ``tasks(point)`` lists the point's seeded batch tasks.  ``store``
        is a :class:`~repro.engine.store.JsonStore`, a path to open one at
        (closed when exhausted) or ``None``; fresh points are persisted
        before they are yielded, so an interrupted campaign resumes.  The
        pool (``processes`` wide, bit-identical to serial) keeps the whole
        grid's batches in flight: it samples point ``i+1`` while ``i`` is
        yielded.
        """
        with contextlib.ExitStack() as opened:
            json_store = (opened.enter_context(JsonStore(store))
                          if isinstance(store, str) else store)
            # Plan the whole grid first (store probes are cheap reads), so
            # one shared pool can pipeline every fresh batch across points.
            plans: list[tuple[Any, Any, int]] = []
            batches: list = []
            for point in points:
                payload = (json_store.get(point.key())
                           if json_store is not None else None)
                cached = (self.decode(point, payload)
                          if payload is not None else None)
                if cached is not None:
                    plans.append((point, cached, 0))
                    continue
                point_tasks = tasks(point)
                batches.extend(point_tasks)
                plans.append((point, None, len(point_tasks)))

            results = iter_sharded(self.task, batches, processes)
            for point, cached, count in plans:
                if cached is not None:
                    self._points["cached"].inc()
                    yield cached
                    continue
                # The span closes before the yield: it times sampling +
                # persist, not how long the consumer sits on the estimate.
                with tracing.span(self._span, key=point.key()):
                    start = time.perf_counter()
                    try:
                        estimate = self.fold(
                            point, [next(results) for _ in range(count)])
                        if json_store is not None:
                            json_store.put(point.key(),
                                           self.encode(estimate))
                    except Exception:
                        self._points["failed"].inc()
                        raise
                    seconds = time.perf_counter() - start
                    self._seconds.observe(seconds)
                    self._points["completed"].inc()
                    log_event(self._log, "point done", key=point.key(),
                              trials=point.trials,
                              seconds=round(seconds, 6))
                yield estimate


@dataclasses.dataclass
class CampaignRun:
    """Everything one drained campaign iterator produced."""

    spec: Any
    estimates: list
    elapsed: float = 0.0
    cache_hits: int = 0
    trials_sampled: int = 0

    @classmethod
    def drain(cls, spec: Any, estimates: Iterable[Any]) -> Any:
        start = time.perf_counter()
        done = list(estimates)
        return cls(spec, done, time.perf_counter() - start,
                   sum(1 for est in done if est.cache_hit),
                   sum(est.point.trials for est in done if not est.cache_hit))

    @property
    def throughput(self) -> float:
        """Freshly sampled trials per second (cache hits excluded)."""
        return self.trials_sampled / self.elapsed if self.elapsed > 0 else 0.0


#: Parameter types per field annotation (integers pass as floats).
_ACCEPTS: dict[type, tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,)}


@functools.cache
def _schema(spec_type: Any, point: bool) -> dict[str, tuple[Any, type, bool]]:
    """``{parameter: (field, scalar type, is a tuple)}``.

    With ``point=True`` a tuple field is named by its ``axis`` metadata.
    Fields of other types (the varsweep lattice) are never parameters.
    """
    hints = typing.get_type_hints(spec_type)
    schema = {}
    for spec_field in dataclasses.fields(spec_type):
        hint = hints[spec_field.name]
        many = typing.get_origin(hint) is tuple
        kind = typing.get_args(hint)[0] if many else hint
        name = (spec_field.metadata.get("axis") if point and many
                else spec_field.name)
        if kind in _ACCEPTS and name is not None:
            schema[name] = (spec_field, kind, many)
    return schema


def request_keys(spec_type: Any) -> frozenset[str]:
    """The parameter names :func:`build_spec` accepts in a request."""
    return frozenset(_schema(spec_type, point=False))


def check_keys(params: dict[str, Any], known: Iterable[str]) -> None:
    """Reject parameters outside ``known``, naming them."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} "
                         f"(expected some of {sorted(known)})")


def _scalar(name: str, value: Any, kind: type) -> Any:
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        raise ValueError(f"parameter {name!r} must be {kind.__name__}, "
                         f"got {value!r}")
    return kind(value)


def build_spec(spec_type: Any, params: dict[str, Any], *,
               point: bool = False,
               given: dict[str, Any] | None = None) -> Any:
    """Build ``spec_type`` from a flat mapping; the dataclass is the schema.

    A request (the server, the CLI) names fields, list-valued ones as
    lists; one grid point (``point=True``) gives one value per axis.
    Parameters override ``given`` (what the family supplies), and the
    dataclass defaults fill the rest.  Unknown, missing and mistyped
    parameters raise :class:`ValueError` naming the key.
    """
    schema = _schema(spec_type, point)
    check_keys(params, schema)
    kwargs = dict(given or {})
    for name, (spec_field, kind, many) in schema.items():
        if name not in params:
            if (spec_field.name not in kwargs
                    and spec_field.default is dataclasses.MISSING):
                raise ValueError(f"missing required parameter {name!r}")
        elif not many:
            kwargs[spec_field.name] = _scalar(name, params[name], kind)
        elif point:
            kwargs[spec_field.name] = (_scalar(name, params[name], kind),)
        elif isinstance(params[name], (list, tuple)):
            kwargs[spec_field.name] = tuple(
                _scalar(name, value, kind) for value in params[name])
        else:
            raise ValueError(f"parameter {name!r} must be a list, "
                             f"got {params[name]!r}")
    return spec_type(**kwargs)
