"""The Monte-Carlo point runner the campaigns share, and the request parser.

The Section IV campaign families (:mod:`repro.faultlab.campaign`,
:mod:`repro.varsim.campaign`) differ only in what one seeded trial batch
computes: :class:`PointRunner` runs every family's points alike.  Every
request (a campaign, a synthesis job and its fault tolerance, a grid
config) is parsed by :func:`build_spec` with its dataclass as the only
schema, and each request dataclass holds its fields to one type rule on
construction (:func:`check_fields`).
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


#: The values a scalar annotation accepts (an integer passes as a float).
_ACCEPTS: dict[Any, tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,)}


@functools.cache
def _parts(hint: Any) -> tuple[bool, Any, Any, tuple]:
    """``(allows None, X, origin of X, arguments of X)`` for ``X | None``
    or ``X`` (cached: the checks run on every request)."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        (hint,) = [arg for arg in args if arg is not type(None)]
    return optional, hint, typing.get_origin(hint), typing.get_args(hint)


def _typed(name: str, value: Any, hint: Any) -> Any:
    """``value`` as a field annotated ``hint`` stores it, by the type rule:
    the annotated type exactly, booleans never, an integer (stored as a
    float) for a float, a list (stored as a tuple) for a tuple, ``None``
    only where the annotation allows it.  Else :class:`ValueError`."""
    optional, hint, origin, args = _parts(hint)
    if hint is Any or (value is None and optional):
        return value
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            if args[-1] is Ellipsis:
                return tuple(_typed(name, item, args[0]) for item in value)
            if len(value) == len(args):
                return tuple(_typed(name, item, arg)
                             for item, arg in zip(value, args))
        raise ValueError(f"parameter {name!r} must be a list, got {value!r}")
    if isinstance(value, bool) or not isinstance(value,
                                                 _ACCEPTS.get(hint, hint)):
        raise ValueError(f"parameter {name!r} must be {hint.__name__}, "
                         f"got {value!r}")
    try:
        return float(value) if hint is float else value
    except OverflowError:
        raise ValueError(f"parameter {name!r} is too large for a float") \
            from None


@functools.cache
def _hints(spec_type: Any) -> dict[str, Any]:
    """``{field: annotation}`` of the dataclass ``spec_type``."""
    hints = typing.get_type_hints(spec_type)
    return {item.name: hints[item.name]
            for item in dataclasses.fields(spec_type)}


def check_fields(spec: Any) -> None:
    """Hold every field of the dataclass ``spec`` to the type rule, storing
    the converted values; each request dataclass calls this first in its
    ``__post_init__``."""
    for name, hint in _hints(type(spec)).items():
        object.__setattr__(spec, name, _typed(name, getattr(spec, name), hint))


def check_distinct(spec: Any, *names: str) -> None:
    """Reject a value repeated in one of the list fields ``names`` of
    ``spec``, naming field and value: each value is one grid point (or
    threshold), answered once."""
    for name in names:
        seen: set[Any] = set()
        for value in getattr(spec, name):
            if value in seen:
                raise ValueError(f"parameter {name!r} repeats {value!r}")
            seen.add(value)


@functools.cache
def _schema(spec_type: Any, point: bool) -> dict[str, tuple[Any, Any, bool]]:
    """``{parameter: (field, annotation, is an axis)}``: the fields of
    scalar type, also in a tuple or with ``None``.  With ``point=True`` a
    tuple field is named by its ``axis`` metadata (no parameter without)."""
    schema: dict[str, tuple[Any, Any, bool]] = {}
    for spec_field in dataclasses.fields(spec_type):
        hint = _hints(spec_type)[spec_field.name]
        _, bare, origin, args = _parts(hint)
        many = origin is tuple
        axis = point and many
        name = spec_field.metadata.get("axis") if axis else spec_field.name
        if (args[0] if many else bare) in _ACCEPTS and name is not None:
            schema[name] = (spec_field, hint, axis)
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


def build_spec(spec_type: Any, params: dict[str, Any], *,
               point: bool = False,
               given: dict[str, Any] | None = None) -> Any:
    """Build ``spec_type`` from a flat mapping; the dataclass is the schema.

    A request (the server, the CLI, a grid config) names fields,
    list-valued ones as lists; one grid point (``point=True``) gives one
    value per axis.  Parameters override ``given`` (what the caller
    supplies), and the dataclass defaults fill the rest.  Unknown and
    missing parameters raise :class:`ValueError` naming the key, and so
    does the dataclass for a mistyped one (:func:`check_fields`).
    """
    schema = _schema(spec_type, point)
    check_keys(params, schema)
    kwargs = dict(given or {})
    for name, (spec_field, hint, axis) in schema.items():
        if name in params:
            # An axis value is checked under the name the point gives it.
            kwargs[spec_field.name] = (_typed(name, [params[name]], hint)
                                       if axis else params[name])
        elif (spec_field.name not in kwargs
              and spec_field.default is dataclasses.MISSING):
            raise ValueError(f"missing required parameter {name!r}")
    return spec_type(**kwargs)
