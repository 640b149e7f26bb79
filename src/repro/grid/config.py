"""Declarative grid configs: one file names a whole experiment sweep.

A grid config is a small TOML or JSON document::

    name = "faultsim-small"
    family = "faultsim"            # synthesis | faultsim | varsweep | bench
    workers = 2                    # execution policy (overridable on the CLI)
    lease_seconds = 60.0
    max_attempts = 3
    processes = 1                  # per-worker pool size

    [grid]                         # cartesian axes, expanded in axis order
    n = [8, 10]
    density = [0.05, 0.1]

    [fixed]                        # constants merged into every point
    trials = 200
    seed = 7

or, instead of ``[grid]``, an explicit point list::

    points = [{n = 8, density = 0.05}, {n = 12, density = 0.2}]

:func:`load_config` parses either format (TOML requires Python 3.11+;
re-encode as JSON on older interpreters), :meth:`GridConfig.expand`
produces the ordered per-point parameter dicts, and
:func:`grid_id_for` derives the grid's identity from its *content* — the
family plus the sorted content-addressed point keys — so editing a config
yields a fresh grid while re-running an unchanged one resumes the old
rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Any

from ..engine.campaign import build_spec, check_fields, request_keys
from .families import FAMILIES, GridConfigError, point_key


@dataclass(frozen=True)
class GridConfig:
    """One parsed grid config (value semantics; see module docstring)."""

    name: str
    family: str
    #: Ordered cartesian axes: ``(axis_name, (value, ...))`` pairs.
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    #: Constants merged into every expanded point (axis values win).
    fixed: tuple[tuple[str, Any], ...] = ()
    #: Explicit point list (mutually exclusive with ``axes``).
    points: tuple[tuple[tuple[str, Any], ...], ...] = ()
    workers: int = 1
    lease_seconds: float = 60.0
    max_attempts: int = 3
    processes: int = 1
    #: Default store path (the CLI's ``--store`` overrides it).
    store: str | None = None

    def __post_init__(self) -> None:
        try:
            check_fields(self)
        except ValueError as error:
            raise GridConfigError(str(error)) from None
        if not self.name:
            raise GridConfigError("grid configs need a non-empty 'name'")
        if self.family not in FAMILIES:
            raise GridConfigError(
                f"unknown family {self.family!r} "
                f"(expected one of {', '.join(FAMILIES)})")
        if self.axes and self.points:
            raise GridConfigError(
                "'grid' axes and an explicit 'points' list are mutually "
                "exclusive")
        if not self.axes and not self.points:
            raise GridConfigError(
                "a grid config needs a '[grid]' axes table or a 'points' "
                "list")
        for key in ("workers", "max_attempts", "processes"):
            if getattr(self, key) < 1:
                raise GridConfigError(
                    f"{key} must be >= 1, got {getattr(self, key)!r}")
        # A NaN deadline is stored as NULL, which no lease sweep matches.
        if not math.isfinite(self.lease_seconds) or self.lease_seconds <= 0:
            raise GridConfigError(f"lease_seconds must be finite and > 0, "
                                  f"got {self.lease_seconds!r}")

    def expand(self) -> list[dict[str, Any]]:
        """The ordered per-point parameter dicts this config describes.

        Cartesian axes expand in declaration order (the last axis varies
        fastest, like nested loops); explicit points keep list order.
        ``fixed`` entries are merged underneath each point.
        """
        base = dict(self.fixed)
        if self.points:
            return [{**base, **dict(point)} for point in self.points]
        names = [axis for axis, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [
            {**base, **dict(zip(names, combo))}
            for combo in product(*value_lists)
        ]

    def keyed_points(self) -> dict[str, dict[str, Any]]:
        """Each expanded point by its content-addressed key, in order.

        A grid holds one row per key, so two points with one key (a
        repeated axis value, or a point that spells out a default) are a
        config error naming the key.
        """
        keyed: dict[str, dict[str, Any]] = {}
        for params in self.expand():
            key = point_key(self.family, params)
            if key in keyed:
                raise GridConfigError(f"the config names point {key!r} "
                                      f"twice: {keyed[key]} and {params}")
            keyed[key] = params
        return keyed


#: The config sections that are not :class:`GridConfig` fields.
_SECTIONS = frozenset({"grid", "fixed", "points"})


def _as_pairs(table: Any, where: str) -> tuple[tuple[str, Any], ...]:
    if not isinstance(table, dict):
        raise GridConfigError(f"{where} must be a table/object")
    return tuple(table.items())


def config_from_dict(data: dict[str, Any]) -> GridConfig:
    """Validate and normalise one decoded config document."""
    if not isinstance(data, dict):
        raise GridConfigError("a grid config must be a table/object")
    unknown = sorted(set(data) - _SECTIONS - request_keys(GridConfig))
    if unknown:
        raise GridConfigError(f"unknown grid config keys {unknown}")

    given: dict[str, Any] = {
        "fixed": _as_pairs(data.get("fixed", {}), "'fixed'")}
    if "grid" in data:
        grid = data["grid"]
        if not isinstance(grid, dict) or not grid:
            raise GridConfigError("'grid' must be a non-empty table of "
                                  "axis -> value-list")
        for axis, values in grid.items():
            if not isinstance(values, list) or not values:
                raise GridConfigError(
                    f"grid axis {axis!r} must map to a non-empty list")
        given["axes"] = tuple(grid.items())
    if "points" in data:
        raw_points = data["points"]
        if not isinstance(raw_points, list) or not raw_points:
            raise GridConfigError("'points' must be a non-empty list of "
                                  "tables/objects")
        given["points"] = tuple(_as_pairs(point, "each entry of 'points'")
                                for point in raw_points)
    try:
        return build_spec(GridConfig, {key: value for key, value in data.items()
                                       if key not in _SECTIONS}, given=given)
    except ValueError as error:
        raise GridConfigError(str(error)) from None


def load_config(path: str) -> GridConfig:
    """Parse a TOML (``.toml``, Python 3.11+) or JSON grid config file."""
    if path.endswith(".toml"):
        if sys.version_info < (3, 11):
            raise GridConfigError(
                "TOML grid configs need Python 3.11+ (no tomllib on "
                f"{sys.version_info.major}.{sys.version_info.minor}); "
                "re-encode the config as JSON")
        import tomllib

        with open(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as error:
                raise GridConfigError(f"bad TOML in {path}: {error}") \
                    from error
    else:
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise GridConfigError(f"bad JSON in {path}: {error}") \
                    from error
    return config_from_dict(data)


def grid_id_for(config: GridConfig, point_keys: list[str]) -> str:
    """Content-addressed grid identity: name + digest of what it runs.

    The digest covers the family and the *sorted* point keys (grid rows
    are keyed by content, not position), so reordering axes resumes the
    same grid while changing any parameter value starts a fresh one.
    """
    digest = hashlib.sha256(
        "|".join([config.family, *sorted(point_keys)]).encode()
    ).hexdigest()[:12]
    return f"{config.name}-{digest}"
