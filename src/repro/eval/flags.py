"""Range-checked ``argparse`` types for the command lines' numeric flags.

One type per range, shared by ``nanoxbar`` (:mod:`repro.eval.cli`) and
the grid worker (``python -m repro.grid.worker``).  A value out of its
range is a usage error (exit 2 with argparse's message), never a silent
serial run, a dropped table row or a traceback out of ``time.sleep``.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable


def _parse(text: str, kind: Callable[[str], float], expected: str,
           accept: Callable[[float], bool]):
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def count(text: str) -> int:
    """An integer >= 0; 0 means "auto" or "the config's value"."""
    return _parse(text, int, "an integer >= 0", lambda value: value >= 0)


def positive_count(text: str) -> int:
    """An integer >= 1."""
    return _parse(text, int, "an integer >= 1", lambda value: value >= 1)


def positive_seconds(text: str) -> float:
    """A finite number of seconds > 0."""
    return _parse(text, float, "a finite number of seconds > 0",
                  lambda value: math.isfinite(value) and value > 0)
