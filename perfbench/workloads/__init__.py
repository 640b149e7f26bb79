"""The four workloads and the measurement loop they share.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
then :meth:`Workload.measure` runs it for the requested seconds and
returns an :class:`Outcome`: pass timings, attempted and failed
operations, wrong answers found by the output checks, the per-workload
figures and, for a traced run, the layer metrics it measures itself.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from .. import stats
from ..calibrate import Clock
from ..catalog import HOOKS
from ..tracer import Recorder, install


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Descriptions of answers that failed an output check.
    wrong: list[str] = field(default_factory=list)
    #: Per part of a pass, the reference seconds (see ``calibrate``) of each
    #: untraced and each traced run of it, and the raw wall seconds of each
    #: untraced run.
    walls: dict[int, list[float]] = field(default_factory=dict)
    traced_walls: dict[int, list[float]] = field(default_factory=dict)
    raw_walls: dict[int, list[float]] = field(default_factory=dict)
    #: Workload-specific end-to-end figures: name -> (value, unit).
    figures: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    #: Per-layer metrics the workload measures itself.
    layers: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def wall_s(self) -> float:
        return pass_seconds(self.walls)


def pass_seconds(samples: dict[int, list[float]]) -> float:
    """Seconds of one pass: the sum over its parts of each part's median."""
    return sum(stats.median(values) for values in samples.values())


def passes(samples: dict[int, list[float]]) -> float:
    """How many whole passes the samples add up to."""
    return sum(map(len, samples.values())) / len(samples) if samples else 0.0


def record(samples: dict[int, list[float]], part: int, seconds: float) -> None:
    samples.setdefault(part, []).append(seconds)


def clear_program_caches() -> None:
    """Empty every ``functools.lru_cache`` of the loaded ``repro`` modules.

    Each unit of work (one CLI-sized call) starts from the cold in-process
    state a fresh ``nanoxbar`` process has, so the caches are in the same
    state on every commit and in every pass.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and hasattr(value, "cache_info"):
                clear()


class Workload:
    """A workload run as repeated identical passes over fixed inputs.

    A pass may be split into :attr:`parts` that run one at a time, in turn,
    so a run whose pass is long still ends close to its requested length.
    """

    name = ""
    parts = 1

    def setup(self, seed: int, workdir: str) -> None:
        """Imports and inputs (and, for ``served``, the server): ``setup_s``."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run first-call paths once before measuring (not in ``setup_s``)."""

    def run_pass(self, outcome: Outcome, recorder: Recorder | None,
                 part: int) -> Clock:
        """Run one part of a pass and check its outputs into ``outcome``;
        returns the clock that timed its units."""
        raise NotImplementedError

    def finish(self, outcome: Outcome) -> None:
        """Fill ``outcome.figures`` after the last pass."""

    def close(self) -> None:
        """Release what :meth:`setup` started (the server of ``served``)."""

    def measure(self, seconds: float, trace: bool,
                recorder: Recorder) -> Outcome:
        """Parts, in turn, until the next one would end past ``seconds``.

        Every part runs at least once.  A traced run alternates a whole pass
        untraced and a whole pass traced, so ``bench.trace_overhead``
        compares neighbours rather than the start and end of the run.
        """
        outcome = Outcome()
        start = time.perf_counter()
        last = 0.0
        count = 0
        while True:
            covered = len(outcome.walls) == self.parts and (
                not trace or len(outcome.traced_walls) == self.parts)
            if covered and time.perf_counter() - start + last > seconds:
                break
            part = count % self.parts
            began = time.perf_counter()
            if trace and count // self.parts % 2:
                installed = install(HOOKS, recorder)
                try:
                    clock = self.run_pass(outcome, recorder, part)
                finally:
                    installed.restore()
                record(outcome.traced_walls, part, clock.reference)
            else:
                clock = self.run_pass(outcome, None, part)
                record(outcome.walls, part, clock.reference)
                record(outcome.raw_walls, part, clock.raw)
            last = time.perf_counter() - began
            count += 1
        self.finish(outcome)
        return outcome
