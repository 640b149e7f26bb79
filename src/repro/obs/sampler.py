"""Sampling wall-clock profiler over ``sys._current_frames()``.

The span tree (``--profile``) answers "how long did each phase take";
this module answers "where inside a phase is the time actually going"
without instrumenting anything: a sampler thread wakes every
``interval`` seconds, snapshots every thread's Python stack and counts
identical stacks.  Because C extensions (numpy kernels) do not push
Python frames, a thread busy inside a vectorised kernel is attributed to
the Python function that called it — exactly the attribution the hot-path
work wants.

Output faces:

* :meth:`SampleReport.collapsed` — collapsed-stack lines
  (``root;child;leaf count``), the flamegraph.pl / speedscope wire
  format, served by ``GET /api/profile``;
* :meth:`SampleReport.top` / :meth:`SampleReport.render_top` — a top-N
  self-time table (``nanoxbar ... --sample-profile``);
* :meth:`SampleReport.hot_fraction` — the share of samples whose stack
  passes a predicate (the bench's "≥ 80% of self-time lands in the known
  hot kernels" assertion).

Frames are labelled ``pkg/module.py:function``; stacks from *idle*
leaves (lock waits, selector polls, socket accepts) are dropped so a
mostly-sleeping server does not drown the signal — the skip count is
reported, never hidden.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Callable, Iterable

#: Default sampling period (seconds): fine enough for multi-second runs,
#: coarse enough that the sampler itself stays invisible.
DEFAULT_INTERVAL = 0.005

#: Deepest stack recorded per sample.
MAX_DEPTH = 64

#: Functions listed in the ``/api/profile`` JSON's ``top`` table.
TOP_N = 15

#: ``(file basename, function)`` leaves that mean "parked, not working".
IDLE_LEAVES = frozenset({
    ("threading.py", "wait"),
    ("threading.py", "_wait_for_tstate_lock"),
    ("selectors.py", "select"),
    ("selectors.py", "poll"),
    ("socket.py", "accept"),
    ("socket.py", "recv"),
    ("socket.py", "recv_into"),
    ("connection.py", "poll"),
    ("connection.py", "_poll"),
    ("queue.py", "get"),
    # The thread blocked inside sample_for's sleep (C-level, so its
    # Python leaf is sample_for itself) is the profiler's own harness.
    ("sampler.py", "sample_for"),
})


def _frame_label(filename: str, function: str) -> str:
    """``pkg/module.py:function`` — short, stable, grep-able."""
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else parts[-1]
    return f"{short}:{function}"


def _stack_of(frame, max_depth: int) -> tuple[tuple[str, str], ...]:
    """Innermost-last ``(filename, function)`` tuples for one thread."""
    stack = []
    while frame is not None and len(stack) < max_depth:
        stack.append((frame.f_code.co_filename, frame.f_code.co_name))
        frame = frame.f_back
    stack.reverse()
    return tuple(stack)


class SampleReport:
    """Aggregated stack samples from one profiling window."""

    def __init__(self, samples: Counter, total: int, skipped_idle: int,
                 duration: float, interval: float):
        #: ``{stack (root-first, (file, func) tuples): count}``
        self.samples = samples
        self.total = total
        self.skipped_idle = skipped_idle
        self.duration = duration
        self.interval = interval

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c count`` line per stack."""
        lines = []
        for stack, count in sorted(self.samples.items()):
            path = ";".join(_frame_label(f, fn) for f, fn in stack)
            lines.append(f"{path} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def self_times(self) -> Counter:
        """``{leaf label: samples}`` — time spent *in* each function."""
        leaves: Counter = Counter()
        for stack, count in self.samples.items():
            leaves[_frame_label(*stack[-1])] += count
        return leaves

    def total_times(self) -> Counter:
        """``{label: samples}`` — time spent in or below each function."""
        totals: Counter = Counter()
        for stack, count in self.samples.items():
            for entry in set(stack):
                totals[_frame_label(*entry)] += count
        return totals

    def top(self, n: int = 15) -> list[tuple[str, int, int]]:
        """``(label, self samples, total samples)`` by self-time."""
        totals = self.total_times()
        return [(label, self_count, totals[label])
                for label, self_count in self.self_times().most_common(n)]

    def render_top(self, n: int = 15) -> str:
        """The ``--sample-profile`` table."""
        if self.total == 0:
            return (f"(no samples in {self.duration:.2f}s — "
                    f"run too short or fully idle)")
        header = (f"{self.total} samples over {self.duration:.2f}s "
                  f"(interval {self.interval * 1000:.1f}ms, "
                  f"{self.skipped_idle} idle skipped)")
        lines = [header,
                 f"{'self%':>6s} {'total%':>7s} {'samples':>8s}  function"]
        for label, self_count, total_count in self.top(n):
            lines.append(
                f"{100.0 * self_count / self.total:6.1f} "
                f"{100.0 * total_count / self.total:7.1f} "
                f"{self_count:8d}  {label}")
        return "\n".join(lines)

    def hot_fraction(self,
                     predicate: Callable[[str, str], bool]) -> float:
        """Share of samples whose stack holds a frame passing ``predicate``.

        ``predicate(filename, function)`` — a sample anywhere at or below
        a matching frame counts as attributed to it, which is how a
        flamegraph rolls leaf time up into the kernel that owns it.
        """
        if self.total == 0:
            return 0.0
        hot = sum(count for stack, count in self.samples.items()
                  if any(predicate(f, fn) for f, fn in stack))
        return hot / self.total

    def as_dict(self) -> dict:
        """JSON face for ``GET /api/profile?format=json``."""
        return {
            "total_samples": self.total,
            "skipped_idle": self.skipped_idle,
            "duration_seconds": self.duration,
            "interval_seconds": self.interval,
            "top": [{"function": label, "self": self_count,
                     "total": total_count}
                    for label, self_count, total_count in self.top(TOP_N)],
            "collapsed": self.collapsed().rstrip("\n").split("\n")
            if self.total else [],
        }


class StackSampler:
    """Periodic whole-process (or single-thread) stack sampler.

    Args:
        interval: seconds between samples.
        thread_ids: restrict sampling to these thread idents (``None``
            samples every thread except the sampler's own).

    Use as a context manager around the code under test, or
    ``start()``/``stop()`` across a window, or :func:`sample_for` for a
    fixed wall-clock slice (the ``/api/profile`` shape).
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 thread_ids: Iterable[int] | None = None):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.thread_ids = frozenset(thread_ids) if thread_ids is not None \
            else None
        self._samples: Counter = Counter()
        self._total = 0
        self._skipped = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started: float | None = None
        self._duration = 0.0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "StackSampler":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._started = time.perf_counter()
        self._thread = threading.Thread(target=self._run,
                                        name="nanoxbar-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> SampleReport:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._started is not None:
            self._duration = time.perf_counter() - self._started
            self._started = None
        return self.report()

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def report(self) -> SampleReport:
        return SampleReport(Counter(self._samples), self._total,
                            self._skipped, self._duration, self.interval)

    # -- the sampling loop ------------------------------------------------
    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample_once(own)

    def _sample_once(self, own_ident: int) -> None:
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            if self.thread_ids is not None and ident not in self.thread_ids:
                continue
            stack = _stack_of(frame, MAX_DEPTH)
            if not stack:
                continue
            leaf_file, leaf_fn = stack[-1]
            if (os.path.basename(leaf_file), leaf_fn) in IDLE_LEAVES:
                self._skipped += 1
                continue
            self._samples[stack] += 1
            self._total += 1


def sample_for(seconds: float,
               interval: float = DEFAULT_INTERVAL) -> SampleReport:
    """Block for ``seconds`` while sampling every thread; return the report.

    The ``GET /api/profile?seconds=N`` body — run it off the event loop
    (the server uses an executor thread, whose own stack is excluded by
    the sampler-thread rule plus the idle filter).
    """
    sampler = StackSampler(interval=interval)
    sampler.start()
    try:
        time.sleep(max(0.0, seconds))
    finally:
        report = sampler.stop()
    return report
