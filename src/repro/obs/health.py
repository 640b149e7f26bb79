"""Declarative watchdog rules evaluated on every recorder tick.

A :class:`WatchdogRule` names a condition over the metrics timeline —
queue depth growing tick over tick, a rolling p99 above its ceiling, an
error-rate threshold — and a :class:`HealthMonitor` holds the rules plus
their firing state.  The monitor is attached to a
:class:`~repro.obs.timeline.MetricsRecorder` and re-evaluated after each
frame; on a fire transition it emits one structured log event and bumps
``nanoxbar_alerts_total{rule}``, on recovery it logs again.  The
server's ``/healthz`` degrades from ``ok`` to ``degraded`` while any
rule is firing (:meth:`HealthMonitor.status`).

Rule kinds (``series`` is a metric *name*; ``label_filter`` narrows to
series whose labels carry the given key/value pairs, summing across the
matches):

``gauge_growth``
    The gauge rose strictly on each of the last ``window`` ticks *and*
    sits at or above ``threshold`` — the backpressure trigger shape:
    depth 3 → 5 → 9 fires, a flat saturated queue does not.
``quantile_ceiling``
    The rolling p99 (computed by the recorder over its quantile window)
    exceeded ``threshold``.
``rate_threshold``
    The counter's windowed rate — summed deltas over the last ``window``
    frames divided by their elapsed time — exceeded ``threshold``/s.

Hysteresis: a rule fires after ``for_frames`` consecutive breaching
evaluations and clears after ``CLEAR_AFTER`` consecutive quiet ones, so
one noisy tick neither raises nor silences an alert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .logging import get_logger, log_event
from .metrics import registry

_LOG = get_logger("health")

_KINDS = ("gauge_growth", "quantile_ceiling", "rate_threshold")

#: Consecutive quiet evaluations that clear a firing rule.
CLEAR_AFTER = 2


@dataclass
class WatchdogRule:
    """One declarative health condition over the metrics timeline."""

    name: str
    kind: str
    series: str
    threshold: float = 0.0
    window: int = 5
    label_filter: dict[str, str] | None = None
    for_frames: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown watchdog kind {self.kind!r} "
                             f"(expected one of {_KINDS})")
        if self.window < 1:
            raise ValueError("window must be at least 1 frame")
        if self.for_frames < 1:
            raise ValueError("for_frames must be >= 1")


class _RuleState:
    __slots__ = ("firing", "since", "breaches", "quiet", "value", "message")

    def __init__(self) -> None:
        self.firing = False
        self.since: float | None = None
        self.breaches = 0
        self.quiet = 0
        self.value: float | None = None
        self.message = ""


def _matching_items(section: dict, rule: WatchdogRule):
    """``(key, entry)`` series in a frame section selected by the rule."""
    exact = rule.series
    prefix = rule.series + "{"
    for key, entry in section.items():
        if key != exact and not key.startswith(prefix):
            continue
        if rule.label_filter:
            body = key[len(prefix):-1] if key.startswith(prefix) else ""
            if not all(f'{k}="{v}"' in body
                       for k, v in rule.label_filter.items()):
                continue
        yield key, entry


def _check(rule: WatchdogRule, frames: list[dict]) -> tuple[bool, float, str]:
    """Evaluate one rule against the trailing frames.

    Returns ``(breached, observed value, human message)``.  Too little
    history reads as quiet — watchdogs stay silent through warm-up.
    """
    if not frames:
        return False, 0.0, "no frames yet"
    if rule.kind == "gauge_growth":
        need = rule.window + 1
        if len(frames) < need:
            return False, 0.0, f"warming up ({len(frames)}/{need} frames)"
        values = [sum(entry for _key, entry in
                      _matching_items(frame["gauges"], rule))
                  for frame in frames[-need:]]
        growing = all(b > a for a, b in zip(values, values[1:]))
        breached = growing and values[-1] >= rule.threshold
        message = (f"{rule.series} grew {values[0]:g} -> {values[-1]:g} "
                   f"over {rule.window} ticks")
        return breached, values[-1], message
    if rule.kind == "quantile_ceiling":
        worst = 0.0
        for _key, entry in _matching_items(frames[-1]["histograms"], rule):
            worst = max(worst, entry.get("p99", 0.0))
        message = (f"{rule.series} rolling p99 {worst:.4g}s "
                   f"(ceiling {rule.threshold:g}s)")
        return worst > rule.threshold, worst, message
    # rate_threshold
    recent = frames[-rule.window:]
    elapsed = sum(frame["elapsed"] for frame in recent)
    delta = sum(entry["delta"]
                for frame in recent
                for _key, entry in _matching_items(frame["counters"], rule))
    rate = delta / max(elapsed, 1e-9)
    message = (f"{rule.series} at {rate:.4g}/s over {len(recent)} ticks "
               f"(threshold {rule.threshold:g}/s)")
    return rate > rule.threshold, rate, message


class HealthMonitor:
    """Rule states + the ``ok``/``degraded`` roll-up for ``/healthz``."""

    def __init__(self, rules: tuple[WatchdogRule, ...] | list = ()):
        self.rules = tuple(rules)
        self._states = {rule.name: _RuleState() for rule in self.rules}
        if len(self._states) != len(self.rules):
            raise ValueError("watchdog rule names must be unique")

    def evaluate(self, recorder) -> None:
        """Re-check every rule against the recorder's trailing frames."""
        if not self.rules:
            return
        need = max(rule.window for rule in self.rules) + 1
        frames = recorder.history(limit=need)
        reg = getattr(recorder, "_registry", None) or registry()
        for rule in self.rules:
            state = self._states[rule.name]
            breached, value, message = _check(rule, frames)
            state.value = value
            state.message = message
            if breached:
                state.breaches += 1
                state.quiet = 0
                if not state.firing and state.breaches >= rule.for_frames:
                    state.firing = True
                    state.since = time.time()
                    reg.counter(
                        "nanoxbar_alerts_total",
                        "watchdog rule fire transitions",
                        labels={"rule": rule.name}).inc()
                    log_event(_LOG, "watchdog fired", rule=rule.name,
                              kind=rule.kind, series=rule.series,
                              value=round(value, 6), detail=message)
            else:
                state.breaches = 0
                state.quiet += 1
                if state.firing and state.quiet >= CLEAR_AFTER:
                    state.firing = False
                    state.since = None
                    log_event(_LOG, "watchdog recovered", rule=rule.name,
                              kind=rule.kind, series=rule.series,
                              value=round(value, 6))

    def status(self) -> dict:
        """The ``/healthz`` contribution: roll-up + per-rule detail."""
        alerts = []
        rules = []
        for rule in self.rules:
            state = self._states[rule.name]
            rules.append({
                "rule": rule.name,
                "kind": rule.kind,
                "series": rule.series,
                "firing": state.firing,
                "value": state.value,
            })
            if state.firing:
                alerts.append({"rule": rule.name, "since": state.since,
                               "message": state.message})
        return {
            "status": "degraded" if alerts else "ok",
            "alerts": alerts,
            "rules": rules,
        }


#: Queue depth, in jobs, at or past which sustained growth fires.
QUEUE_DEPTH_FLOOR = 8.0
#: Rolling HTTP p99 ceiling, in seconds.
P99_CEILING_SECONDS = 30.0
#: Failed jobs (or failed grid points) per second that fire an alert.
FAILURE_RATE_PER_S = 0.5


def default_server_rules() -> tuple[WatchdogRule, ...]:
    """The batch server's stock watchdogs.

    * sustained queue-depth growth at or past ``QUEUE_DEPTH_FLOOR`` jobs
      (the backpressure trigger for the shard-fabric roadmap item);
    * rolling HTTP p99 past ``P99_CEILING_SECONDS``;
    * failed jobs arriving faster than ``FAILURE_RATE_PER_S``;
    * experiment-grid points landing in ``failed`` faster than
      ``FAILURE_RATE_PER_S`` (crashing workers or a broken family
      adapter — see :mod:`repro.grid`).
    """
    return (
        WatchdogRule("queue-depth-growth", "gauge_growth",
                     "server_queue_depth", threshold=QUEUE_DEPTH_FLOOR,
                     window=5),
        WatchdogRule("http-p99-latency", "quantile_ceiling",
                     "server_http_request_seconds",
                     threshold=P99_CEILING_SECONDS, for_frames=2),
        WatchdogRule("job-failure-rate", "rate_threshold",
                     "server_jobs_total",
                     label_filter={"state": "failed"},
                     threshold=FAILURE_RATE_PER_S, window=10),
        WatchdogRule("grid-failure-rate", "rate_threshold",
                     "nanoxbar_grid_points_total",
                     label_filter={"status": "failed"},
                     threshold=FAILURE_RATE_PER_S, window=10),
    )
