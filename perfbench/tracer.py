"""In-memory spans around calls into the program's public functions.

A :class:`Hook` names a function or method of ``repro`` and the span its
calls record.  :func:`install` replaces the name in *every* loaded
``repro`` module that bound it, because callers import functions with
``from x import y`` and look them up in their own module at call time.
Spans carry (name, start, end, parent, key); a layer's self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: ``(args, kwargs) -> state`` taken before the call.
Before = Callable[[tuple, dict], Any]
#: ``(args, kwargs, result, state) -> {counter: amount}`` after the call.
Counts = Callable[[tuple, dict, Any, Any], dict[str, float]]


@dataclass(frozen=True)
class Hook:
    """One traced function: ``target`` is ``"module:name"`` or
    ``"module:Class.method"``; every call records a span named ``span``."""

    target: str
    span: str
    counts: Counts | None = None
    before: Before | None = None
    #: Derives the span's request key (e.g. a job id) after the call.
    key: Callable[[tuple, dict, Any], str | None] | None = None


class Span:
    __slots__ = ("end", "key", "name", "parent", "start")

    def __init__(self, name: str, start: float, parent: int | None,
                 key: str | None = None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key


class Recorder:
    """Spans and counters of one traced run (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: str | None = None) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None,
                    key)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    def span(self, name: str, key: str | None = None) -> _SpanScope:
        return _SpanScope(self, name, key)

    def count(self, amounts: dict[str, float]) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.counts[name] = self.counts.get(name, 0.0) + amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        return self_times(self.spans)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "counts": self.counts,
                "spans": [[s.name, s.start, s.end, s.parent, s.key]
                          for s in self.spans],
            }, handle)


class _SpanScope:
    def __init__(self, recorder: Recorder, name: str, key: str | None):
        self._recorder = recorder
        self._name = name
        self._key = key
        self._index = -1

    def __enter__(self) -> Span:
        self._index = self._recorder.open(self._name, self._key)
        return self._recorder.spans[self._index]

    def __exit__(self, *exc: object) -> None:
        self._recorder.close(self._index)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its direct
    children's durations (children are nested within their parent)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.end - span.start - child_time[index]
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def _wrap(original: Callable, hook: Hook, recorder: Recorder) -> Callable:
    def finish(index: int, args: tuple, kwargs: dict, result: Any,
               state: Any) -> None:
        span = recorder.close(index)
        if hook.key is not None:
            span.key = hook.key(args, kwargs, result)
        if hook.counts is not None:
            recorder.count(hook.counts(args, kwargs, result, state))

    if inspect.isgeneratorfunction(original):
        @functools.wraps(original)
        def generator(*args: Any, **kwargs: Any) -> Any:
            state = hook.before(args, kwargs) if hook.before else None
            index = recorder.open(hook.span)
            items = 0
            try:
                for item in original(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                finish(index, args, kwargs, items, state)
        return generator

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = hook.before(args, kwargs) if hook.before else None
        index = recorder.open(hook.span)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            finish(index, args, kwargs, result, state)
    return wrapper


class Installed:
    """The replaced names of one :func:`install`; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(hooks: list[Hook], recorder: Recorder) -> Installed:
    """Patch every hook's target wherever a ``repro`` module bound it."""
    installed = Installed()
    try:
        for hook in hooks:
            module_name, _, qualname = hook.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                installed.replace(owner, method,
                                  _wrap(original, hook, recorder))
                continue
            original = getattr(module, qualname)
            wrapped = _wrap(original, hook, recorder)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro"
                                          or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        installed.replace(loaded, attr, wrapped)
    except BaseException:
        installed.restore()
        raise
    return installed
