"""Span tracing by wrapping public functions of the traced package.

A :class:`Tracer` replaces each target function, in every loaded module of
the package that holds a reference to it, with a wrapper that records a span
(name, start, end, parent, attributes).  Leaving the ``with`` block puts the
original objects back.  A target the package no longer defines is listed in
``Tracer.absent`` and is otherwise skipped, so a refactor that removes a
public function does not break the benchmark.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

P90_MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


@dataclass(frozen=True)
class Target:
    """A function to trace: ``attr`` may be ``"Class.method"``."""

    span: str
    module: str
    attr: str
    attrs: Optional[Callable] = None  # (args, kwargs) -> dict of span attributes


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans of the targets while active."""

    def __init__(self, targets, package: str = "navier_norms", clock=time.perf_counter):
        self.targets = list(targets)
        self.package = package
        self.clock = clock
        self.spans: list[Optional[Span]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _install(self, target: Target) -> None:
        module = sys.modules.get(target.module)
        owner_name, _, fn_name = target.attr.rpartition(".")
        owner = module
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or fn_name not in vars(owner):
            self.absent.append(target.span)
            return
        raw = vars(owner)[fn_name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(target, raw.__func__))
            self._patch(owner, fn_name, raw, wrapped)
            return
        wrapped = self._wrap(target, raw)
        if owner is not module:
            self._patch(owner, fn_name, raw, wrapped)
            return
        # a module-level function: patch every package module that imported it
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, name, original, replacement) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = target.attrs(args, kwargs) if target.attrs else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(target.span, start, end, parent, attrs)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total_s, self_s and the list of durations."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own
        entry["durations"].append(span.duration)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reportable(n: int, q: float) -> bool:
    """A nearest-rank percentile of n samples is reported only with at least
    ``P90_MIN_BEYOND`` samples beyond it."""
    return n > 0 and n - max(1, math.ceil(q / 100.0 * n)) >= P90_MIN_BEYOND
