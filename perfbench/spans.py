"""In-memory span tracer that wraps library functions from outside.

A :class:`Tracer` replaces a function at the name its callers look it up
by (``tripletwb.cli.sample_counts``, ``tripletwb.emrec.apply_matrix``, ...)
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span. Nothing under ``src/`` changes; ``uninstall``
puts every original back. Spans stay in memory until :meth:`dump`.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: per-name hooks called with (args, kwargs, result, seconds) after each call
        self._observers: dict[str, list[Callable]] = {}

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def observe(self, name: str, fn: Callable) -> None:
        self._observers.setdefault(name, []).append(fn)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            for fn in tracer._observers.get(name, ()):
                sp = tracer.spans[idx]
                fn(args, kwargs, result, sp.end - sp.start)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; with one thread the children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, dict[str, float]] = {}
        for sp, inner in zip(self.spans, child_time):
            row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = sp.end - sp.start
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - inner
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[sp.name, sp.start, sp.end, sp.parent] for sp in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": rows}) + "\n")

