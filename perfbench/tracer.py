"""Spans recorded from outside the program, around its public calls.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: name, start, end, the span that was open on
the same thread when it started (its parent), the thread, and an
optional tag (a request id).  Spans stay in memory and are written out
once the workload ends.

A span's *self time* is its duration minus the part its child spans
cover.  Children on one thread nest strictly inside their parent and
never overlap each other, so the covered part is the sum of the
children's durations.  A layer's *inclusive* time counts only its
outermost spans, so a wrapped call that re-enters itself (directly or
through another wrapped layer) is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

from stats import percentile

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "tag")

    def __init__(self, sid, name, start, end, parent, thread, tag=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, tag=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = _clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = _clock()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), tag)
            )

    def sample(self, name: str, value: float) -> None:
        """Record one measured value that is not a span (a wait)."""
        self.samples[name].append(value)

    # -- installing wrappers -------------------------------------------
    def _resolve(self, target: str):
        """``"pkg.module:Class"`` or ``"pkg.module"`` -> object, or None
        when the module or class no longer exists."""
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        if class_name:
            owner = getattr(owner, class_name, None)
        return owner

    def replace(self, target: str, attr: str, make) -> bool:
        owner = self._resolve(target)
        if owner is None:
            self.absent.append(f"{target}.{attr}")
            return False
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.absent.append(f"{target}.{attr}")
            return False
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapped)
        return True

    def wrap(self, target: str, attr: str, name: str, tag=None) -> bool:
        """Time every call of ``target.attr`` as a span ``name``.
        ``tag(args, kwargs)`` may return a request id for the span.
        Returns False (and records the entry point as absent) when the
        program no longer has it."""

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(
                    name, fn, args, kwargs,
                    None if tag is None else tag(args, kwargs),
                )

            wrapper.__wrapped__ = fn
            return wrapper

        return self.replace(target, attr, make)

    def count(self, target: str, attr: str, name: str) -> bool:
        """Count calls of ``target.attr`` without timing them."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return self.replace(target, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the duration of its children."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {s.sid: s.duration - covered[s.sid] for s in self.spans}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans
        only), self seconds, and the per-call durations."""
        by_id = {s.sid: s for s in self.spans}
        self_time = self.self_times()
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name,
                {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                 "durations": []},
            )
            row["calls"] += 1
            row["self_s"] += self_time[span.sid]
            row["durations"].append(span.duration)
            ancestor = by_id.get(span.parent)
            while ancestor is not None and ancestor.name != span.name:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                row["inclusive_s"] += span.duration
        return out

    def write(self, path) -> None:
        """All spans as gzip'd CSV: name,start,end,id,parent,thread,tag
        (times in microseconds from the first span)."""
        origin = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_us,end_us,id,parent,thread,tag\n")
            for s in self.spans:
                out.write(
                    f"{s.name},{(s.start - origin) * 1e6:.1f},"
                    f"{(s.end - origin) * 1e6:.1f},{s.sid},"
                    f"{s.parent or ''},{s.thread},{s.tag or ''}\n"
                )


def stat(summary: dict, name: str, key: str) -> float:
    """One figure of a span name's summary (0 when it never ran)."""
    row = summary.get(name)
    if row is None:
        return 0.0
    if key in ("calls", "inclusive_s", "self_s"):
        return float(row[key])
    if key == "max_ms":
        return max(row["durations"]) * 1e3
    pct = float(key.removeprefix("p").removesuffix("_ms"))
    return percentile(row["durations"], pct) * 1e3
