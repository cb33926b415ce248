"""In-memory spans around the program's public functions, recorded from outside.

A Tracer replaces a function at the module (or class) attribute where its
callers look it up, so no file of the program changes. Each call records a
Span with its name, start, end, parent and thread; spans stay in memory until
the run reads them. A span's self time is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    site: str                 # module attribute the call went through
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    thread: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


class Tracer:
    """Wraps functions in place while installed; records spans in memory.

    A span opened on a thread whose stack is empty takes the current root
    span as parent, so work a command hands to a thread pool still counts
    against the command that waits for it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, site: str = "") -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(next(self._ids), name, site, self.clock(), parent=parent,
                        thread=threading.get_ident())
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """One benchmark operation: a span that parents every span opened on
        a thread with no open span while it lasts."""
        span = self.open(name)
        self._root = span.id
        try:
            yield span
        finally:
            self._root = None
            self.close(span)

    def wrap(self, fn, name: str, site: str, count: Optional[Callable] = None):
        """`fn` with a span around each call; `count(args, result)` may return
        a dict of counts stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, count or None) tuples; owner
        is a module or class whose attribute callers look the function up in."""
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            prefix = f"{owner.__module__}." if isinstance(owner, type) else ""
            site = f"{prefix}{owner.__name__}.{attr}"
            setattr(owner, attr, self.wrap(original, name, site, count))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
