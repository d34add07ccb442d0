"""Spans recorded around the program's public calls, from outside it.

The traced run installs wrappers on the public entry point of each
layer (a method on a class, or a function in a module), records one
span per call in memory — name, start, end, parent, request id — and
restores every original attribute afterwards, so the classes and
modules are left exactly as they were.  No file of the program changes.

A span's parent is the span open on the same thread when it started.
Spans of one request share the request id of their root span.  Work a
request hands to another thread (the serving micro-batcher) becomes a
root there, with its own id.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the parent span in :attr:`Tracer.spans`, or None for a root.
    parent: int | None
    #: Index of the root span this span descends from (its request id).
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals count once, so children that overlap each
    other (work on several threads under one parent) are not subtracted
    twice from the parent.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``name -> {"calls", "total_s", "self_s"}`` over every span."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return dict(table)


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    Use as a context manager: wrappers installed with :meth:`wrap` are
    removed on exit even if the traced work raised.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (owner, attribute, original static value or _MISSING)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            request = self.spans[parent].request if parent is not None else index
            self.spans.append(Span(name, self.clock(), 0.0, parent, request))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span("job"):`` — a span around benchmark code."""
        return _SpanContext(self, name)

    # -- wrappers ------------------------------------------------------

    def wrap(
        self, owner: object, attribute: str, name: str | Callable[[tuple], str]
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``owner`` is a class or a module.  ``name`` is the span name, or
        a function of the call's positional arguments that returns it
        (e.g. to name a method's span after ``type(self)``).  Inherited
        methods are wrapped on ``owner`` itself and deleted again on
        restore; static and class methods keep their kind.
        """
        original = (
            owner.__dict__.get(attribute, _MISSING)
            if inspect.isclass(owner)
            else getattr(owner, attribute)
        )
        static = inspect.getattr_static(owner, attribute)
        if isinstance(static, classmethod):
            wrapped: object = classmethod(self._wrapped(static.__func__, name))
        elif isinstance(static, staticmethod):
            wrapped = staticmethod(self._wrapped(static.__func__, name))
        elif callable(static):
            wrapped = self._wrapped(static, name)
        else:
            raise TypeError(f"{owner!r}.{attribute} is not callable")
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def _wrapped(self, function: Callable, name: str | Callable[[tuple], str]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.open(name if isinstance(name, str) else name(args))
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- reporting -----------------------------------------------------

    def as_records(self) -> list[dict[str, object]]:
        return [asdict(span) for span in self.spans]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> int:
        self._index = self._tracer.open(self._name)
        return self._index

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close(self._index)
