"""Nestable tracing spans for the matching hot paths.

The paper's headline claims are comparative — Figure 5 and Table 6 rank
matchers by runtime and memory as much as by accuracy — so the library
needs a first-class way to see *where* time and memory go inside a run.
A :class:`TraceRecorder` collects a tree of :class:`Span` objects, each
carrying wall-clock time, CPU time, the process peak-RSS delta across
the span, free-form attributes, and named counters::

    recorder = TraceRecorder()
    with recording(recorder):
        with span("engine.similarity", metric="cosine") as sp:
            for i, rows in enumerate(chunks):
                with span("engine.chunk", index=i):
                    compute(rows)
            sp.count("chunks", len(chunks))

Tracing is **disabled by default**: the module-level :func:`span` and
:func:`event` delegate to the installed recorder, and the default
:class:`NullRecorder` returns a shared no-op context manager — the clean
path pays one attribute lookup and a call, nothing else.  A recorder is
installed for the duration of a profiled run via :func:`recording` (the
CLI's ``repro match --profile`` and the runner's ``profile=True`` do
exactly that) and uninstalled on exit, so benchmarks and production
sweeps are never instrumented by accident.

Spans opened on another thread than their logical parent pass
``parent=`` explicitly because the thread-local span stack does not
cross thread boundaries; parentless spans on a fresh thread become
additional roots.  Everything here is stdlib-only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

try:  # pragma: no cover - resource is stdlib on every POSIX platform
    import resource

    def _peak_rss_bytes() -> int:
        """Process peak RSS in bytes (ru_maxrss is KiB on Linux)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

except ImportError:  # pragma: no cover - non-POSIX fallback

    def _peak_rss_bytes() -> int:
        return 0


@dataclass
class Span:
    """One traced phase: timings, attributes, counters, and children."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Growth of the process peak RSS across the span, in bytes.  Zero
    #: when the high-water mark was set before the span started — the
    #: delta attributes *new* peaks to the span that caused them.
    rss_delta_bytes: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the span's ``name`` counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **attrs: Any) -> None:
        """Attach or overwrite attributes after the span opened."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree."""
        return [span for span in self.walk() if span.name == name]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (the profile document's span shape)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "rss_delta_bytes": self.rss_delta_bytes,
            "counters": dict(self.counters),
            "children": [child.as_dict() for child in self.children],
        }


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    One shared, stateless instance is both the context manager and the
    object yielded by it, so ``with span(...) as sp: sp.count(...)``
    costs nothing beyond the calls themselves.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def count(self, name: str, value: float = 1) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder installed by default: every span is the shared no-op."""

    enabled = False

    def span(self, name: str, parent: object | None = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None


class _SpanHandle:
    """Context manager that opens one live :class:`Span` on a recorder."""

    __slots__ = ("_recorder", "_span", "_parent", "_wall0", "_cpu0", "_rss0")

    def __init__(
        self, recorder: "TraceRecorder", span: Span, parent: Span | None
    ) -> None:
        self._recorder = recorder
        self._span = span
        self._parent = parent

    def __enter__(self) -> Span:
        self._recorder._push(self._span)
        self._rss0 = _peak_rss_bytes()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        span = self._span
        span.wall_seconds = time.perf_counter() - self._wall0
        span.cpu_seconds = time.process_time() - self._cpu0
        span.rss_delta_bytes = max(0, _peak_rss_bytes() - self._rss0)
        self._recorder._pop(span, self._parent)


class TraceRecorder:
    """Collects a per-run trace tree from nested :func:`span` calls.

    The recorder keeps one span stack per thread: a span opened while
    another is active on the same thread becomes its child; a span with
    no active parent (or opened on a worker thread without ``parent=``)
    becomes a root.  :attr:`events` is a flat, ordered list of point
    events (supervisor retries, cache hits) stamped with their offset
    from the recorder's creation.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.events: list[dict[str, Any]] = []
        self._started = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording API -------------------------------------------------

    def span(self, name: str, parent: Span | None = None, **attrs: Any) -> _SpanHandle:
        """Open a span; use as a context manager yielding the :class:`Span`.

        ``parent`` pins the span under an explicit parent — required when
        the span runs on a different thread than its logical parent.
        """
        return _SpanHandle(self, Span(name=name, attrs=attrs), parent)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event (no duration) on the run timeline."""
        record = {
            "name": name,
            "seconds": time.perf_counter() - self._started,
            "attrs": attrs,
        }
        with self._lock:
            self.events.append(record)

    # -- queries -------------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """Every recorded span named ``name``."""
        return [span for span in self.walk() if span.name == name]

    # -- span-stack internals ------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span, parent: Span | None) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if parent is None and stack:
            parent = stack[-1]
        if parent is not None and isinstance(parent, Span):
            with self._lock:
                parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)


_NULL_RECORDER = NullRecorder()
_recorder: "TraceRecorder | NullRecorder" = _NULL_RECORDER


def get_recorder() -> "TraceRecorder | NullRecorder":
    """The currently installed recorder (the null recorder by default)."""
    return _recorder


def tracing_enabled() -> bool:
    """Whether a real recorder is installed."""
    return _recorder.enabled


def install(recorder: "TraceRecorder | NullRecorder") -> None:
    """Make ``recorder`` the process-wide trace sink."""
    global _recorder
    _recorder = recorder


def uninstall() -> None:
    """Restore the disabled-by-default null recorder."""
    install(_NULL_RECORDER)


class recording:
    """Context manager installing a recorder for the enclosed run.

    ``with recording() as recorder:`` creates a fresh
    :class:`TraceRecorder`, installs it, and restores the previously
    installed recorder on exit — re-entrant, so a profiled experiment
    can wrap a profiled matcher without losing the outer trace.
    """

    def __init__(self, recorder: "TraceRecorder | None" = None) -> None:
        self.recorder = recorder or TraceRecorder()
        self._previous: "TraceRecorder | NullRecorder | None" = None

    def __enter__(self) -> TraceRecorder:
        self._previous = _recorder
        install(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info: object) -> None:
        install(self._previous or _NULL_RECORDER)


def span(name: str, parent: Span | None = None, **attrs: Any):
    """Open a span on the installed recorder (no-op while disabled)."""
    return _recorder.span(name, parent=parent, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point event on the installed recorder (no-op while disabled)."""
    _recorder.event(name, **attrs)
