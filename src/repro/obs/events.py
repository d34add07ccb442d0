"""Live telemetry events: structured progress signals through pluggable sinks.

The trace layer (:mod:`repro.obs.trace`) answers "where did the time go"
*after* a run; this module answers "what is happening *now*".  A
multi-minute table sweep used to be silent until it printed its result —
with a sink installed, the runner, supervisor, and engine emit point
events (sweep started, score matrix ready, matcher finished, retry
fired, ladder hop taken) the moment they happen::

    with events.emitting(events.HumanSink()):      # live lines on stderr
        run_experiment(config)

    sink = events.MemorySink()                     # deterministic, for tests
    with events.emitting(sink):
        run_experiment(config)
    [e.name for e in sink.events]

Like tracing, the stream is **disabled by default**: :func:`emit` returns
after one module-global truthiness check while no sink is installed, so
the instrumented hot paths cost a call and a branch — the overhead
benchmark (``benchmarks/test_obs_overhead.py``) holds the whole
ledger+events layer under its 2 % budget on a full sweep.

Events are ordered by a process-wide sequence number assigned under a
lock, so concurrent emitters (HTTP handler threads, the supervisor's
watchdog) serialise into one deterministic timeline; ``elapsed`` wall
offsets are informational and excluded from determinism contracts.  A
sink that raises is dropped after a one-line warning rather than taking
the run down with it — telemetry is never load-bearing.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, TextIO


@dataclass(frozen=True)
class Event:
    """One telemetry point: ordered, named, with free-form attributes."""

    #: Process-wide emission order (contiguous from 1 per process).
    seq: int
    name: str
    attrs: Mapping[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds since the emitter module was first loaded.
    #: Informational only — determinism contracts ignore it.
    elapsed: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "name": self.name,
            "attrs": dict(self.attrs),
            "elapsed": self.elapsed,
        }


class EventSink:
    """Receives every emitted :class:`Event`; subclasses render/store it."""

    def handle(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; called when the sink is uninstalled."""


class MemorySink(EventSink):
    """Keeps events in order on a list — the test suite's sink."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)

    def names(self) -> list[str]:
        return [event.name for event in self.events]


class HumanSink(EventSink):
    """One readable line per event, for watching a sweep live.

    Writes to ``stream`` (default stderr, so piped table output stays
    clean) as ``[  12.3s] matcher.finish  matcher=Hun. f1=0.886``.
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def handle(self, event: Event) -> None:
        attrs = "  ".join(f"{key}={_render(value)}" for key, value in event.attrs.items())
        self._stream.write(
            f"[{event.elapsed:7.1f}s] {event.name:<28s} {attrs}".rstrip() + "\n"
        )
        self._stream.flush()


class JsonlSink(EventSink):
    """Appends one JSON object per event to a file (opened lazily)."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None

    def handle(self, event: Event) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(event.as_dict(), sort_keys=False) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


_started = time.perf_counter()
_lock = threading.Lock()
_seq = 0
#: Installed sinks.  Emptiness is the fast-path check in :func:`emit`,
#: so the disabled stream costs one truthiness test.
_sinks: list[EventSink] = []


def enabled() -> bool:
    """Whether any sink is installed (i.e. events are being delivered)."""
    return bool(_sinks)


def add_sink(sink: EventSink) -> EventSink:
    """Install ``sink``; it receives every subsequent event."""
    with _lock:
        _sinks.append(sink)
    return sink


def remove_sink(sink: EventSink) -> None:
    """Uninstall ``sink`` (no-op when absent) and close it."""
    with _lock:
        if sink in _sinks:
            _sinks.remove(sink)
    sink.close()


def emit(name: str, **attrs: Any) -> None:
    """Deliver one event to every installed sink (no-op when none are)."""
    if not _sinks:
        return
    global _seq
    with _lock:
        _seq += 1
        event = Event(
            seq=_seq, name=name, attrs=attrs,
            elapsed=time.perf_counter() - _started,
        )
        sinks = list(_sinks)
    for sink in sinks:
        try:
            sink.handle(event)
        except Exception as err:  # noqa: BLE001 - telemetry is not load-bearing
            remove_sink(sink)
            # Count the drop in the metrics registry so lost telemetry
            # is visible in /stats, /metrics, and profiles — the stderr
            # line below is the only other trace it ever happened.
            from repro.obs import metrics as obs_metrics

            obs_metrics.get_metrics().inc("events.sink_dropped")
            print(
                f"repro.obs.events: sink {type(sink).__name__} failed "
                f"({type(err).__name__}: {err}); sink dropped",
                file=sys.stderr,
            )


class emitting:
    """Context manager installing sinks for the enclosed run.

    ``with emitting(HumanSink()) as sink:`` installs the sink(s) on
    entry and removes (and closes) them on exit — the scoped form the
    CLI and the tests use so a sweep's telemetry never leaks into the
    next one.
    """

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = list(sinks) or [MemorySink()]

    def __enter__(self) -> EventSink:
        for sink in self.sinks:
            add_sink(sink)
        return self.sinks[0]

    def __exit__(self, *exc_info: object) -> None:
        for sink in self.sinks:
            remove_sink(sink)
