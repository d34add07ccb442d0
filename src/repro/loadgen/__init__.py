"""Seeded load generation and soak testing for the alignment daemon.

``repro serve`` (DESIGN.md §12) answers single queries; this package
answers the question the ROADMAP's north star actually poses — does the
daemon hold up under *sustained, realistic traffic*?  One-shot latency
numbers hide compaction stalls, batch queueing, and insert-induced
tail spikes; a minutes-long mixed stream surfaces them.  Three layers:

- :mod:`repro.loadgen.spec` — :class:`~repro.loadgen.spec.WorkloadSpec`:
  a JSON-round-trippable description of a traffic mix (Zipfian entity
  popularity, query/insert/delete/explain ratios, open-loop arrivals at
  a target QPS) that expands deterministically into a request stream —
  same seed, same stream, byte for byte.
- :mod:`repro.loadgen.runner` — :class:`~repro.loadgen.runner.SoakRunner`:
  replays a stream against a live daemon open-loop (requests fire on
  their schedule regardless of completions), recording per-request
  latency and outcome through the :mod:`repro.obs.events` sinks.
- :mod:`repro.loadgen.report` — :class:`~repro.loadgen.report.SoakReport`:
  the schema-versioned result (p50/p95/p99/p999, offered vs sustained
  QPS, error/timeout counts, per-phase breakdown, snapshot-version lag)
  that ``benchmarks/check_regression.py``'s latency gate family reads.

:mod:`repro.loadgen.daemon` boots the real ``repro serve`` CLI in a
subprocess so soak runs exercise the full stack — HTTP parsing, the
micro-batcher, snapshot publication — not an in-process shortcut.
"""

from repro.loadgen.daemon import ServeDaemon
from repro.loadgen.report import SoakReport
from repro.loadgen.runner import SoakRunner
from repro.loadgen.spec import Request, WorkloadSpec, stream_fingerprint

__all__ = [
    "Request",
    "ServeDaemon",
    "SoakReport",
    "SoakRunner",
    "WorkloadSpec",
    "stream_fingerprint",
]
