"""Repeated timed jobs and the per-layer table built from their spans."""

from __future__ import annotations

import time
from typing import Callable

from perfbench.common import median
from perfbench.spans import Tracer, self_times, totals_by_name

#: A run measures at least this many jobs after the warm-up, however
#: long they take, so the median is never a single sample.
MIN_JOBS = 3


def repeat(
    job: Callable[[], object],
    seconds: float,
    tracer: Tracer | None = None,
    min_jobs: int = MIN_JOBS,
) -> tuple[list[float], list[float], list[object]]:
    """Run ``job`` once to warm up, then until ``seconds`` have been
    measured and at least ``min_jobs`` jobs have run.

    Returns per measured job: wall seconds, process CPU seconds, and
    the job's output.  The warm-up is discarded: its first-touch page
    faults and lazy imports are not what later jobs pay.  With a
    ``tracer``, each measured job is a root span named ``job`` and the
    warm-up's spans are dropped.
    """
    job()
    if tracer is not None:
        tracer.spans.clear()
    walls: list[float] = []
    cpus: list[float] = []
    outputs: list[object] = []
    while sum(walls) < seconds or len(walls) < min_jobs:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        if tracer is None:
            outputs.append(job())
        else:
            with tracer.span("job"):
                outputs.append(job())
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return walls, cpus, outputs


def repeat_setup(setup: Callable[[], object], times: int) -> tuple[float, object]:
    """Median wall seconds of ``times`` set-ups, and the last one's result.

    Set-up is timed several times because one short timing on a shared
    machine is mostly noise; the median is what ``setup_s`` reports.
    """
    walls = []
    result = None
    for _ in range(times):
        start = time.perf_counter()
        result = setup()
        walls.append(time.perf_counter() - start)
    return median(walls), result


def layer_table(
    tracer: Tracer,
    metric_of: dict[str, str],
    jobs: int,
    walls: list[float],
    cpus: list[float],
) -> dict[str, float]:
    """Per-job self seconds for each span name mapped to a metric, plus
    the job's wall, CPU and unattributed time.

    ``metric_of`` maps span names to per-layer metric names; several
    spans may feed one metric.  ``job.unattributed_s`` is the job span's
    own self time: job wall time not covered by any top-level layer
    call, which is benchmark glue or a call nobody wrapped.
    """
    totals = totals_by_name(tracer.spans)
    metrics: dict[str, float] = {}
    for span_name, metric in metric_of.items():
        row = totals.get(span_name)
        if row is not None:
            metrics[metric] = metrics.get(metric, 0.0) + row["self_s"] / jobs
    own = self_times(tracer.spans)
    unattributed = sum(
        own[index] for index, span in enumerate(tracer.spans) if span.name == "job"
    )
    metrics["job.wall_s"] = median(walls)
    metrics["job.cpu_s"] = median(cpus)
    metrics["job.unattributed_s"] = unattributed / jobs
    metrics["job.unattributed_ratio"] = unattributed / sum(walls)
    return metrics


def span_table(tracer: Tracer) -> list[dict[str, float | str]]:
    """Rows for the printed per-span table, largest self time first."""
    rows = [
        {"span": name, **row} for name, row in totals_by_name(tracer.spans).items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])
