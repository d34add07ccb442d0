"""Micro-batching for concurrent top-k queries.

Concurrent HTTP handler threads each hold one query; scoring them one
matrix at a time wastes the vectorised kernels.  The
:class:`MicroBatcher` funnels them through a single dispatcher thread
that drains then dispatches: it blocks for one query, takes whatever
else is already queued (up to ``max_batch``) without waiting, and hands
the coalesced batch to one handler call; each caller blocks on a future
for its own slice.  A query is never held back for stragglers, so
batches grow only with the queue that forms while the previous batch is
scored.

Correctness note: coalescing is *safe* to expose because the serving
scorer is pair-stable (:func:`~repro.similarity.metrics.prepare_stable_metric`)
— a query's scores do not depend on which other queries share the
batch, so batched and unbatched responses are bitwise identical.  The
concurrency suite pins exactly that.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.histogram import Histogram
from repro.serve import context as serve_context

#: Sentinel object closing the dispatcher loop.
_STOP = object()

#: Bucket upper bounds for the batch-size histogram: powers of two up
#: to 256 (``max_batch`` defaults far below that).
BATCH_SIZE_BOUNDS = tuple(2.0**i for i in range(9))

#: The distribution points ``stats()`` reports per observed quantity,
#: as histogram quantiles.  Soak analysis (DESIGN.md §13) correlates
#: response-tail spikes with these: a large p99 wait or batch size
#: means a queue formed behind a slow batch.
_DIST_POINTS = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _summary(
    hist: Histogram, low: float, high: float, scale: float = 1.0
) -> dict[str, float]:
    """p50/p95/p99 estimates of ``hist`` plus the exact max ``high``.

    Each estimate is scaled, then clamped to ``[low, high]``, the range
    every observation lies in, so the clamp only moves it closer to the
    true quantile (and keeps an idle batcher at zero).
    """
    return {
        name: min(high, max(low, hist.quantile(q) * scale)) for name, q in _DIST_POINTS
    } | {"max": high}


class MicroBatcher:
    """Coalesce concurrent ``(vector, k)`` queries into batched calls.

    ``handler(vectors, ks)`` receives a ``(batch, dim)`` float64 matrix
    and the per-query ``k`` list, and must return one result per row.
    ``submit`` blocks until the query's result (or the batch's
    exception) is available.

    Each dispatched batch is recorded once, in the ``serve.batch.size``
    and ``serve.batch.wait_seconds`` histograms of the metrics registry
    active when the batcher is built; ``stats()`` reads them back.
    """

    def __init__(
        self,
        handler: Callable[[np.ndarray, Sequence[int]], Sequence[Any]],
        max_batch: int = 32,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._handler = handler
        self.max_batch = max_batch
        registry = obs_metrics.get_metrics()
        self._sizes = registry.histogram("serve.batch.size", BATCH_SIZE_BOUNDS)
        self._waits = registry.histogram("serve.batch.wait_seconds")
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._largest_batch = 0
        self._longest_wait = 0.0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # -- client side ---------------------------------------------------

    def submit(self, vector: np.ndarray, k: int, timeout: float | None = None):
        """Enqueue one query and block for its result.

        A query not answered within ``timeout`` seconds is cancelled
        before ``TimeoutError`` is raised: if its batch has not been
        dispatched yet, it is dropped unscored.

        The submitter's request context (if any) rides along with the
        query: contextvars do not cross into the dispatcher thread, so
        the batcher captures it here and restores the whole batch's
        contexts around the handler call (``batch_scope``).
        """
        future: Future = Future()
        item = (np.asarray(vector, dtype=np.float64), int(k), future,
                time.monotonic(), serve_context.current_request())
        # Under the lock, so nothing can be queued behind close()'s _STOP.
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.put(item)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def stats(self) -> dict[str, Any]:
        """Dispatcher counters plus observed distributions.

        ``batches``, ``queries`` and ``mean_batch`` are exact (the size
        histogram's count and sum).  ``batch_size`` and ``wait_ms``
        summarise every dispatched batch (how many queries it coalesced
        and how long its longest-waiting query sat enqueued): p50/p95/
        p99 are histogram estimates good to one bucket (a batch holds at
        least one query, and no estimate exceeds the max), ``max`` is
        exact.  Exposed through the daemon's ``/stats`` so soak-report
        tail spikes can be correlated with queueing.  The key set is a
        stability contract — tests pin it.
        """
        sizes = self._sizes.snapshot()  # count and sum of one moment
        batches, queries = sizes["count"], int(sizes["sum"])
        with self._lock:
            largest, longest = self._largest_batch, self._longest_wait
        return {
            "batches": batches,
            "queries": queries,
            "largest_batch": largest,
            "mean_batch": (queries / batches) if batches else 0.0,
            "batch_size": _summary(self._sizes, 1.0, float(largest)),
            "wait_ms": _summary(self._waits, 0.0, longest * 1e3, scale=1e3),
        }

    def close(self) -> None:
        """Stop the dispatcher; queued work is still drained first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatcher side -----------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:  # always the last item queued
                    self._dispatch(batch)
                    return
                batch.append(item)
            self._dispatch(batch)

    def _dispatch(self, batch: list) -> None:
        # A query whose submitter gave up (and cancelled) is not scored.
        batch = [item for item in batch if item[2].set_running_or_notify_cancel()]
        if not batch:
            return
        flushed_at = time.monotonic()
        ks = [item[1] for item in batch]
        futures = [item[2] for item in batch]
        wait_seconds = flushed_at - min(item[3] for item in batch)
        contexts = [item[4] for item in batch if item[4] is not None]
        # Everything that can fail sits inside the try: an exception that
        # escaped here would kill the dispatcher thread and leave every
        # later submit waiting forever.
        try:
            vectors = np.stack([item[0] for item in batch])
            with serve_context.batch_scope(contexts):
                with serve_context.traced(
                    "serve.batch", size=len(batch), wait_ms=round(wait_seconds * 1e3, 3)
                ):
                    results = self._handler(vectors, ks)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results "
                    f"for {len(batch)} queries"
                )
        except BaseException as error:  # noqa: BLE001 - fan the failure out
            for future in futures:
                future.set_exception(error)
            return
        # Record before answering: a stats() read after an answer counts it.
        with self._lock:
            self._largest_batch = max(self._largest_batch, len(batch))
            self._longest_wait = max(self._longest_wait, wait_seconds)
        self._sizes.observe(float(len(batch)))
        self._waits.observe(wait_seconds)
        for future, result in zip(futures, results):
            future.set_result(result)
