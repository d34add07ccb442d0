"""Micro-batching for concurrent top-k queries.

Concurrent HTTP handler threads each hold one query; scoring them one
matrix at a time wastes the vectorised kernels.  The
:class:`MicroBatcher` funnels them through a single dispatcher thread
that drains whatever is queued (up to ``max_batch``, waiting at most
``max_wait`` seconds for stragglers) and hands the coalesced batch to
one handler call; each caller blocks on a future for its own slice.

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
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.serve import context as serve_context

#: Sentinel object closing the dispatcher loop.
_STOP = object()

#: Bucket upper bounds for the batch-size histogram: powers of two up
#: to 256 (``max_batch`` defaults far below that).
BATCH_SIZE_BOUNDS = tuple(2.0**i for i in range(9))

#: Per-batch observations retained for the stats distributions.  A
#: bounded window keeps /stats O(1)-memory under indefinite traffic
#: while still covering minutes of recent batches at soak rates.
OBSERVATION_WINDOW = 4096

#: The distribution points ``stats()`` reports per observed quantity.
#: Soak analysis (DESIGN.md §13) correlates response-tail spikes with
#: these: a p99 wait near ``max_wait`` means straggler-window flushes,
#: a large p99 batch size means queueing bursts.
_DIST_POINTS = (("p50", 50), ("p95", 95), ("p99", 99))


def _distribution(samples: "deque[float]") -> dict[str, float]:
    """p50/p95/p99/max summary of one bounded observation window."""
    if not samples:
        return {name: 0.0 for name, _ in _DIST_POINTS} | {"max": 0.0}
    values = np.asarray(samples, dtype=np.float64)
    summary = {
        name: float(np.percentile(values, q)) for name, q in _DIST_POINTS
    }
    summary["max"] = float(values.max())
    return summary


class MicroBatcher:
    """Coalesce concurrent ``(vector, k)`` queries into batched calls.

    ``handler(vectors, ks)`` receives a ``(batch, dim)`` float64 matrix
    and the per-query ``k`` list, and must return one result per row.
    ``submit`` blocks until the query's result (or the batch's
    exception) is available.
    """

    def __init__(
        self,
        handler: Callable[[np.ndarray, Sequence[int]], Sequence[Any]],
        max_batch: int = 32,
        max_wait: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self._handler = handler
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._batches = 0
        self._queries = 0
        self._largest_batch = 0
        self._size_window: deque[float] = deque(maxlen=OBSERVATION_WINDOW)
        self._wait_window: deque[float] = deque(maxlen=OBSERVATION_WINDOW)
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # -- client side ---------------------------------------------------

    def submit(self, vector: np.ndarray, k: int, timeout: float | None = None):
        """Enqueue one query and block for its result.

        The submitter's request context (if any) rides along with the
        query: contextvars do not cross into the dispatcher thread, so
        the batcher captures it here and restores the whole batch's
        contexts around the handler call (``batch_scope``).
        """
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        future: Future = Future()
        self._queue.put(
            (np.asarray(vector, dtype=np.float64), int(k), future,
             time.monotonic(), serve_context.current_request())
        )
        return future.result(timeout=timeout)

    def stats(self) -> dict[str, Any]:
        """Dispatcher counters plus observed distributions.

        ``batch_size`` and ``wait_ms`` summarise the recent observation
        window (per dispatched batch: how many queries it coalesced and
        how long its longest-waiting query sat enqueued before the
        flush).  Exposed through the daemon's ``/stats`` so soak-report
        tail spikes can be correlated with straggler-window flushes.
        The key set is a stability contract — tests pin it.
        """
        with self._lock:
            batches, queries = self._batches, self._queries
            largest = self._largest_batch
            sizes = _distribution(self._size_window)
            waits = _distribution(self._wait_window)
        return {
            "batches": batches,
            "queries": queries,
            "largest_batch": largest,
            "mean_batch": (queries / batches) if batches else 0.0,
            "batch_size": sizes,
            "wait_ms": waits,
        }

    def close(self) -> None:
        """Stop the dispatcher; queued work is still drained first."""
        if not self._closed:
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
            if self.max_batch > 1 and self.max_wait > 0:
                deadline = time.monotonic() + self.max_wait
                while len(batch) < self.max_batch:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        self._dispatch(batch)
                        return
                    batch.append(nxt)
            self._dispatch(batch)

    def _dispatch(self, batch: list) -> None:
        flushed_at = time.monotonic()
        vectors = np.stack([item[0] for item in batch])
        ks = [item[1] for item in batch]
        futures = [item[2] for item in batch]
        wait_seconds = flushed_at - min(item[3] for item in batch)
        wait_ms = wait_seconds * 1e3
        contexts = [item[4] for item in batch if item[4] is not None]
        try:
            with serve_context.batch_scope(contexts):
                with serve_context.traced(
                    "serve.batch", size=len(batch), wait_ms=round(wait_ms, 3)
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
        for future, result in zip(futures, results):
            future.set_result(result)
        with self._lock:
            self._batches += 1
            self._queries += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
            self._size_window.append(float(len(batch)))
            self._wait_window.append(wait_ms)
        registry = obs_metrics.get_metrics()
        registry.inc("serve.batches")
        registry.inc("serve.batched_queries", len(batch))
        registry.histogram("serve.batch.size", BATCH_SIZE_BOUNDS).observe(
            float(len(batch))
        )
        registry.observe("serve.batch.wait_seconds", wait_seconds)
