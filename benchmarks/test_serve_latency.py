"""Serving latency/throughput benchmark for the online alignment daemon.

Measures the two numbers a serving deployment is sized by and records
them into ``benchmarks/results/BENCH_serve.json`` for the bench-check
regression gate:

* single-query latency through ``ServingState.query`` (the in-process
  path the HTTP handler sits on), reported as p50/p95 over a fixed
  query stream against a store with a populated delta layer — the
  worst realistic read path: IVF probe + brute-force delta scan +
  merge;
* coalesced throughput through the ``MicroBatcher`` with concurrent
  submitters, reported as ``queries_per_second``.

Absolute numbers are hardware-bound; the committed baseline is gated
with the wide ``*per_second*`` / ``*seconds*`` tolerance bands in
``check_regression.py``.  The assertions here are sanity floors only
(the service answers, batching actually coalesces), not perf targets.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.obs import metrics as obs_metrics
from repro.serve.batching import MicroBatcher
from repro.serve.state import ServingState
from repro.storage import EmbeddingStore

from conftest import RESULTS_DIR

pytestmark = pytest.mark.serve

N_BASE, DIM, N_CLUSTERS = 4000, 64, 16
N_DELTA = 48  # live delta depth during the measurement (worst read path)
NPROBE = 4
K = 10
LATENCY_QUERIES = 400
THROUGHPUT_QUERIES = 800
SUBMIT_THREADS = 8


def _merge_results(key, entry):
    """Merge one benchmark section into BENCH_serve.json (tests may run solo)."""
    path = RESULTS_DIR / "BENCH_serve.json"
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        document = {}
    document[key] = entry
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def served_state(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-bench")
    rng = np.random.default_rng(20240808)
    base = rng.normal(size=(N_BASE, DIM)).astype(np.float64)
    store = EmbeddingStore.create(
        tmp / "emb.store", base.shape, "float64", capacity=N_BASE + N_DELTA
    )
    store[:] = base
    store.update_checksum()
    store.close()
    IVFIndex(n_clusters=N_CLUSTERS).train(base).add(base).save(tmp / "ivf.json")
    state = ServingState.load(
        tmp / "emb.store", tmp / "ivf.json",
        nprobe=NPROBE, max_delta=N_DELTA + 1,  # keep the delta un-compacted
    )
    for vector in rng.normal(size=(N_DELTA, DIM)):
        state.insert(vector)
    assert state.stats()["delta_depth"] == N_DELTA
    return state


def test_single_query_latency(served_state):
    rng = np.random.default_rng(7)
    queries = rng.normal(size=(LATENCY_QUERIES, DIM))

    served_state.query(queries[0], K)  # warm caches / code paths
    samples = np.empty(LATENCY_QUERIES)
    for row, query in enumerate(queries):
        start = time.perf_counter()
        served_state.query(query, K)
        samples[row] = time.perf_counter() - start

    p50, p95 = (float(np.percentile(samples, q)) for q in (50, 95))
    _merge_results("single_query", {
        "n_base": N_BASE, "dim": DIM, "nprobe": NPROBE, "k": K,
        "delta_depth": N_DELTA, "queries": LATENCY_QUERIES,
        "p50_seconds": p50, "p95_seconds": p95,
    })
    print(f"\nserve single-query: p50={p50 * 1e3:.3f}ms p95={p95 * 1e3:.3f}ms")
    assert p95 < 1.0  # sanity floor, not a perf target


def test_batched_throughput(served_state):
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(THROUGHPUT_QUERIES, DIM))

    def handle(batch, ks):
        return [
            type(result)(
                entity_ids=result.entity_ids[:k],
                scores=result.scores[:k],
                version=result.version,
            )
            for result, k in zip(served_state.query(batch, max(ks)), ks)
        ]

    start_barrier = threading.Barrier(SUBMIT_THREADS + 1)
    failures: list = []

    # A fresh registry: the batcher's stats are the histograms it records
    # into, and this run's batches must be the only ones in them.
    with obs_metrics.scoped(), MicroBatcher(handle, max_batch=32) as batcher:

        def worker(worker_index: int) -> None:
            try:
                start_barrier.wait()
                for row in range(worker_index, THROUGHPUT_QUERIES, SUBMIT_THREADS):
                    batcher.submit(vectors[row], K)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(SUBMIT_THREADS)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = batcher.stats()

    assert not failures, failures
    assert stats["queries"] == THROUGHPUT_QUERIES
    assert stats["largest_batch"] > 1  # coalescing actually happened

    qps = THROUGHPUT_QUERIES / elapsed
    _merge_results("batched", {
        "n_base": N_BASE, "dim": DIM, "nprobe": NPROBE, "k": K,
        "threads": SUBMIT_THREADS, "queries": THROUGHPUT_QUERIES,
        "largest_batch": stats["largest_batch"],
        "mean_batch": stats["mean_batch"],
        "total_seconds": elapsed,
        "queries_per_second": qps,
    })
    print(f"\nserve batched: {qps:.0f} qps "
          f"(mean batch {stats['mean_batch']:.1f}, largest {stats['largest_batch']})")
    assert qps > 20.0  # sanity floor, not a perf target
