"""Concurrency determinism for the serving layer.

Eight threads hammer one ``ServingState`` through the micro-batcher —
half querying, half inserting — and every response must be explainable
by exactly one published snapshot version (no torn reads): the returned
``version`` selects a ground truth computed afterwards by brute-force
rescoring the first ``base + version`` vectors, and ids *and* score
bytes must match it exactly.  A second pass pins the batching-neutrality
half of the contract: coalesced batches are bitwise equal to unbatched
single queries.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.serve.batching import MicroBatcher
from repro.serve.state import ServingState
from repro.storage import EmbeddingStore

from .conftest import FirstBatchGate

pytestmark = pytest.mark.serve

N_BASE, DIM = 32, 5
QUERY_THREADS = 4
INSERT_THREADS = 4
QUERIES_PER_THREAD = 25
INSERTS_PER_THREAD = 8
K = 6


@pytest.fixture
def state(tmp_path):
    rng = np.random.default_rng(77)
    base = rng.normal(size=(N_BASE, DIM)).astype(np.float64)
    store_path = tmp_path / "emb.store"
    store = EmbeddingStore.create(
        store_path, base.shape, "float64",
        capacity=N_BASE + INSERT_THREADS * INSERTS_PER_THREAD,
    )
    store[:] = base
    store.update_checksum()
    store.close()
    index = IVFIndex(n_clusters=4).train(base).add(base)
    index.save(tmp_path / "ivf.json")
    # Compaction disabled (thresholds out of reach) so snapshot version
    # == number of inserts, which the ground-truth replay keys on.
    return ServingState.load(
        store_path, tmp_path / "ivf.json",
        max_delta=10**6, skew_factor=1e9,
    )


def brute_force(query, vectors, k):
    """Ground truth under the serving total order (-score, position)."""
    from repro.similarity.metrics import prepare_stable_metric

    scores = prepare_stable_metric("cosine", query[None, :], vectors)(slice(None))[0]
    order = np.lexsort((np.arange(len(scores)), -scores))[: min(k, len(scores))]
    return order, scores[order]


def test_interleaved_queries_and_inserts_see_no_torn_state(state):
    rng = np.random.default_rng(99)
    query_vectors = rng.normal(size=(QUERY_THREADS, QUERIES_PER_THREAD, DIM))
    insert_vectors = rng.normal(size=(INSERT_THREADS, INSERTS_PER_THREAD, DIM))

    def handle(vectors, ks):
        return [
            sliced
            for result, k in zip(state.query(vectors, max(ks)), ks)
            for sliced in [
                type(result)(
                    entity_ids=result.entity_ids[:k],
                    scores=result.scores[:k],
                    version=result.version,
                )
            ]
        ]

    observed: list = []
    observed_lock = threading.Lock()
    start = threading.Barrier(QUERY_THREADS + INSERT_THREADS)
    failures: list = []

    with MicroBatcher(handle, max_batch=8) as batcher:

        def query_worker(worker: int) -> None:
            try:
                start.wait()
                for vector in query_vectors[worker]:
                    result = batcher.submit(vector, K)
                    with observed_lock:
                        observed.append((vector, result))
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        def insert_worker(worker: int) -> None:
            try:
                start.wait()
                for vector in insert_vectors[worker]:
                    state.insert(vector)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=query_worker, args=(i,))
            for i in range(QUERY_THREADS)
        ] + [
            threading.Thread(target=insert_worker, args=(i,))
            for i in range(INSERT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert not failures, failures
    assert len(observed) == QUERY_THREADS * QUERIES_PER_THREAD

    # Replay: position order in the final snapshot is insertion order,
    # so "the state at version v" is exactly the first base+v vectors.
    snap = state.snapshot
    total = snap.index.ntotal
    assert total == N_BASE + INSERT_THREADS * INSERTS_PER_THREAD
    all_vectors = snap.index.reconstruct(np.arange(total))
    versions_seen = set()
    for vector, result in observed:
        version = result.version
        assert 0 <= version <= total - N_BASE
        versions_seen.add(version)
        want_ids, want_scores = brute_force(vector, all_vectors[: N_BASE + version], K)
        np.testing.assert_array_equal(result.entity_ids, want_ids)
        np.testing.assert_array_equal(result.scores, want_scores)
    # The run actually interleaved: queries observed more than one version.
    assert len(versions_seen) > 1


def test_batched_results_equal_unbatched(state):
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(24, DIM))

    unbatched = [state.query(vector, K)[0] for vector in vectors]

    def handle(batch, ks):
        return [
            type(result)(
                entity_ids=result.entity_ids[:k],
                scores=result.scores[:k],
                version=result.version,
            )
            for result, k in zip(state.query(batch, max(ks)), ks)
        ]

    batched: dict[int, object] = {}
    lock = threading.Lock()
    start = threading.Barrier(8)

    # The gate holds the first batch until every worker's first query
    # is in flight, so the batcher must see multi-row batches, not 24
    # singletons.
    gate = FirstBatchGate(handle, in_flight=8)
    with gate.batcher_for(max_batch=8) as batcher:

        def worker(worker_index: int) -> None:
            start.wait()
            for row in range(worker_index, len(vectors), 8):
                result = batcher.submit(vectors[row], K)
                with lock:
                    batched[row] = result

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = batcher.stats()

    assert stats["queries"] == len(vectors)
    assert stats["largest_batch"] > 1  # coalescing actually happened
    for row, single in enumerate(unbatched):
        result = batched[row]
        np.testing.assert_array_equal(result.entity_ids, single.entity_ids)
        np.testing.assert_array_equal(result.scores, single.scores)
        assert result.version == single.version


def test_mixed_k_batches_slice_exactly(state):
    """Coalescing queries with different k never cross-contaminates."""
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(10, DIM))
    ks = [1 + (row % 5) for row in range(len(vectors))]

    def handle(batch, batch_ks):
        return [
            type(result)(
                entity_ids=result.entity_ids[:k],
                scores=result.scores[:k],
                version=result.version,
            )
            for result, k in zip(state.query(batch, max(batch_ks)), batch_ks)
        ]

    results: dict[int, object] = {}
    lock = threading.Lock()
    start = threading.Barrier(10)
    gate = FirstBatchGate(handle, in_flight=10)
    with gate.batcher_for(max_batch=10) as batcher:

        def worker(row: int) -> None:
            start.wait()
            result = batcher.submit(vectors[row], ks[row])
            with lock:
                results[row] = result

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = batcher.stats()

    assert stats["largest_batch"] >= 5  # the gate split 10 queries in two
    for row, k in enumerate(ks):
        single = state.query(vectors[row], k)[0]
        result = results[row]
        assert len(result.entity_ids) == min(k, state.snapshot.index.n_alive)
        np.testing.assert_array_equal(result.entity_ids, single.entity_ids)
        np.testing.assert_array_equal(result.scores, single.scores)
