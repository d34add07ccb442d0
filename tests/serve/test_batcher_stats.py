"""MicroBatcher behaviour and observability: drain-then-dispatch, the
/stats key contract and distributions.

Soak reports correlate response-tail spikes with queueing in the
batcher through these numbers, so the key set is a stability contract:
renaming or dropping a key silently breaks dashboards and the soak
analysis — this suite pins it, for the batcher's own ``stats()`` and
for the daemon's full ``/stats`` document.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve.batching import MicroBatcher

from .conftest import FirstBatchGate

pytestmark = pytest.mark.serve

#: The contract: exactly these keys, exactly these distribution points.
TOP_KEYS = {"batches", "queries", "largest_batch", "mean_batch",
            "batch_size", "wait_ms"}
DIST_KEYS = {"p50", "p95", "p99", "max"}

#: The daemon-level /stats contract: index geometry + serving state +
#: process context + live SLO.  Dashboards and the soak harness key off
#: these names.
STATS_KEYS = {
    # index.stats()
    "metric", "n_clusters", "ntotal", "alive", "tombstones", "dim",
    "trained", "list_min", "list_mean", "list_max", "empty_lists",
    "imbalance",
    # serving state
    "delta_depth", "version", "compactions", "live_entities",
    "store_rows", "store_capacity", "nprobe",
    # subsystem blocks
    "cache", "batcher", "slo",
    # process context
    "uptime_seconds", "peak_rss_bytes",
}


def echo_handler(vectors, ks):
    return [int(k) for k in ks]


class TestKeyStability:
    def test_idle_batcher_reports_the_full_key_set(self):
        with MicroBatcher(echo_handler) as batcher:
            stats = batcher.stats()
        assert set(stats) == TOP_KEYS
        assert set(stats["batch_size"]) == DIST_KEYS
        assert set(stats["wait_ms"]) == DIST_KEYS
        assert all(value == 0.0 for value in stats["batch_size"].values())
        assert all(value == 0.0 for value in stats["wait_ms"].values())

    def test_keys_are_identical_before_and_after_traffic(self):
        with MicroBatcher(echo_handler, max_batch=4) as batcher:
            idle = batcher.stats()
            for _ in range(5):
                batcher.submit([0.0], 3)
            busy = batcher.stats()
        assert set(idle) == set(busy) == TOP_KEYS
        assert set(busy["batch_size"]) == set(busy["wait_ms"]) == DIST_KEYS

    def test_all_values_are_json_plain_numbers(self):
        import json

        with MicroBatcher(echo_handler) as batcher:
            batcher.submit([0.0], 1)
            stats = batcher.stats()
        json.dumps(stats)  # no numpy scalars may leak onto the wire
        for summary in (stats["batch_size"], stats["wait_ms"]):
            assert all(isinstance(value, float) for value in summary.values())


class TestDaemonStatsContract:
    def test_handle_stats_reports_the_full_key_set(self, tmp_path):
        from repro.index import IVFIndex
        from repro.serve.http import AlignmentServer
        from repro.serve.state import ServingState
        from repro.storage import EmbeddingStore

        rng = np.random.default_rng(11)
        base = rng.normal(size=(12, 4)).astype(np.float64)
        store_path = tmp_path / "emb.store"
        store = EmbeddingStore.create(store_path, base.shape, "float64",
                                      capacity=24)
        store[:] = base
        store.update_checksum()
        store.close()
        index = IVFIndex(n_clusters=2).train(base).add(base)
        index.save(tmp_path / "ivf.json")
        state = ServingState.load(store_path, tmp_path / "ivf.json")
        server = AlignmentServer(("127.0.0.1", 0), state)
        try:
            stats = server.handle_stats()
        finally:
            server.close()
        assert set(stats) == STATS_KEYS
        assert stats["uptime_seconds"] >= 0.0
        assert stats["peak_rss_bytes"] > 0
        assert set(stats["batcher"]) == TOP_KEYS
        slo = stats["slo"]
        assert {"objective", "breaching", "windows"} <= set(slo)
        for window in slo["windows"].values():
            assert {"requests", "bad", "bad_ratio", "burn_rate",
                    "budget_left"} <= set(window)


class TestDistributions:
    def test_singleton_batches_collapse_the_size_distribution(self):
        with MicroBatcher(echo_handler, max_batch=1) as batcher:
            for _ in range(8):
                batcher.submit([0.0], 1)
            stats = batcher.stats()
        assert stats["batch_size"]["p50"] == 1.0
        assert stats["batch_size"]["max"] == 1.0

    def test_coalesced_batches_register_sizes_above_one(self):
        release = threading.Barrier(6)
        gate = FirstBatchGate(echo_handler, in_flight=6)

        with gate.batcher_for(max_batch=6) as batcher:

            def worker() -> None:
                release.wait()
                batcher.submit([0.0], 1)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = batcher.stats()

        assert stats["queries"] == 6
        assert stats["batch_size"]["max"] > 1.0
        assert stats["batch_size"]["max"] == float(stats["largest_batch"])

    def test_wait_reflects_queueing_behind_the_gated_batch(self):
        """A query queued behind a busy batch waits for it: observed
        wait_ms is non-trivial but bounded (plus scheduling slack)."""
        gate = FirstBatchGate(echo_handler, in_flight=2)

        with gate.batcher_for(max_batch=8) as batcher:
            first = threading.Thread(target=batcher.submit, args=([0.0], 1))
            first.start()
            assert gate.entered.wait(5.0)
            batcher.submit([0.0], 1)
            first.join()
            stats = batcher.stats()

        assert stats["batches"] == 2
        assert stats["wait_ms"]["max"] > 0.0
        assert stats["wait_ms"]["max"] < 1000.0  # not unbounded

    def test_percentiles_are_ordered(self):
        with MicroBatcher(echo_handler, max_batch=3) as batcher:
            for _ in range(20):
                batcher.submit([0.0], 1)
            stats = batcher.stats()
        for key in ("batch_size", "wait_ms"):
            summary = stats[key]
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
            assert summary["p99"] <= summary["max"]


def width_handler(vectors, ks):
    return [vectors.shape[1]] * len(ks)


class TestFailingBatch:
    def test_malformed_query_fails_only_its_own_batch(self):
        """A batch that cannot be stacked (31- and 32-dim queries) fails
        its own futures; the dispatcher survives and serves later work."""
        # The pair queues behind a gated first query, so it shares a batch.
        gate = FirstBatchGate(width_handler, in_flight=3)
        with gate.batcher_for(max_batch=2) as batcher:
            blocker = threading.Thread(target=batcher.submit, args=(np.zeros(32), 1))
            blocker.start()
            assert gate.entered.wait(5.0)

            def submit_pair(first, second):
                with ThreadPoolExecutor(2) as pool:
                    futures = [
                        pool.submit(batcher.submit, np.zeros(dim), 1, 10.0)
                        for dim in (first, second)
                    ]
                    return [future.exception() or future.result() for future in futures]

            outcomes = submit_pair(32, 31)
            blocker.join()
            assert all(isinstance(outcome, ValueError) for outcome in outcomes)
            assert batcher._thread.is_alive()
            assert submit_pair(32, 32) == [32, 32]


def tag_handler(vectors, ks):
    return [int(row[0]) for row in vectors]


class TestDrainThenDispatch:
    def test_queued_queries_dispatch_fifo_in_batches_of_at_most_max_batch(self):
        batches: list[list[int]] = []

        def record(vectors, ks):
            batches.append(tag_handler(vectors, ks))
            return batches[-1]

        gate = FirstBatchGate(record, in_flight=12)
        with gate.batcher_for(max_batch=5) as batcher:
            results: dict[int, int] = {}

            def worker(tag: int) -> None:
                results[tag] = batcher.submit([float(tag)], 1)

            threads = [threading.Thread(target=worker, args=(tag,)) for tag in range(12)]
            threads[0].start()
            assert gate.entered.wait(5.0)
            # Queue the rest one at a time, so queue order is tag order.
            for tag in range(1, 12):
                threads[tag].start()
                while batcher._queue.qsize() < tag:
                    threads[tag].join(0.001)
            for thread in threads:
                thread.join()

        assert batches == [[0], [1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11]]
        assert results == {tag: tag for tag in range(12)}

    def test_close_drains_queued_work_first(self):
        # Four queries plus close()'s stop marker: the gate holds the
        # first batch until close() has queued the marker behind the rest.
        gate = FirstBatchGate(tag_handler, in_flight=5)
        batcher = gate.batcher_for(max_batch=2)
        results: dict[int, int] = {}

        def worker(tag: int) -> None:
            results[tag] = batcher.submit([float(tag)], 1)

        threads = [threading.Thread(target=worker, args=(tag,)) for tag in range(4)]
        threads[0].start()
        assert gate.entered.wait(5.0)
        for thread in threads[1:]:
            thread.start()
        while batcher._queue.qsize() < 3:
            threads[0].join(0.001)
        batcher.close()
        for thread in threads:
            thread.join(5.0)

        assert results == {tag: tag for tag in range(4)}
        assert not batcher._thread.is_alive()
        assert batcher.stats()["queries"] == 4

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(echo_handler)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit([0.0], 1)
        batcher.close()  # idempotent
