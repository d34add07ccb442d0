"""MicroBatcher observability: the /stats key contract and distributions.

Soak reports correlate response-tail spikes with straggler-window
flushes through these numbers, so the key set is a stability contract:
renaming or dropping a key silently breaks dashboards and the soak
analysis — this suite pins it, for the batcher's own ``stats()`` and
for the daemon's full ``/stats`` document.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve.batching import MicroBatcher

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
        with MicroBatcher(echo_handler, max_batch=4, max_wait=0.01) as batcher:
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
        with MicroBatcher(echo_handler, max_batch=1, max_wait=0.0) as batcher:
            for _ in range(8):
                batcher.submit([0.0], 1)
            stats = batcher.stats()
        assert stats["batch_size"]["p50"] == 1.0
        assert stats["batch_size"]["max"] == 1.0

    def test_coalesced_batches_register_sizes_above_one(self):
        release = threading.Barrier(6)

        with MicroBatcher(echo_handler, max_batch=6, max_wait=0.2) as batcher:

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

    def test_wait_reflects_the_straggler_window(self):
        """With a forced straggler wait, observed wait_ms is non-trivial
        but bounded by the configured window (plus scheduling slack)."""
        release = threading.Barrier(2)

        with MicroBatcher(echo_handler, max_batch=8, max_wait=0.05) as batcher:

            def worker() -> None:
                release.wait()
                batcher.submit([0.0], 1)

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = batcher.stats()

        assert stats["wait_ms"]["max"] > 0.0
        assert stats["wait_ms"]["max"] < 1000.0  # not unbounded

    def test_percentiles_are_ordered(self):
        with MicroBatcher(echo_handler, max_batch=3, max_wait=0.005) as batcher:
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
        with MicroBatcher(width_handler, max_batch=2, max_wait=5.0) as batcher:

            def submit_pair(first, second):
                with ThreadPoolExecutor(2) as pool:
                    futures = [
                        pool.submit(batcher.submit, np.zeros(dim), 1, 10.0)
                        for dim in (first, second)
                    ]
                    return [future.exception() or future.result() for future in futures]

            outcomes = submit_pair(32, 31)
            assert all(isinstance(outcome, ValueError) for outcome in outcomes)
            assert batcher._thread.is_alive()
            assert submit_pair(32, 32) == [32, 32]
