"""Tests for the similarity engine and its score-matrix cache."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.greedy import Greedy
from repro.core.registry import PAPER_MATCHERS, create_matcher
from repro.similarity.engine import SimilarityEngine, fingerprint
from repro.similarity.metrics import prepare_metric, similarity_matrix
from repro.utils.parallel import SHARD_BUDGET_FACTOR, Shard


@pytest.fixture()
def embeddings(rng):
    return rng.normal(size=(64, 16)), rng.normal(size=(48, 16))


class TestFingerprint:
    def test_deterministic_and_content_sensitive(self, rng):
        a = rng.normal(size=(5, 3))
        assert fingerprint(a) == fingerprint(a.copy())
        b = a.copy()
        b[0, 0] += 1.0
        assert fingerprint(a) != fingerprint(b)

    def test_shape_sensitive(self):
        flat = np.arange(12.0)
        assert fingerprint(flat.reshape(3, 4)) != fingerprint(flat.reshape(4, 3))

    def test_noncontiguous_input(self, rng):
        a = rng.normal(size=(8, 6))
        assert fingerprint(a[:, ::2]) == fingerprint(np.ascontiguousarray(a[:, ::2]))


class TestEngineResults:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
    @pytest.mark.parametrize("runs", [1, 2, 4])
    def test_default_policy_bitwise_equals_serial(self, embeddings, metric, runs):
        # With the default chunk policy this problem is a single chunk, so
        # the engine result is bitwise-identical to similarity_matrix, on
        # every computation one engine runs (no cache: each run scores).
        source, target = embeddings
        serial = similarity_matrix(source, target, metric=metric)
        with SimilarityEngine(cache=False) as engine:
            for _ in range(runs):
                scores = engine.similarity(source, target, metric=metric)
                np.testing.assert_array_equal(scores, serial)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 13])
    @pytest.mark.parametrize("shard_cols", [None, 5])
    def test_fixed_grid_matches_serial(self, embeddings, metric, chunk_rows, shard_cols):
        source, target = embeddings
        results = []
        for _ in range(2):
            with SimilarityEngine(chunk_rows=chunk_rows, shard_cols=shard_cols) as engine:
                results.append(engine.similarity(source, target, metric=metric))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_allclose(
            results[0], similarity_matrix(source, target, metric=metric), atol=1e-12
        )

    def test_float32_mode(self, embeddings):
        source, target = embeddings
        with SimilarityEngine(dtype="float32") as engine:
            scores = engine.similarity(source, target)
        assert scores.dtype == np.float32
        np.testing.assert_allclose(
            scores, similarity_matrix(source, target), atol=1e-5
        )

    def test_invalid_settings(self):
        with pytest.raises(ValueError, match="dtype"):
            SimilarityEngine(dtype=np.int32)
        with pytest.raises(ValueError, match="cache_size"):
            SimilarityEngine(cache_size=0)
        with pytest.raises(ValueError, match="chunk_rows"):
            SimilarityEngine(chunk_rows=0)

    def test_unknown_metric(self, embeddings):
        source, target = embeddings
        with SimilarityEngine() as engine:
            with pytest.raises(ValueError, match="unknown similarity metric"):
                engine.similarity(source, target, metric="chebyshev")


class TestEngineCache:
    def test_hit_and_miss_counters(self, embeddings):
        source, target = embeddings
        with SimilarityEngine() as engine:
            first = engine.similarity(source, target)
            second = engine.similarity(source, target)
            assert second is first
            assert engine.stats.hits == 1
            assert engine.stats.misses == 1
            assert engine.stats.computations == 1

    def test_key_includes_metric_and_inputs(self, embeddings, rng):
        source, target = embeddings
        with SimilarityEngine() as engine:
            engine.similarity(source, target, metric="cosine")
            engine.similarity(source, target, metric="euclidean")
            engine.similarity(rng.normal(size=source.shape), target)
            assert engine.stats.computations == 3
            assert engine.stats.hits == 0

    def test_cached_matrix_is_readonly(self, embeddings):
        source, target = embeddings
        with SimilarityEngine() as engine:
            scores = engine.similarity(source, target)
            with pytest.raises((ValueError, RuntimeError)):
                scores[0, 0] = 42.0

    def test_lru_eviction(self, embeddings, rng):
        source, target = embeddings
        with SimilarityEngine(cache_size=1) as engine:
            engine.similarity(source, target)
            engine.similarity(rng.normal(size=source.shape), target)
            assert engine.stats.evictions == 1
            engine.similarity(source, target)  # evicted -> recompute
            assert engine.stats.computations == 3

    def test_cache_disabled(self, embeddings):
        source, target = embeddings
        with SimilarityEngine(cache=False) as engine:
            first = engine.similarity(source, target)
            second = engine.similarity(source, target)
            assert first is not second
            assert engine.stats.hits == 0
            assert engine.stats.computations == 2
            assert engine.cache_info()["entries"] == 0
            # Uncached results stay writable: the caller owns them.
            first[0, 0] = 0.0

    def test_clear_cache(self, embeddings):
        source, target = embeddings
        with SimilarityEngine() as engine:
            engine.similarity(source, target)
            engine.clear_cache()
            assert engine.cache_info()["entries"] == 0
            engine.similarity(source, target)
            assert engine.stats.computations == 2


class TestEngineCounters:
    def test_counters_consistent_under_concurrent_calls(self, rng):
        # The serving daemon runs concurrent requests through one shared
        # engine; every call is exactly one hit or one miss, and every
        # miss is exactly one computation.
        sources = [rng.normal(size=(8, 4)) for _ in range(3)]
        target = rng.normal(size=(8, 4))
        threads, calls = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with SimilarityEngine(cache_size=1) as engine:

                def work(offset):
                    for call in range(calls):
                        engine.similarity(sources[(call + offset) % 3], target)

                with ThreadPoolExecutor(max_workers=threads) as pool:
                    list(pool.map(work, range(threads)))
                stats = engine.stats
        finally:
            sys.setswitchinterval(interval)
        assert stats.hits + stats.misses == threads * calls
        assert stats.computations == stats.misses
        assert stats.hits > 0 and stats.misses > 0


class TestEngineChunkedEntryPoints:
    def test_top_k_matches_dense(self, embeddings):
        from repro.similarity.topk import top_k_values

        source, target = embeddings
        with SimilarityEngine() as engine:
            _, scores = engine.top_k(source, target, k=5, chunk_size=7)
        dense = similarity_matrix(source, target)
        np.testing.assert_allclose(scores, top_k_values(dense, 5), atol=1e-12)

    def test_top_k_candidates_matches_streamed_kernel(self, embeddings):
        from repro.similarity.chunked import chunked_top_k

        source, target = embeddings
        with SimilarityEngine(cache=False) as engine:
            cands = engine.top_k_candidates(source, target, k=5)
        ids, scores = chunked_top_k(source, target, 5)
        np.testing.assert_array_equal(cands.indices.reshape(64, 5), ids)
        np.testing.assert_allclose(cands.scores.reshape(64, 5), scores)
        assert engine.stats.hits == 0

    def test_top_k_candidates_served_from_cache(self, embeddings):
        source, target = embeddings
        with SimilarityEngine() as engine:
            dense = engine.similarity(source, target)
            cands = engine.top_k_candidates(source, target, k=5)
            assert engine.stats.hits == 1
        from repro.similarity.topk import top_k_values

        np.testing.assert_allclose(
            cands.scores.reshape(64, 5), top_k_values(dense, 5)
        )

    def test_top_k_candidates_clamps_k(self, embeddings):
        source, target = embeddings
        with SimilarityEngine(cache=False) as engine:
            cands = engine.top_k_candidates(source, target, k=10_000)
        assert cands.k_max == target.shape[0]
        with SimilarityEngine(cache=False) as engine, pytest.raises(
            ValueError, match="k must be"
        ):
            engine.top_k_candidates(source, target, k=0)


class TestSharedEngineSweep:
    """Tier-1-safe benchmark smoke: the cross-matcher cache contract.

    Small n, no timing assertions — regressions in the engine's sharing
    behaviour are caught structurally, without wall-clock flakiness.
    """

    def test_seven_matcher_sweep_computes_similarity_once(self, rng):
        source = rng.normal(size=(40, 12))
        target = rng.normal(size=(40, 12))
        baseline = {
            name: create_matcher(name).match(source, target).as_set()
            for name in PAPER_MATCHERS
        }
        with SimilarityEngine() as engine:
            for name in PAPER_MATCHERS:
                matcher = create_matcher(name)
                matcher.engine = engine
                result = matcher.match(source, target)
                # Sharing one S must not change any matcher's decisions.
                assert result.as_set() == baseline[name], name
            # The base similarity matrix was computed exactly once; every
            # other matcher was served from the cache.
            assert engine.stats.computations == 1
            assert engine.stats.misses == 1
            assert engine.stats.hits == len(PAPER_MATCHERS) - 1


class TestShardGrid:
    """The grid the engine scores: results depend on it, nothing else.

    A memory budget of ~500 elements per shard forces a real row x
    column grid on a 60 x 60 problem; at this size every tile's dot
    products sum in the same order as the single default tile.
    """

    SIZE = 60
    BUDGET = SHARD_BUDGET_FACTOR * 8 * 500  # ~500-element shards

    @pytest.fixture
    def problem(self, rng):
        return rng.normal(size=(self.SIZE, 8)), rng.normal(size=(self.SIZE, 8))

    def test_budget_grid_equals_default_grid(self, problem):
        source, target = problem
        with SimilarityEngine(cache=False) as engine:
            default = engine.similarity(source, target)
            assert engine.resource_info() == {"shards": 1}
        with SimilarityEngine(memory_budget=self.BUDGET, cache=False) as engine:
            tiled = engine.similarity(source, target)
            assert engine.resource_info()["shards"] > 1
        np.testing.assert_array_equal(tiled, default)

    def test_fixed_grid_bitwise_identical_across_engines(self, problem):
        # The same budget plans the same grid on every engine, and the
        # grid alone fixes the bits.
        source, target = problem
        runs = []
        for _ in range(3):
            with SimilarityEngine(memory_budget=self.BUDGET, cache=False) as engine:
                runs.append((engine.similarity(source, target), engine.resource_info()))
        reference, reference_info = runs[0]
        assert reference_info["shards"] > 1  # the budget forced a real grid
        for scores, info in runs[1:]:
            np.testing.assert_array_equal(scores, reference)
            assert info == reference_info

    def test_match_results_identical_across_grids(self, problem):
        source, target = problem
        results = []
        for budget in (None, self.BUDGET):
            with SimilarityEngine(memory_budget=budget, cache=False) as engine:
                results.append(Greedy().match_scores(engine.similarity(source, target)))
        np.testing.assert_array_equal(results[0].pairs, results[1].pairs)
        np.testing.assert_array_equal(results[0].scores, results[1].scores)

    def test_each_computation_prepares_its_own_kernel(self, problem, rng):
        # One engine serves several computations in a row: the metric
        # prepared for one (unit rows, squared norms) must never score
        # the next one's tiles.
        source, target = problem
        other = rng.normal(size=target.shape)
        with SimilarityEngine(chunk_rows=8, cache=False) as shared:
            for metric, right in (
                ("euclidean", target), ("euclidean", other),
                ("cosine", target), ("manhattan", other),
            ):
                with SimilarityEngine(chunk_rows=8, cache=False) as fresh:
                    np.testing.assert_array_equal(
                        shared.similarity(source, right, metric=metric),
                        fresh.similarity(source, right, metric=metric),
                    )

    def test_kernel_tile_matches_dense_tile(self, rng):
        source = rng.normal(size=(12, 6))
        target = rng.normal(size=(9, 6))
        dense = similarity_matrix(source, target)
        shard = Shard(slice(3, 9), slice(2, 7))
        kernel = prepare_metric("cosine", source, target)
        np.testing.assert_array_equal(
            kernel(shard.rows, shard.cols), dense[3:9, 2:7]
        )

    def test_resource_info_before_any_compute(self):
        # Nothing has run yet, so no shards.
        with SimilarityEngine(chunk_rows=10) as engine:
            assert engine.resource_info() == {"shards": 0}

    def test_resource_info_counts_shards(self, rng):
        with SimilarityEngine(chunk_rows=10, cache=False) as engine:
            engine.similarity(rng.normal(size=(25, 4)), rng.normal(size=(8, 4)))
            assert engine.resource_info() == {"shards": 3}


class TestRunnerIntegration:
    def test_run_experiment_shares_engine_across_matchers(self, rng):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            preset="dbp15k/zh_en",
            matchers=("DInf", "CSLS", "Sink."),
            scale=0.02,
        )
        with SimilarityEngine() as engine:
            result = run_experiment(config, engine=engine)
            # One computation serves the diagnostics pass plus every matcher.
            assert engine.stats.computations == 1
            assert engine.stats.hits == len(config.matchers)
        assert set(result.runs) == set(config.matchers)


_PROCESS_MODULES = (
    "multiprocessing",
    "multiprocessing.shared_memory",
    "concurrent.futures.process",
)


class TestNoProcessMachineryImported:
    def test_serve_import_path_loads_no_process_pool(self):
        # A fresh interpreter: this test process may already hold them.
        # Every score is computed in the calling thread, so the daemon's
        # import graph (http -> state -> index -> similarity) needs none
        # of the process-pool or shared-memory modules.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys\n"
            "import repro.serve.http\n"
            f"print([m for m in {_PROCESS_MODULES!r} if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
