"""Sharded similarity: planner partitioning and backend determinism.

The contract under test is the one the whole out-of-core path leans on:
the shard grid is a pure function of the problem shape and the policy
(never the worker count), every shard owns a disjoint output tile, and
the calling thread and the shard worker processes produce
*bitwise-identical* score matrices at every worker count.
"""

import numpy as np
import pytest

from repro.core.greedy import Greedy
from repro.similarity.engine import SimilarityEngine
from repro.similarity.metrics import prepare_metric, similarity_matrix
from repro.utils.parallel import SHARD_BUDGET_FACTOR, Shard, plan_shards


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestPlanShards:
    def test_grid_tiles_the_matrix_exactly_once(self):
        plan = plan_shards(23, 17, chunk_rows=5, chunk_cols=4)
        hits = np.zeros((23, 17), dtype=int)
        for shard in plan:
            hits[shard.rows, shard.cols] += 1
        assert (hits == 1).all()

    def test_memory_budget_bounds_shard_elems(self):
        budget = 4096
        plan = plan_shards(100, 100, memory_budget=budget, itemsize=8)
        limit = budget // (SHARD_BUDGET_FACTOR * 8)
        assert len(plan) > 1
        for shard in plan:
            assert shard.elems <= limit

    def test_grid_is_shape_and_policy_only(self):
        # Same shape + same policy => same grid, computed twice.
        first = plan_shards(50, 30, memory_budget=10_000)
        second = plan_shards(50, 30, memory_budget=10_000)
        assert first == second

    def test_empty_problems_plan_nothing(self):
        assert plan_shards(0, 10) == []
        assert plan_shards(10, 0) == []

    def test_negative_shapes_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 5)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(5, 5, memory_budget=0)

    def test_kernel_tile_matches_dense_tile(self, rng):
        source = rng.normal(size=(12, 6))
        target = rng.normal(size=(9, 6))
        dense = similarity_matrix(source, target)
        shard = Shard(slice(3, 9), slice(2, 7))
        kernel = prepare_metric("cosine", source, target)
        np.testing.assert_array_equal(
            kernel(shard.rows, shard.cols), dense[3:9, 2:7]
        )


class TestBackendDeterminism:
    """thread vs process x 1/2/4 workers: one canonical score matrix.

    ``process_threshold`` picks the backend at ``workers > 1``: 1 sends
    every multi-shard problem to the pool, a huge value keeps it in the
    calling thread."""

    SIZE = 60

    @pytest.fixture
    def problem(self, rng):
        source = rng.normal(size=(self.SIZE, 8))
        target = rng.normal(size=(self.SIZE, 8))
        return source, target

    THRESHOLDS = {"thread": 10**9, "process": 1}

    def _scores(self, problem, backend, workers):
        source, target = problem
        with SimilarityEngine(
            workers=workers,
            memory_budget=SHARD_BUDGET_FACTOR * 8 * 500,  # ~500-elem shards
            process_threshold=self.THRESHOLDS[backend],
            cache=False,
        ) as engine:
            scores = engine.similarity(source, target)
            info = engine.resource_info()
        return scores, info

    def test_bitwise_identical_across_backends_and_workers(self, problem):
        reference, reference_info = self._scores(problem, "thread", 1)
        assert reference_info["shards"] > 1  # the budget forced a real grid
        for backend in ("thread", "process"):
            for workers in (1, 2, 4):
                scores, info = self._scores(problem, backend, workers)
                assert np.array_equal(scores, reference), (backend, workers)
                assert info["shards"] == reference_info["shards"]
                executed = backend if workers > 1 else "thread"
                assert info["backend"] == executed, (backend, workers)

    def test_match_results_identical_across_backends(self, problem):
        source, target = problem
        results = []
        for backend in ("thread", "process"):
            with SimilarityEngine(
                workers=2,
                memory_budget=SHARD_BUDGET_FACTOR * 8 * 500,
                process_threshold=self.THRESHOLDS[backend],
                cache=False,
            ) as engine:
                scores = engine.similarity(source, target)
            results.append(Greedy().match_scores(scores))
        np.testing.assert_array_equal(results[0].pairs, results[1].pairs)
        np.testing.assert_array_equal(results[0].scores, results[1].scores)

    def test_sharded_path_equals_legacy_dense_path(self, problem):
        source, target = problem
        with SimilarityEngine(workers=1, cache=False) as engine:
            legacy = engine.similarity(source, target)
        sharded, _ = self._scores(problem, "thread", 2)
        np.testing.assert_array_equal(sharded, legacy)

    def test_pool_workers_prepare_each_computation_afresh(self, problem, rng):
        # One pool serves several computations: a worker caches the
        # kernel it prepared for one computation and must never score
        # the next computation's shards with it.
        source, target = problem
        other = rng.normal(size=target.shape)
        with SimilarityEngine(
            workers=2, chunk_rows=8, process_threshold=1, cache=False
        ) as pool_engine, SimilarityEngine(chunk_rows=8, cache=False) as engine:
            for metric, right in (
                ("euclidean", target), ("euclidean", other),
                ("cosine", target), ("manhattan", other),
            ):
                scores = pool_engine.similarity(source, right, metric=metric)
                assert pool_engine.resource_info()["backend"] == "process"
                np.testing.assert_array_equal(
                    scores, engine.similarity(source, right, metric=metric)
                )

    def test_process_backend_reports_executed_backend(self, problem):
        _, info = self._scores(problem, "process", 2)
        assert info["backend"] == "process"
        assert info["workers"] == 2

    def test_small_problems_stay_on_threads(self, rng):
        # Below process_threshold a several-worker engine quietly runs in
        # the calling thread — the executed backend is what the ledger
        # records.
        source = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 4))
        with SimilarityEngine(workers=2, memory_budget=10**6, cache=False) as engine:
            engine.similarity(source, target)
            assert engine.resource_info()["backend"] == "thread"


class TestResourceInfo:
    def test_defaults_before_any_compute(self):
        # More than one worker configures the process backend; nothing
        # has run yet, so no shards.
        with SimilarityEngine(workers=3) as engine:
            assert engine.resource_info() == {
                "backend": "process",
                "workers": 3,
                "shards": 0,
            }

    def test_legacy_path_counts_row_chunks(self, rng):
        with SimilarityEngine(workers=1, chunk_rows=10, cache=False) as engine:
            engine.similarity(rng.normal(size=(25, 4)), rng.normal(size=(8, 4)))
            info = engine.resource_info()
        assert info["backend"] == "thread"
        assert info["shards"] == 3
