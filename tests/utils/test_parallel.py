"""Tests for the chunk-grid utilities."""

import numpy as np
import pytest

from repro.utils.parallel import (
    DEFAULT_CHUNK_ELEMS,
    SHARD_BUDGET_FACTOR,
    plan_shards,
    row_chunks,
    rows_per_chunk,
)


class TestRowsPerChunk:
    def test_budget_respected(self):
        rows = rows_per_chunk(1000, chunk_elems=10_000)
        assert rows == 10

    def test_at_least_min_rows(self):
        assert rows_per_chunk(10**9, chunk_elems=16) == 1
        assert rows_per_chunk(10**9, chunk_elems=16, min_rows=5) == 5

    def test_default_budget(self):
        assert rows_per_chunk(1) == DEFAULT_CHUNK_ELEMS

    def test_invalid_budget(self):
        with pytest.raises(ValueError, match="chunk_elems"):
            rows_per_chunk(10, chunk_elems=0)


class TestRowChunks:
    def test_covers_range_exactly(self):
        chunks = row_chunks(10, 3)
        assert chunks == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]

    def test_single_chunk(self):
        assert row_chunks(5, 100) == [slice(0, 5)]

    def test_empty(self):
        assert row_chunks(0, 4) == []

    def test_invalid(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            row_chunks(10, 0)


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
