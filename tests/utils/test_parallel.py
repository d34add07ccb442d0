"""Tests for the chunk-grid utilities."""

import pytest

from repro.utils.parallel import (
    DEFAULT_CHUNK_ELEMS,
    resolve_workers,
    row_chunks,
    rows_per_chunk,
)


class TestResolveWorkers:
    def test_literal_counts(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    @pytest.mark.parametrize("setting", [None, 0])
    def test_all_cores(self, setting):
        assert resolve_workers(setting) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)


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
