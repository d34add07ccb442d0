"""Property-based tests: the engine is a pure scheduling change.

The determinism contract of :class:`SimilarityEngine` is that chunking
and the worker count are invisible to the numerics: for any metric,
worker count, and (odd) chunk size, the engine's float64 output equals
the serial :func:`similarity_matrix` result, and float32 output matches
to single-precision tolerance.  The same must hold for the chunked top-k
kernel the engine schedules.

Float64 equality is asserted bitwise under the default chunk policy
(where the grid is a single chunk and even the BLAS calls are shared)
and to 1e-12 across arbitrary grids (where matmul summation order may
legitimately differ in the last bits); worker count must never change a
single bit for a fixed grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.similarity.engine import SimilarityEngine
from repro.similarity.metrics import similarity_matrix
from repro.similarity.topk import top_k_values

METRICS = ("cosine", "euclidean", "manhattan")
WORKER_COUNTS = (1, 2, 4)
ODD_CHUNKS = (1, 3, 7, 19)


def embedding_pairs(max_rows=16, max_dim=6):
    shape = st.tuples(
        st.integers(1, max_rows), st.integers(1, max_rows), st.integers(1, max_dim)
    )
    return shape.flatmap(
        lambda s: st.tuples(
            arrays(np.float64, (s[0], s[2]),
                   elements=st.floats(-10, 10, allow_nan=False)),
            arrays(np.float64, (s[1], s[2]),
                   elements=st.floats(-10, 10, allow_nan=False)),
        )
    )


class TestEngineEqualsSerial:
    @pytest.mark.parametrize("metric", METRICS)
    @given(embedding_pairs())
    @settings(max_examples=25, deadline=None)
    def test_default_policy_bitwise_float64(self, metric, matrices):
        source, target = matrices
        serial = similarity_matrix(source, target, metric=metric)
        for workers in WORKER_COUNTS:
            with SimilarityEngine(workers=workers) as engine:
                np.testing.assert_array_equal(
                    engine.similarity(source, target, metric=metric), serial
                )

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("chunk_rows", ODD_CHUNKS)
    @given(embedding_pairs())
    @settings(max_examples=10, deadline=None)
    def test_odd_grids_workers_invisible(self, metric, chunk_rows, matrices):
        source, target = matrices
        per_worker = []
        for workers in WORKER_COUNTS:
            with SimilarityEngine(workers=workers, chunk_rows=chunk_rows) as engine:
                per_worker.append(engine.similarity(source, target, metric=metric))
        # Fixed grid -> bitwise identical across worker counts ...
        for other in per_worker[1:]:
            np.testing.assert_array_equal(per_worker[0], other)
        # ... and equal to the serial result up to summation order.
        np.testing.assert_allclose(
            per_worker[0],
            similarity_matrix(source, target, metric=metric),
            atol=1e-12,
        )

    @pytest.mark.parametrize("metric", METRICS)
    @given(embedding_pairs())
    @settings(max_examples=15, deadline=None)
    def test_float32_allclose(self, metric, matrices):
        # Euclidean needs a looser bound: the kernel expands
        # ||u-v||^2 = ||u||^2 + ||v||^2 - 2 u.v, so for nearly-equal rows
        # the float32 cancellation error is ~ulp(||u||^2 + ||v||^2) —
        # up to ~1e-4 at these input ranges — and the final sqrt
        # amplifies it to ~sqrt(1e-4) = 1e-2 when the true distance is
        # near zero.  Cosine is bounded by 1 and Manhattan sums exact
        # absolute differences, so 5e-4 holds for both.
        atol = 2e-2 if metric == "euclidean" else 5e-4
        source, target = matrices
        serial = similarity_matrix(source, target, metric=metric)
        for workers in WORKER_COUNTS:
            with SimilarityEngine(workers=workers, dtype=np.float32) as engine:
                scores = engine.similarity(source, target, metric=metric)
            assert scores.dtype == np.float32
            np.testing.assert_allclose(scores, serial, atol=atol)


class TestChunkedEqualsSerial:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunk_size", ODD_CHUNKS)
    @given(embedding_pairs(), st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_top_k_float64(self, workers, chunk_size, matrices, k):
        source, target = matrices
        with SimilarityEngine(workers=workers) as engine:
            _, scores = engine.top_k(source, target, k, chunk_size=chunk_size)
        dense = similarity_matrix(source, target)
        np.testing.assert_allclose(
            scores, top_k_values(dense, min(k, target.shape[0])), atol=1e-12
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @given(embedding_pairs(), st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_top_k_float32(self, workers, matrices, k):
        source, target = matrices
        with SimilarityEngine(workers=workers, dtype=np.float32) as engine:
            _, scores = engine.top_k(source, target, k, chunk_size=3)
        assert scores.dtype == np.float32
        dense = similarity_matrix(source, target)
        np.testing.assert_allclose(
            scores, top_k_values(dense, min(k, target.shape[0])), atol=5e-4
        )
