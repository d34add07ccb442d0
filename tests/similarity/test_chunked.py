"""Tests for chunked similarity computation."""

import numpy as np
import pytest

from repro.similarity.chunked import chunked_top_k
from repro.similarity.metrics import similarity_matrix
from repro.similarity.topk import top_k_values


@pytest.fixture()
def embeddings(rng):
    return rng.normal(size=(57, 12)), rng.normal(size=(41, 12))


class TestChunkedTopK:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1024])
    def test_matches_dense_computation(self, embeddings, chunk_size):
        source, target = embeddings
        indices, scores = chunked_top_k(source, target, k=5, chunk_size=chunk_size)
        dense = similarity_matrix(source, target)
        np.testing.assert_allclose(scores, top_k_values(dense, 5), atol=1e-12)
        np.testing.assert_allclose(
            np.take_along_axis(dense, indices, axis=1), top_k_values(dense, 5),
            atol=1e-12,
        )

    def test_k_clamped_to_targets(self, embeddings):
        source, target = embeddings
        indices, _ = chunked_top_k(source, target, k=100)
        assert indices.shape == (57, 41)

    def test_best_first(self, embeddings):
        source, target = embeddings
        _, scores = chunked_top_k(source, target, k=4, chunk_size=13)
        assert np.all(np.diff(scores, axis=1) <= 1e-12)

    def test_invalid_params(self, embeddings):
        source, target = embeddings
        with pytest.raises(ValueError, match="k must be"):
            chunked_top_k(source, target, k=0)
        with pytest.raises(ValueError, match="chunk_size"):
            chunked_top_k(source, target, k=1, chunk_size=0)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_metric_forwarded(self, embeddings, metric):
        source, target = embeddings
        indices, _ = chunked_top_k(source, target, k=1, metric=metric)
        dense = similarity_matrix(source, target, metric=metric)
        np.testing.assert_array_equal(indices[:, 0], dense.argmax(axis=1))


class TestChunkedArgmax:
    def test_equals_dense_argmax(self, embeddings):
        # The greedy (DInf) decision without the full matrix is the
        # best-first column of a streamed k=1 top-k.
        source, target = embeddings
        indices, scores = chunked_top_k(source, target, k=1, chunk_size=10)
        dense = similarity_matrix(source, target)
        np.testing.assert_array_equal(indices[:, 0], dense.argmax(axis=1))
        np.testing.assert_allclose(scores[:, 0], dense.max(axis=1), atol=1e-12)
