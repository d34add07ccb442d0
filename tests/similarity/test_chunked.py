"""Tests for chunked similarity computation."""

import numpy as np
import pytest

from repro.similarity.chunked import best_first_top_k, chunked_top_k
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


class TestTieOrder:
    """Selection under ``(-score, column asc)``, ties included."""

    @pytest.mark.parametrize("levels", [2, 3, 7, 1000])
    @pytest.mark.parametrize("k", [1, 4, 8, 9, 10])
    def test_selection_matches_lexsort_oracle(self, rng, levels, k):
        # Few distinct levels: ties within the list and at the cut.
        block = rng.integers(0, levels, size=(50, 10)).astype(np.float64) / levels
        ids, scores = best_first_top_k(block, k)
        columns = np.broadcast_to(np.arange(10), block.shape)
        want = np.lexsort((columns, -block), axis=1)[:, :k]
        np.testing.assert_array_equal(ids, want)
        np.testing.assert_array_equal(scores, np.take_along_axis(block, want, axis=1))

    def test_signed_zeros_tie(self):
        block = np.array([[0.0, -0.0, 1.0, -0.0, 0.0]])
        ids, _ = best_first_top_k(block, 3)
        np.testing.assert_array_equal(ids, [[2, 0, 1]])


class TestChunkedArgmax:
    def test_equals_dense_argmax(self, embeddings):
        # The greedy (DInf) decision without the full matrix is the
        # best-first column of a streamed k=1 top-k.
        source, target = embeddings
        indices, scores = chunked_top_k(source, target, k=1, chunk_size=10)
        dense = similarity_matrix(source, target)
        np.testing.assert_array_equal(indices[:, 0], dense.argmax(axis=1))
        np.testing.assert_allclose(scores[:, 0], dense.max(axis=1), atol=1e-12)
