"""Pair-stability of the pair-stable block kernel — the serving determinism base.

``prepare_stable_metric`` must give every (query, target) pair a value
that is a pure function of that pair: invariant to which other queries
share the block, to which other targets share the call, and to how the
rows are chunked.  The full-matrix BLAS kernels explicitly do NOT have
this property; these tests pin that the pair-stable kernel does.
"""

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.similarity.metrics import prepare_stable_metric, similarity_matrix

METRICS = ("cosine", "euclidean", "manhattan")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def stable_scores(metric, queries, targets, **kwargs):
    return prepare_stable_metric(metric, queries, targets, **kwargs)(slice(None))


class TestRowwiseScores:
    @pytest.mark.parametrize("metric", METRICS)
    def test_target_subset_invariance(self, metric, rng):
        queries = rng.normal(size=(7, 8))
        targets = rng.normal(size=(30, 8))
        full = stable_scores(metric, queries, targets)
        subset = rng.choice(30, size=11, replace=False)
        np.testing.assert_array_equal(
            stable_scores(metric, queries, targets[subset]), full[:, subset]
        )
        # Batch invariance: a row scored alone, in any block of rows, or
        # under any inner chunking equals its row of the full block.
        for row in range(7):
            np.testing.assert_array_equal(
                stable_scores(metric, queries[row : row + 1], targets)[0], full[row]
            )
        np.testing.assert_array_equal(
            stable_scores(metric, queries, targets, chunk_elems=1), full
        )
        kernel = prepare_stable_metric(metric, queries, targets)
        np.testing.assert_array_equal(kernel(slice(2, 5)), full[2:5])

    @pytest.mark.parametrize("metric", METRICS)
    def test_close_to_full_matrix_kernels(self, metric, rng):
        queries = rng.normal(size=(5, 8))
        targets = rng.normal(size=(12, 8))
        np.testing.assert_allclose(
            stable_scores(metric, queries, targets),
            similarity_matrix(queries, targets, metric=metric),
            atol=1e-9,
        )

    def test_zero_vectors_do_not_raise(self):
        scores = stable_scores("cosine", np.zeros((2, 4)), np.zeros((3, 4)))
        assert np.all(np.isfinite(scores))

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            stable_scores("cosine", np.ones((2, 3)), np.ones((4, 5)))
        with pytest.raises(ValueError, match="unknown similarity metric"):
            prepare_stable_metric("hamming", np.ones((1, 3)), np.ones((4, 3)))


def stable_top_k(queries, targets, k):
    """Exact pair-stable top-k: one inverted list, probed in full."""
    index = IVFIndex(n_clusters=1).train(targets).add(targets)
    found = index.search(queries, k=k, nprobe=1, stable=True)
    return [found.row(row) for row in range(len(queries))]


class TestEngineRowwiseTopK:
    """Top-k over the pair-stable kernel, as the serving path selects it."""

    def test_batched_equals_single_rows_bitwise(self, rng):
        queries = rng.normal(size=(6, 8))
        targets = rng.normal(size=(40, 8))
        batched = stable_top_k(queries, targets, k=5)
        for row in range(6):
            single = stable_top_k(queries[row : row + 1], targets, k=5)
            np.testing.assert_array_equal(single[0][0], batched[row][0])
            np.testing.assert_array_equal(single[0][1], batched[row][1])

    def test_ties_break_by_ascending_target(self):
        queries = np.ones((1, 3))
        targets = np.ones((4, 3))  # all scores identical
        ids, scores = stable_top_k(queries, targets, k=3)[0]
        np.testing.assert_array_equal(ids, [0, 1, 2])
        assert len(set(scores)) == 1

    def test_k_is_clamped_and_validated(self, rng):
        queries = rng.normal(size=(2, 4))
        targets = rng.normal(size=(3, 4))
        rows = stable_top_k(queries, targets, k=10)
        assert all(len(ids) == 3 for ids, _ in rows)
        with pytest.raises(ValueError, match="k must be"):
            stable_top_k(queries, targets, k=0)
