"""CandidateSet: construction invariants, queries, and the densify hatch."""

import numpy as np
import pytest

from repro.eval.analysis import top_k_std
from repro.eval.metrics import ranking_diagnostics
from repro.index import CandidateSet
from repro.index.candidates import TopK
from repro.obs.metrics import get_metrics
from repro.similarity.topk import top_k_indices


def full_candidate_set(scores):
    """Every cell of a dense matrix as a (sorted) candidate set."""
    n_targets = scores.shape[1]
    indices = top_k_indices(scores, n_targets)
    values = np.take_along_axis(scores, indices, axis=1)
    return CandidateSet.from_topk(indices, values, n_targets)


class TestConstruction:
    def test_from_topk_layout(self):
        indices = np.array([[2, 0], [1, 3]])
        scores = np.array([[0.9, 0.5], [0.8, 0.1]])
        cands = CandidateSet.from_topk(indices, scores, n_targets=4)
        assert cands.n_sources == 2
        assert cands.n_targets == 4
        assert cands.nnz == 4
        assert cands.k_max == 2
        ids, row_scores = cands.row(0)
        np.testing.assert_array_equal(ids, [2, 0])
        np.testing.assert_array_equal(row_scores, [0.9, 0.5])

    def test_from_rows_sorts_best_first_and_allows_ragged(self):
        rows = [
            (np.array([3, 1]), np.array([0.1, 0.7])),   # unsorted on purpose
            (np.array([], dtype=np.int64), np.array([])),
            (np.array([0, 2, 4]), np.array([0.5, 0.9, 0.2])),
        ]
        cands = CandidateSet.from_rows(rows, n_targets=5)
        np.testing.assert_array_equal(cands.row_counts, [2, 0, 3])
        ids, scores = cands.row(0)
        np.testing.assert_array_equal(ids, [1, 3])
        ids, scores = cands.row(2)
        np.testing.assert_array_equal(ids, [2, 0, 4])
        assert scores[0] == 0.9

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="outside"):
            CandidateSet(np.array([0, 1]), np.array([5]), np.array([1.0]), n_targets=3)

    def test_rejects_inconsistent_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CandidateSet(np.array([0, 2]), np.array([1]), np.array([1.0]), n_targets=3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            CandidateSet(
                np.array([0, 2]), np.array([0, 1]), np.array([1.0]), n_targets=3
            )


class TestTopK:
    def oracle(self, scores, ids, k):
        order = np.lexsort((np.broadcast_to(ids, scores.shape), -scores), axis=1)
        return np.take_along_axis(np.broadcast_to(ids, scores.shape), order, axis=1)[:, :k]

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_blocks_merge_to_the_total_order_top_k(self, rng, k):
        # Coarse scores force ties, also at the cut; ids are shuffled so
        # column order and id order disagree.
        scores = rng.integers(0, 4, size=(9, 20)).astype(np.float64)
        ids = rng.permutation(20)
        top = TopK(9, k)
        for block in np.array_split(np.arange(20), 4):
            top.merge(np.arange(9), scores[:, block], ids[block])
        found = top.candidates(n_targets=20)
        expected = self.oracle(scores, ids, k)
        np.testing.assert_array_equal(found.indices.reshape(9, k), expected)
        assert (np.diff(found.scores.reshape(9, k), axis=1) <= 0).all()

    def test_short_rows_report_what_was_found(self):
        top = TopK(3, 4)
        top.merge(np.array([0, 2]), np.array([[0.5, 0.9], [0.1, 0.1]]), np.array([6, 2]))
        top.merge(np.array([2]), np.array([[0.3]]), np.array([0]))
        found = top.candidates(n_targets=7)
        np.testing.assert_array_equal(found.row_counts, [2, 0, 3])
        np.testing.assert_array_equal(found.row(0)[0], [2, 6])
        np.testing.assert_array_equal(found.row(2)[0], [0, 2, 6])

    def test_of_round_trips_a_candidate_set(self):
        rows = [(np.array([4, 1]), np.array([0.2, 0.8])), (np.array([0]), np.array([0.5]))]
        cands = CandidateSet.from_rows(rows, n_targets=5)
        top = TopK.of(cands, 3)
        top.merge(slice(None), np.array([[0.8], [0.1]]), np.array([3]))
        found = top.candidates(n_targets=5)
        np.testing.assert_array_equal(found.row(0)[0], [1, 3, 4])
        np.testing.assert_array_equal(found.row(1)[0], [0, 3])


class TestQueries:
    def test_best_per_row_skips_empty_rows(self):
        rows = [
            (np.array([2]), np.array([0.4])),
            (np.array([], dtype=np.int64), np.array([])),
            (np.array([1, 0]), np.array([0.9, 0.3])),
        ]
        cands = CandidateSet.from_rows(rows, n_targets=3)
        picked_rows, cols, scores = cands.best_per_row()
        np.testing.assert_array_equal(picked_rows, [0, 2])
        np.testing.assert_array_equal(cols, [2, 1])
        np.testing.assert_array_equal(scores, [0.4, 0.9])

    def test_row_of_entry_expands_csr(self):
        cands = CandidateSet.from_topk(
            np.array([[0, 1], [2, 0]]), np.array([[0.5, 0.4], [0.9, 0.1]]), 3
        )
        np.testing.assert_array_equal(cands.row_of_entry(), [0, 0, 1, 1])

    def test_contains_and_recall(self):
        cands = CandidateSet.from_topk(
            np.array([[0, 1], [2, 0]]), np.array([[0.5, 0.4], [0.9, 0.1]]), 3
        )
        hits = cands.contains([(0, 1), (0, 2), (1, 2)])
        np.testing.assert_array_equal(hits, [True, False, True])
        assert cands.recall([(0, 1), (0, 2)]) == 0.5
        assert cands.recall([]) == 0.0

    def test_ranking_diagnostics_match_dense(self, rng):
        scores = rng.random((12, 9))
        gold = [(i, int(scores[i].argmax())) for i in range(0, 12, 3)]
        gold += [(1, 0), (2, 8)]
        sparse = full_candidate_set(scores).ranking_diagnostics(gold)
        dense = ranking_diagnostics(scores, gold)
        assert sparse == pytest.approx(dense)

    def test_ranking_diagnostics_missing_gold_is_unranked(self):
        cands = CandidateSet.from_topk(np.array([[1]]), np.array([[0.9]]), 3)
        diagnostics = cands.ranking_diagnostics([(0, 2)])
        assert diagnostics["hits@10"] == 0.0
        assert diagnostics["mrr"] == 0.0

    def test_top5_std_matches_dense_statistic(self, rng):
        scores = rng.random((10, 8))
        assert full_candidate_set(scores).top5_std() == pytest.approx(
            top_k_std(scores, k=5)
        )


class TestDensify:
    def test_round_trips_stored_entries_and_counts(self, rng):
        scores = rng.random((6, 5))
        cands = full_candidate_set(scores)
        registry = get_metrics()
        before = registry.counter("sparse.densify")
        dense = cands.densify()
        assert registry.counter("sparse.densify") == before + 1
        np.testing.assert_allclose(dense, scores)

    def test_fill_never_beats_a_candidate(self):
        cands = CandidateSet.from_topk(np.array([[2]]), np.array([[-5.0]]), 4)
        dense = cands.densify()
        assert dense[0, 2] == -5.0
        assert dense.argmax() == 2  # the only candidate still wins

    def test_explicit_fill(self):
        cands = CandidateSet.from_topk(np.array([[0]]), np.array([[1.0]]), 2)
        dense = cands.densify(fill=-9.0)
        assert dense[0, 1] == -9.0
