"""Property-based tests for the IVF index.

The load-bearing invariant: with every list probed, IVF is *exactly*
brute force — clustering only partitions the scan, the rescoring is
exact.  Hypothesis hunts for geometries (ties, duplicates, degenerate
clusters) where the partition could leak candidates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.index import IVFIndex
from repro.similarity.chunked import chunked_top_k
from repro.utils.kmeans import kmeans_centroids
from tests.utils.test_kmeans import reference_kmeans


def index_problems(max_targets=24, max_queries=8, max_dim=5):
    """(queries, targets, n_clusters, k) with k <= n_targets."""
    shape = st.tuples(
        st.integers(2, max_targets),   # targets
        st.integers(1, max_queries),   # queries
        st.integers(1, max_dim),       # dim
    )

    def build(s):
        n_targets, n_queries, dim = s
        elements = st.floats(-5, 5, allow_nan=False, width=32)
        return st.tuples(
            arrays(np.float64, (n_queries, dim), elements=elements),
            arrays(np.float64, (n_targets, dim), elements=elements),
            st.integers(1, 6),           # requested clusters (clamped)
            st.integers(1, n_targets),   # k
        )

    return shape.flatmap(build)


class TestFullProbeExactness:
    @given(index_problems())
    @settings(max_examples=40, deadline=None)
    def test_nprobe_equals_clusters_is_brute_force(self, problem):
        queries, targets, n_clusters, k = problem
        index = IVFIndex(n_clusters=n_clusters).train(targets).add(targets)
        found = index.search(queries, k=k, nprobe=index.n_clusters)
        _, exact_scores = chunked_top_k(queries, targets, k)
        # With every list probed, no row comes up short and both scans
        # return their k best scores in descending order.  Compare the
        # *scores*, not the ids: equal-score ties may legitimately
        # resolve to different target ids between the two scans.
        assert found.k_max == k
        np.testing.assert_array_equal(found.row_counts, k)
        np.testing.assert_allclose(
            found.scores.reshape(len(queries), k), exact_scores, atol=1e-9
        )

    @given(index_problems())
    @settings(max_examples=40, deadline=None)
    def test_partial_probe_is_a_subset_of_brute_force_scores(self, problem):
        queries, targets, n_clusters, k = problem
        index = IVFIndex(n_clusters=n_clusters).train(targets).add(targets)
        found = index.search(queries, k=k, nprobe=1)
        # Every returned score is a true similarity against its target.
        from repro.similarity.metrics import similarity_matrix

        dense = similarity_matrix(queries, targets)
        rows = found.row_of_entry()
        np.testing.assert_allclose(
            found.scores, dense[rows, found.indices], atol=1e-9
        )


def kmeans_problems(max_rows=30, max_dim=6):
    """(matrix, k, iterations): few distinct rows, many exact duplicates."""
    shape = st.tuples(
        st.integers(1, 12),         # distinct rows
        st.integers(1, max_rows),   # rows
        st.integers(1, max_dim),    # dim
    )

    def build(s):
        n_distinct, n_rows, dim = s
        # Lattice points give exact distance ties between distinct rows.
        elements = st.one_of(
            st.floats(-100, 100, allow_nan=False, width=32),
            st.sampled_from([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]),
        )
        return st.tuples(
            arrays(np.float64, (n_distinct, dim), elements=elements),
            st.lists(st.integers(0, n_distinct - 1), min_size=n_rows, max_size=n_rows),
            st.integers(1, n_rows),   # k
            st.integers(0, 4),        # iterations
        )

    return shape.flatmap(build)


class TestQuantizerIsTheReferenceFit:
    @given(kmeans_problems())
    @settings(max_examples=60, deadline=None)
    def test_certified_fit_equals_reference_bitwise(self, problem):
        distinct, picks, k, iterations = problem
        matrix = distinct[picks]
        got = kmeans_centroids(matrix, k, iterations=iterations)
        want = reference_kmeans(matrix, k, iterations=iterations)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
