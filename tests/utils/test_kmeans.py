"""The shared k-means quantizer is bitwise the reference rule.

``reference_kmeans`` is the fit as it was before certified seeding: one
``np.linalg.norm(X - c)`` pass per seed and a boolean-mask Lloyd update.
Its squared centroid distances are one full-matrix expression,
``reference_distances``, written out here so the oracle does not move
with the fused, row-chunked form the library computes them in.  The
certified form must return the same ``(centroids, center)`` bits on
inputs built to stress it: exact duplicates, rounded-lattice ties, zero
rows, scales from 1e-6 to 1e6, dims past numpy's 128-wide pairwise
summation block, and ``k`` up to ``n`` (every distance reaches 0).
"""

import numpy as np
import pytest

from repro.utils.kmeans import (
    DISTANCE_CHUNK_ELEMS,
    centroid_distances,
    cluster_members,
    distance_chunks,
    kmeans_centroids,
    nearest_centroid,
)
from repro.utils.parallel import rows_per_chunk


def reference_distances(matrix, centroids, center):
    """The squared centroid distances, as one full-matrix expression."""
    data = matrix - center
    sq_data = np.sum(data**2, axis=1)[:, None]
    sq_centroids = np.sum(centroids**2, axis=1)[None, :]
    return sq_data + sq_centroids - 2.0 * (data @ centroids.T)


def reference_kmeans(matrix, k, iterations=8, on_round=None):
    """The pre-certification fit, kept verbatim as the oracle."""
    center = matrix.mean(axis=0)
    centered = matrix - center
    # Farthest-point seeding from a fixed start.
    chosen = [0]
    distances = np.linalg.norm(centered - centered[0], axis=1)
    for _ in range(1, k):
        next_idx = int(distances.argmax())
        chosen.append(next_idx)
        distances = np.minimum(
            distances, np.linalg.norm(centered - centered[next_idx], axis=1)
        )
    centroids = centered[chosen].copy()

    previous = None
    for round_index in range(iterations):
        assignment = reference_distances(
            centered, centroids, np.zeros_like(center)
        ).argmin(axis=1)
        for b in range(k):
            members = centered[assignment == b]
            if len(members):
                centroids[b] = members.mean(axis=0)
        if on_round is not None:
            moved = (
                len(assignment)
                if previous is None
                else int(np.count_nonzero(assignment != previous))
            )
            on_round(round_index + 1, moved)
            previous = assignment
    return centroids, center


def assert_same_fit(matrix, k, iterations):
    got = kmeans_centroids(matrix, k, iterations=iterations)
    want = reference_kmeans(matrix, k, iterations=iterations)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _family(name, n, d, scale, seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d)) * scale
    if name == "gaussian":
        return base
    if name == "duplicates":
        return base[rng.integers(0, max(1, n // 4), n)]
    if name == "lattice":
        return np.round(rng.standard_normal((n, d)) * 2) * scale
    if name == "zero-rows":
        base[::3] = 0.0
        return base
    raise AssertionError(name)


FAMILIES = ["gaussian", "duplicates", "lattice", "zero-rows"]
SHAPES = [(1, 1), (2, 1), (7, 3), (64, 1), (60, 2), (120, 7), (90, 129), (40, 300)]


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n,d", SHAPES)
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_families(self, family, n, d, scale):
        matrix = _family(family, n, d, scale, seed=n * 1000 + d)
        for k in sorted({1, 2, min(n, 5), min(n, 17)}):
            assert_same_fit(matrix, k, iterations=2)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n,d", [(7, 3), (60, 2), (90, 129)])
    def test_k_equals_n_drives_every_distance_to_zero(self, family, n, d):
        assert_same_fit(_family(family, n, d, 1.0, seed=d), n, iterations=1)

    @pytest.mark.parametrize("iterations", [0, 1, 3, 8])
    def test_iteration_counts(self, iterations):
        assert_same_fit(_family("duplicates", 200, 5, 1.0, seed=3), 12, iterations)

    def test_all_zero_rows(self):
        assert_same_fit(np.zeros((10, 4)), 10, iterations=2)
        assert_same_fit(np.zeros((10, 4)), 3, iterations=2)

    def test_equidistant_ring_ties(self):
        # Points on a circle around the origin, plus the origin, scaled
        # so the centering leaves rounding: many exact-distance ties the
        # expanded form reads in a different order.
        angles = np.arange(24) * (2 * np.pi / 24)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        matrix = np.vstack([[0.0, 0.0], ring, ring]) * 0.1 + 3.7
        for k in (2, 5, 13, 49):
            assert_same_fit(matrix, k, iterations=2)

    def test_offline_shape(self):
        # The shape offline candidate generation trains at, scaled down.
        rng = np.random.default_rng(1)
        assert_same_fit(rng.standard_normal((4000, 32)), 64, iterations=4)

    def test_on_round_reports_the_same_moves(self):
        matrix = _family("lattice", 150, 3, 1.0, seed=9)
        got, want = [], []
        kmeans_centroids(matrix, 9, iterations=5, on_round=lambda *a: got.append(a))
        reference_kmeans(matrix, 9, iterations=5, on_round=lambda *a: want.append(a))
        assert got == want
        assert [r for r, _ in got] == [1, 2, 3, 4, 5]


class TestFusedDistances:
    """The fused, row-chunked distances are the full-matrix expression's
    bits, and so are the Lloyd argmin and ``nearest_centroid`` over them."""

    N_CENTROIDS = 37
    CHUNK = rows_per_chunk(N_CENTROIDS, DISTANCE_CHUNK_ELEMS)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise(self, family, n, dtype):
        matrix = _family(family, n, 9, 1.0, seed=n).astype(dtype)
        centroids = _family(family, self.N_CENTROIDS, 9, 1.0, seed=n + 1).astype(dtype)
        centroids[3] = centroids[1]  # duplicated centroids tie exactly
        center = matrix.mean(axis=0)
        want = reference_distances(matrix, centroids, center)
        got = centroid_distances(matrix, centroids, center)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        nearest = nearest_centroid(matrix, centroids, center)
        assert nearest.tobytes() == want.argmin(axis=1).tobytes()
        chunks = list(distance_chunks(matrix - center, centroids))
        assert [rows.stop for rows, _ in chunks][-1] == n
        assert max(rows.stop - rows.start for rows, _ in chunks) <= self.CHUNK

    def test_lloyd_argmin_is_the_reference_on_a_chunked_shape(self):
        # More rows than one chunk, lattice ties and duplicates.
        matrix = _family("duplicates", 3 * self.CHUNK + 1, 4, 1.0, seed=5)
        assert_same_fit(matrix, self.N_CENTROIDS, iterations=3)
        assert_same_fit(matrix.astype(np.float32), self.N_CENTROIDS, iterations=3)

    def test_single_row_allocates_one_row(self):
        centroids = np.arange(12.0).reshape(4, 3)
        ((rows, block),) = distance_chunks(np.ones((1, 3)), centroids)
        assert rows == slice(0, 1)
        assert block.shape == (1, 4)


class TestValidation:
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kmeans_centroids(np.ones((4, 2)), k)


class TestClusterMembers:
    @pytest.mark.parametrize("n,k", [(0, 3), (1, 1), (50, 1), (200, 7), (500, 60)])
    def test_equals_mask_loop(self, n, k):
        rng = np.random.default_rng(n + k)
        # Labels from a subset of clusters, so some lists are empty.
        assignment = rng.choice(np.arange(k)[::2] if k > 2 else np.arange(k), size=n)
        got = cluster_members(assignment.astype(np.int64), k)
        want = [np.flatnonzero(assignment == c) for c in range(k)]
        assert len(got) == k
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
