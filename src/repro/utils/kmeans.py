"""Deterministic mini k-means — the shared coarse quantizer.

Both sub-quadratic candidate-generation paths in this library partition
an embedding space with the same clustering primitive: embedding-space
blocking (:class:`repro.core.blocking.BlockedMatcher`) and the IVF
candidate index (:class:`repro.index.IVFIndex`).  Factoring it here
keeps the two paths bit-identical on the quantizer they share — an index
trained with ``n_clusters`` probes exactly the partition a blocked
matcher with ``num_blocks`` would have formed.

The fit is O(n d k) with no n^2 matrix, and fully deterministic:
k-means++-style greedy farthest-point seeding from a fixed start, a
fixed iteration count, and no randomness anywhere.

Seeding is certified.  The reference rule picks, at each step, the
first row whose distance ``np.linalg.norm(x - c)`` to its nearest chosen
seed is largest.  Evaluating that directly costs an ``n x d`` temporary
per seed; instead one BLAS mat-vec per seed keeps the expanded squared
distance ``|x|^2 - 2 x.c + |c|^2``, and only the rows rounding could
still make the farthest are scored with the reference formula
(:func:`_farthest_point_seeds` derives the bound).  The seeds, and so
the centroids, are bitwise the reference rule's — the quantizer does
not depend on which form ran.  The Lloyd update gathers each cluster's
members in ascending row order (:func:`cluster_members`), the order a
boolean mask gives, so its means keep their bits too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.parallel import row_chunks, rows_per_chunk


def kmeans_centroids(
    matrix: np.ndarray,
    k: int,
    iterations: int = 8,
    on_round: Callable[[int, int], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic mini k-means over centered embeddings.

    The data is centered first: embedding spaces often share a large
    common component (encoder oversmoothing) that carries no identity
    signal, and clustering the raw vectors would slice along it.
    Farthest-point seeding keeps the result deterministic and well
    spread.  Returns ``(centroids, center)``; the centroids live in the
    centered frame, so queries must be shifted by the same ``center``
    (see :func:`centroid_distances`).

    ``on_round(round_index, moved)`` is called after each assignment
    round with the 1-based round number and how many points changed
    cluster — a progress hook, so this module needs no dependency on the
    telemetry layer.  Passing it never changes the fit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    center = matrix.mean(axis=0)
    centered = matrix - center
    centroids = centered[_farthest_point_seeds(centered, k)]

    previous = None
    for round_index in range(iterations):
        assignment = centroid_distances(
            centered, centroids, np.zeros_like(center)
        ).argmin(axis=1)
        for b, members in enumerate(cluster_members(assignment, k)):
            if len(members):
                centroids[b] = centered[members].mean(axis=0)
        if on_round is not None:
            moved = (
                len(assignment)
                if previous is None
                else int(np.count_nonzero(assignment != previous))
            )
            on_round(round_index + 1, moved)
            previous = assignment
    return centroids, center


def cluster_members(assignment: np.ndarray, k: int) -> list[np.ndarray]:
    """Ascending positions per cluster ``0..k-1``, from one stable sort.

    Equal to ``[np.flatnonzero(assignment == c) for c in range(k)]``
    without its ``k`` passes over ``assignment``; every label must lie
    in ``[0, k)``.  The arrays are views of one buffer.
    """
    order = np.argsort(assignment, kind="stable")
    return np.split(order, np.cumsum(np.bincount(assignment, minlength=k))[:-1])


#: Elements in one ``rows x seeds x d`` block of the exact seeding rescore.
_RESCORE_CHUNK_ELEMS = 2**19


def _farthest_point_seeds(centered: np.ndarray, k: int) -> list[int]:
    """Greedy farthest-point seeds from row 0: the certified form.

    The reference rule takes, ``k - 1`` times, the first row maximising
    ``r_i = min_c np.linalg.norm(x_i - x_c)`` over the chosen seeds
    ``c``.  Here one mat-vec per seed keeps ``a_i = min_c (|x_i|^2 -
    2 x_i.x_c + |x_c|^2)``, and only the rows with ``a_i >= max(a) - tol``
    get ``r_i`` from the reference formula; the first of them with the
    largest ``r_i`` is the next seed.

    The bound, with ``M = max |x|^2``, ``D_i`` the exact squared distance
    to the nearest seed and first-order terms in the unit roundoff
    ``u = eps / 2`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1):

    * ``|a_i - D_i| <= delta = (4 d + 8) u M``: each of ``|x|^2``,
      ``x.c`` and ``|c|^2`` is off by ``gamma_d`` times at most ``M``
      in any summation order (BLAS included), and the two additions
      round values of size at most ``4 M``;
    * ``r_i^2 = D_i (1 + theta)``, ``|theta| <= (d + 4) u``: the
      difference, square, ``d``-term sum and square root each round
      relatively, and ``D_i <= 4 M``.

    If row ``i`` attains the largest ``r`` and row ``j`` the largest
    ``a``, then ``D_i >= D_j - 8 (d + 4) u M``, so ``a_i >= a_j - 2 delta
    - 8 (d + 4) u M = a_j - 8 (d + 3) eps M``.  ``tol = 16 (d + 2) eps M``
    is at least 1.5 times that for every ``d >= 1``, which absorbs the
    higher-order terms, so every row attaining the largest ``r`` is a
    candidate; the candidates are ascending, so their first argmax is
    the reference rule's.  Ties and duplicates only add candidates.
    Where ``8 M`` overflows (or the rows are not finite) every row is a
    candidate, and the rule degenerates to the reference one.

    A candidate's ``r_i`` is kept between steps and only brought up to
    date against the seeds chosen since (``min`` is exact, so the order
    of folding seeds in does not change a bit).  Once ``k`` exceeds the
    number of distinct rows, every row is a candidate at every step;
    this keeps those steps at the reference rule's cost of one pass over
    the rows, not one per chosen seed.  Each exact ``r_i`` is a
    row-wise reduction over the same ``d`` contiguous values as the
    reference's, so it is the same float.
    """
    n, d = centered.shape
    sq = np.einsum("ij,ij->i", centered, centered)
    peak = sq.max()
    eps = np.finfo(centered.dtype).eps
    tol = 16 * (d + 2) * eps * peak if np.isfinite(8.0 * peak) else np.inf
    approx = np.full(n, np.inf)
    exact = np.full(n, np.inf, dtype=centered.dtype)
    scored_upto = np.zeros(n, dtype=np.intp)
    chosen = [0]
    for _ in range(1, k):
        last = chosen[-1]
        np.minimum(approx, sq - 2.0 * (centered @ centered[last]) + sq[last], out=approx)
        # ``~(a < limit)`` keeps every row when ``limit`` is NaN.
        candidates = np.flatnonzero(~(approx < approx.max() - tol))
        best = 0
        if len(candidates) > 1:
            _score_exactly(centered, chosen, candidates, exact, scored_upto)
            best = exact[candidates].argmax()
        chosen.append(int(candidates[best]))
    return chosen


def _score_exactly(
    centered: np.ndarray,
    chosen: list[int],
    rows: np.ndarray,
    exact: np.ndarray,
    scored_upto: np.ndarray,
) -> None:
    """Fold the seeds ``chosen[scored_upto[i]:]`` into ``exact[i]`` for ``rows``.

    ``exact[i]`` is the reference distance ``min_c np.linalg.norm(x_i -
    x_c)`` over the first ``scored_upto[i]`` seeds.
    """
    upto = scored_upto[rows]
    for start in np.unique(upto):
        group = rows[upto == start]
        seeds = centered[chosen[start:]]
        for chunk in row_chunks(len(group), rows_per_chunk(seeds.size, _RESCORE_CHUNK_ELEMS)):
            part = group[chunk]
            distances = np.linalg.norm(centered[part][:, None] - seeds[None], axis=2)
            exact[part] = np.minimum(exact[part], distances.min(axis=1))
    scored_upto[rows] = len(chosen)


def centroid_distances(
    matrix: np.ndarray, centroids: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """Squared distances to each centroid.

    ``center`` is the mean the centroids were fitted under; query rows
    are shifted by the *same* mean so both sides live in one coordinate
    frame.
    """
    data = matrix - center
    sq_data = np.sum(data**2, axis=1)[:, None]
    sq_centroids = np.sum(centroids**2, axis=1)[None, :]
    return sq_data + sq_centroids - 2.0 * (data @ centroids.T)


def nearest_centroid(
    matrix: np.ndarray, centroids: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """Nearest-centroid cluster id per row of ``matrix``."""
    return centroid_distances(matrix, centroids, center).argmin(axis=1)
