"""Top-k utilities over pairwise score matrices.

CSLS needs the mean of each entity's top-k neighbour scores (Equation 1),
and the Figure 4 analysis needs the standard deviation of each source
entity's top-5 scores.  Both are served by the partial-sort helpers here,
which avoid a full O(n lg n) sort per row.
"""

from __future__ import annotations

import numpy as np

from repro.similarity.chunked import best_first_top_k
from repro.utils.validation import check_score_matrix


def _check_k(k: int, width: int) -> int:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return min(k, width)


def top_k_values(scores: np.ndarray, k: int, axis: int = 1) -> np.ndarray:
    """The ``k`` largest scores along ``axis``, sorted descending.

    If ``k`` exceeds the axis length, all values are returned (so callers
    can pass a nominal k without clamping themselves).
    """
    scores = check_score_matrix(scores)
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    working = scores if axis == 1 else scores.T
    k = _check_k(k, working.shape[1])
    # argpartition gives the top-k unordered; a final sort of just k items
    # per row orders them.
    part = np.partition(working, working.shape[1] - k, axis=1)[:, -k:]
    part.sort(axis=1)
    return part[:, ::-1]


def top_k_indices(scores: np.ndarray, k: int, axis: int = 1) -> np.ndarray:
    """Indices of the ``k`` largest scores along ``axis``, best first,
    ties by ascending index (the selection of the exact candidate scan)."""
    scores = check_score_matrix(scores)
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    working = scores if axis == 1 else scores.T
    return best_first_top_k(working, _check_k(k, working.shape[1]))[0]


def top_k_mean(scores: np.ndarray, k: int, axis: int = 1) -> np.ndarray:
    """Mean of the top-``k`` scores along ``axis`` (the CSLS phi vector)."""
    return top_k_values(scores, k, axis=axis).mean(axis=1)


def top1_indices(scores: np.ndarray, axis: int = 1) -> np.ndarray:
    """Index of the single largest score along ``axis``.

    The top-1 special case skips the argpartition machinery — one argmax
    pass — and pins the tie rule (lowest index wins) that the best-suitor
    bucketing in :mod:`repro.core.blocking` relies on for reproducible
    block assignments.
    """
    scores = check_score_matrix(scores)
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return scores.argmax(axis=axis)
