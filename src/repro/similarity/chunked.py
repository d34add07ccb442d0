"""Chunked top-k similarity for beyond-memory problem sizes.

The full n x n score matrix is the scalability wall of Table 6.
:func:`chunked_top_k` streams over the source rows in chunks, so the
peak working set is ``chunk_size x n_target`` regardless of n_source,
and keeps each source's top-k candidates and scores (the
candidate-generation step of every blocking/ANN pipeline).

It accepts any registered similarity metric and is exact — no
approximation is involved, only scheduling.  The chunks run in the
calling thread.  ``dtype`` selects the compute precision: float64 is
the validated default, float32 halves memory traffic at ~1e-6 relative
error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.similarity.metrics import prepare_metric
from repro.utils.parallel import row_chunks
from repro.utils.validation import check_embedding_matrix, check_shape_compatible


def best_first_top_k(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` per row of ``block`` under the total order ``(-score,
    column asc)``, the order :class:`~repro.index.candidates.TopK` keeps.

    A partial sort picks each row's ``k + 1`` best, the ``(k + 1)``-th
    first.  Only rows where that score reaches the ``k``-th (a tie at
    the cut) are re-selected exactly, over the columns that reach it.
    """
    n_cols = block.shape[1]
    cut = max(n_cols - k - 1, 0)
    part = np.argpartition(block, cut, axis=1)[:, cut:]
    part_scores = np.take_along_axis(block, part, axis=1)
    if part.shape[1] > k:
        kth = part_scores[:, 1:].min(axis=1)
        tied = np.flatnonzero(part_scores[:, 0] >= kth)
        part, part_scores = part[:, 1:], part_scores[:, 1:]
        if len(tied):
            rows, cols = np.nonzero(block[tied] >= kth[tied, None])
            values = block[tied[rows], cols]
            exact = np.lexsort((cols, -values, rows))
            counts = np.bincount(rows, minlength=len(tied))
            pick = exact[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            part[tied], part_scores[tied] = cols[pick], values[pick]
    order = np.lexsort((part, -part_scores), axis=1)
    return (
        np.take_along_axis(part, order, axis=1),
        np.take_along_axis(part_scores, order, axis=1),
    )


def select_top_k(
    score_rows: Callable[[slice], np.ndarray],
    n_rows: int,
    k: int,
    chunk_size: int,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-first top-``k`` of each row of ``score_rows(rows)``, selected
    one chunk of ``chunk_size`` rows at a time."""
    indices = np.empty((n_rows, k), dtype=np.int64)
    scores = np.empty((n_rows, k), dtype=dtype)
    for rows in row_chunks(n_rows, chunk_size):
        indices[rows], scores[rows] = best_first_top_k(score_rows(rows), k)
    return indices, scores


def chunked_top_k(
    source: np.ndarray,
    target: np.ndarray,
    k: int,
    chunk_size: int = 1024,
    metric: str = "cosine",
    dtype: np.dtype | str = np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` candidates per source, computed in row chunks.

    Returns ``(indices, scores)`` of shape (n_source, k), both ordered
    best-first, ties by ascending target index.  Peak memory is one
    ``chunk_size x n_target`` block.
    """
    source = check_embedding_matrix(source, "source")
    target = check_embedding_matrix(target, "target")
    check_shape_compatible(source, target)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    source = source.astype(dtype, copy=False)
    target = target.astype(dtype, copy=False)
    n_source, n_target = source.shape[0], target.shape[0]
    k = min(k, n_target)
    kernel = prepare_metric(metric, source, target)
    return select_top_k(kernel, n_source, k, chunk_size, source.dtype)
