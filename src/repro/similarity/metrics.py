"""Similarity metrics over entity embedding matrices.

All metrics return an ``(n_source, n_target)`` matrix where larger values
mean "more likely equivalent", matching the paper's convention.  Distances
are negated so downstream code never has to branch on metric direction.

Each metric is factored into a *prepared kernel* (:func:`prepare_metric`):
a one-time preparation over the full inputs (row normalisation, squared
norms) plus a function that computes any ``(rows, cols)`` tile of ``S``
(``cols`` defaults to every target).  The public functions compute the
single full-matrix block; the chunked helpers and the
:class:`~repro.similarity.engine.SimilarityEngine` prepare once and
score many tiles.  Preparation is row-independent, so a tile's values
do not depend on how the grid was cut — except for the BLAS matmul
inside the cosine/euclidean kernels, whose summation order may vary
with the tile shape (documented on the engine).
:func:`prepare_stable_metric` is the matmul-free counterpart whose every
value depends on its (source, target) pair alone.

Kernels preserve the floating dtype of their inputs: the public API
validates to float64 (exactly the historical behaviour), while the
engine may feed float32 views to halve memory bandwidth.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.parallel import DEFAULT_CHUNK_ELEMS, rows_per_chunk
from repro.utils.validation import check_embedding_matrix, check_shape_compatible

_EPS = 1e-12

#: A prepared kernel: maps a source-row slice (and optionally a
#: target-column slice, default all columns) to that tile of ``S``.
BlockKernel = Callable[..., np.ndarray]


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; zero rows are left at zero.

    On a C-contiguous matrix each row's value depends on that row alone,
    so normalising all rows once equals normalising any gathered subset.
    """
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, _EPS)


def normalize_each_row(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm, each by its own 1-D norm (a dot
    product): the pair-stable kernel's query normalisation.  The batched
    ``axis=1`` norm of :func:`normalize_rows` can differ from it in the
    last bit."""
    norms = np.array([np.linalg.norm(row) for row in matrix])
    return matrix / np.maximum(norms, _EPS)[:, None]


def pair_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two broadcastable arrays.

    An elementwise multiply plus a reduction over each pair's own
    ``dim`` values, never a BLAS matmul: the pair-stable cosine formula.
    """
    return (left * right).sum(axis=-1)


def _prepare_cosine(source: np.ndarray, target: np.ndarray) -> BlockKernel:
    normalized_source = normalize_rows(source)
    normalized_target_t = normalize_rows(target).T

    def block(rows: slice, cols: slice = slice(None)) -> np.ndarray:
        return normalized_source[rows] @ normalized_target_t[:, cols]

    return block


def _prepare_euclidean(source: np.ndarray, target: np.ndarray) -> BlockKernel:
    # ||u - v||^2 = ||u||^2 + ||v||^2 - 2 u.v, computed without the n^2 x d
    # intermediate that a broadcasted subtraction would need.
    sq_source = np.sum(source**2, axis=1)
    sq_target = np.sum(target**2, axis=1)

    def block(rows: slice, cols: slice = slice(None)) -> np.ndarray:
        squared = sq_source[rows, None] + sq_target[None, cols]
        squared -= 2.0 * (source[rows] @ target[cols].T)
        np.maximum(squared, 0.0, out=squared)
        np.sqrt(squared, out=squared)
        np.negative(squared, out=squared)
        return squared

    return block


def prepare_metric(
    metric: str,
    source: np.ndarray,
    target: np.ndarray,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> BlockKernel:
    """One-time preparation of ``metric`` over validated inputs.

    Returns a kernel computing any ``(rows, cols)`` tile of ``S``.  Inputs
    must already be validated and dtype-cast by the caller — this is the
    engine-facing seam below the public API.  ``chunk_elems`` bounds the
    broadcast intermediate of metrics without a matmul form (Manhattan).
    """
    if metric == "cosine":
        return _prepare_cosine(source, target)
    if metric == "euclidean":
        return _prepare_euclidean(source, target)
    if metric == "manhattan":
        # L1 has no matmul shortcut, so its kernel is the pair-stable one.
        return prepare_stable_metric(metric, source, target, chunk_elems)
    known = ", ".join(sorted(SIMILARITY_METRICS))
    raise ValueError(f"unknown similarity metric {metric!r}; known metrics: {known}")


def _full(metric: str, source: np.ndarray, target: np.ndarray, **kwargs) -> np.ndarray:
    source = check_embedding_matrix(source, "source")
    target = check_embedding_matrix(target, "target")
    check_shape_compatible(source, target)
    kernel = prepare_metric(metric, source, target, **kwargs)
    return kernel(slice(0, source.shape[0]))


def cosine_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix between two embedding matrices.

    The paper's default metric (Section 4.2).  Zero vectors are treated as
    having zero similarity to everything rather than raising.
    """
    return _full("cosine", source, target)


def euclidean_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negated Euclidean distance matrix (higher means closer)."""
    return _full("euclidean", source, target)


def manhattan_similarity(
    source: np.ndarray,
    target: np.ndarray,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> np.ndarray:
    """Negated Manhattan (L1) distance matrix (higher means closer).

    ``chunk_elems`` bounds the broadcasted ``rows x n_target x dim``
    difference tensor to roughly that many elements (the same budget the
    similarity engine uses for its chunk-size policy), trading peak
    memory against per-chunk overhead.
    """
    return _full("manhattan", source, target, chunk_elems=chunk_elems)


def prepare_stable_metric(
    metric: str,
    source: np.ndarray,
    target: np.ndarray,
    chunk_elems: int = DEFAULT_CHUNK_ELEMS,
) -> BlockKernel:
    """The *pair-stable* counterpart of :func:`prepare_metric`.

    Every value of a block is a pure function of its ``(source[i],
    target[j])`` pair: elementwise multiply or subtract plus a reduction
    over the pair's ``dim`` values, never a BLAS matmul, whose summation
    order varies with the block shape.  So a pair scores bitwise the
    same whichever queries share the block and whichever targets share
    the call — the determinism base of the serving layer (DESIGN.md
    §12).  ``chunk_elems`` bounds the ``rows x n_cols x dim``
    intermediate.
    """
    if metric == "cosine":
        source = normalize_each_row(source)
        target = normalize_rows(target)

        def pairs(sub: np.ndarray, tgt: np.ndarray) -> np.ndarray:
            return pair_dots(tgt[None, :, :], sub[:, None, :])

    elif metric == "euclidean":

        def pairs(sub: np.ndarray, tgt: np.ndarray) -> np.ndarray:
            squared = ((tgt[None, :, :] - sub[:, None, :]) ** 2).sum(axis=2)
            return -np.sqrt(np.maximum(squared, 0.0))

    elif metric == "manhattan":

        def pairs(sub: np.ndarray, tgt: np.ndarray) -> np.ndarray:
            return -np.abs(tgt[None, :, :] - sub[:, None, :]).sum(axis=2)

    else:
        known = ", ".join(sorted(SIMILARITY_METRICS))
        raise ValueError(
            f"unknown similarity metric {metric!r}; known metrics: {known}"
        )

    def block(rows: slice, cols: slice = slice(None)) -> np.ndarray:
        sub, tgt = source[rows], target[cols]
        result = np.empty((sub.shape[0], tgt.shape[0]), dtype=sub.dtype)
        inner_rows = rows_per_chunk(tgt.shape[0] * tgt.shape[1], chunk_elems)
        for start in range(0, sub.shape[0], inner_rows):
            stop = min(start + inner_rows, sub.shape[0])
            result[start:stop] = pairs(sub[start:stop], tgt)
        return result

    return block


#: Registry used by :func:`similarity_matrix` and the experiment configs.
SIMILARITY_METRICS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cosine": cosine_similarity,
    "euclidean": euclidean_similarity,
    "manhattan": manhattan_similarity,
}


def similarity_matrix(
    source: np.ndarray, target: np.ndarray, metric: str = "cosine"
) -> np.ndarray:
    """Pairwise score matrix ``S`` under the named ``metric``.

    This is the "Derive similarity matrix S based on E" step shared by
    every algorithm description in the paper (Algorithms 3-6).
    """
    try:
        func = SIMILARITY_METRICS[metric]
    except KeyError:
        known = ", ".join(sorted(SIMILARITY_METRICS))
        raise ValueError(f"unknown similarity metric {metric!r}; known metrics: {known}")
    return func(source, target)
