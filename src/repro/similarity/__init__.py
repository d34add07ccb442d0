"""Pairwise similarity between entity embedding matrices.

This package implements the first half of the embedding-matching stage:
turning two embedding matrices into the pairwise score matrix ``S`` that
every matching algorithm in :mod:`repro.core` consumes (Section 2.2 of
the paper).  Cosine similarity is the paper's default; Euclidean and
Manhattan distances are converted to similarities so that "higher is
better" holds uniformly (paper footnote 3).
"""

from repro.similarity.chunked import chunked_top_k
from repro.similarity.engine import EngineStats, SimilarityEngine, fingerprint
from repro.similarity.metrics import (
    SIMILARITY_METRICS,
    cosine_similarity,
    euclidean_similarity,
    manhattan_similarity,
    prepare_metric,
    similarity_matrix,
)
from repro.similarity.topk import top_k_indices, top_k_mean, top_k_values

__all__ = [
    "SIMILARITY_METRICS",
    "EngineStats",
    "SimilarityEngine",
    "chunked_top_k",
    "cosine_similarity",
    "euclidean_similarity",
    "fingerprint",
    "manhattan_similarity",
    "prepare_metric",
    "similarity_matrix",
    "top_k_indices",
    "top_k_mean",
    "top_k_values",
]
