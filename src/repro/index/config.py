"""Candidate-generation configuration: how a sparse run builds its lists.

An :class:`IndexConfig` names the strategy (exact streamed top-k or the
IVF index) and its knobs; :func:`build_candidates` turns it into a
concrete :class:`~repro.index.candidates.CandidateSet` for one
(source, target) problem.  The experiment runner, the pipeline, and the
CLI all accept an ``IndexConfig`` so "run this sweep sparsely" is one
argument, not a plumbing change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.candidates import CandidateSet
from repro.index.ivf import IVFIndex
from repro.similarity.chunked import chunked_top_k

#: Candidate-generation strategies build_candidates understands.
INDEX_KINDS = ("exact", "ivf")


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for sparse candidate generation.

    ``kind="exact"`` streams the true top-k per source through the
    chunked kernels (no approximation, no n x n matrix); ``kind="ivf"``
    trains an :class:`~repro.index.ivf.IVFIndex` on the targets and
    probes ``nprobe`` of its ``n_clusters`` lists per query.
    """

    kind: str = "ivf"
    #: Candidates kept per source row.
    k: int = 50
    #: Inverted lists scanned per query (ivf only).
    nprobe: int = 4
    #: Coarse-quantizer clusters (ivf only; clamped to the target count).
    n_clusters: int = 16
    #: Similarity metric override; None inherits the caller's metric.
    metric: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise ValueError(f"kind must be one of {INDEX_KINDS}, got {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")


def build_candidates(
    source: np.ndarray,
    target: np.ndarray,
    config: IndexConfig,
    engine=None,
    metric: str = "cosine",
) -> CandidateSet:
    """Build the candidate set ``config`` describes for one problem.

    ``engine`` (a :class:`~repro.similarity.engine.SimilarityEngine`)
    is used for the exact strategy when given — its dtype, chunk policy
    and score cache all apply; without one the serial chunked kernel
    runs.  The IVF strategy trains on the *target* side, mirroring the
    blocking matcher's convention.
    """
    metric = config.metric or metric
    source = np.asarray(source)
    target = np.asarray(target)
    if config.kind == "exact":
        if engine is not None:
            return engine.top_k_candidates(source, target, config.k, metric=metric)
        indices, scores = chunked_top_k(source, target, config.k, metric=metric)
        return CandidateSet.from_topk(indices, scores, n_targets=target.shape[0])
    index = IVFIndex(
        n_clusters=min(config.n_clusters, target.shape[0]), metric=metric
    )
    index.train(target).add(target)
    return index.search(source, config.k, nprobe=config.nprobe)
