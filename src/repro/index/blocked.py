"""Coarse-to-fine candidate generation for out-of-core problems.

The sharded matching path must never materialise n x n — not even
transiently inside candidate generation.  This module routes a large
(source, target) problem through the IVF coarse quantizer: the index
partitions the targets into inverted lists, and source rows are searched
in row batches sized to a memory budget, so the peak working set is the
embedding views for one batch plus that batch's probed lists — O(n k)
candidate structures total, independent of n x n.

Inputs may be in-memory arrays or memmap-backed
:class:`~repro.storage.EmbeddingStore` instances; batching slices rows,
so a store's pages are faulted in one batch at a time.

Determinism: the batch grid is a function of shape and budget only (the
planner's contract), so equal inputs and equal budgets always produce
identical candidate sets.  Across *different* budgets the candidate
identity (which ids survive per row) is invariant; the scores agree only
to floating-point roundoff, because BLAS may order the reductions
differently for different batch shapes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.index.candidates import CandidateSet
from repro.index.ivf import IVFIndex
from repro.obs import events as obs_events
from repro.obs import trace as obs_trace
from repro.utils.parallel import DEFAULT_CHUNK_ELEMS, row_chunks, rows_per_chunk


def default_clusters(n_targets: int) -> int:
    """The usual IVF sizing: ~sqrt(n) lists, clamped to [1, 4096]."""
    return max(1, min(4096, int(round(math.sqrt(max(0, n_targets))))))


def default_nprobe(n_clusters: int) -> int:
    """Probe ~1/16 of the lists, at least 4 — recall over raw speed."""
    return max(1, min(n_clusters, n_clusters // 16 + 4))


def _as_matrix(embeddings) -> np.ndarray:
    """An array view of ``embeddings`` (EmbeddingStore or array-like)."""
    if hasattr(embeddings, "as_array"):
        return embeddings.as_array()
    return np.asarray(embeddings)


def blocked_candidates(
    source,
    target,
    k: int,
    *,
    metric: str = "cosine",
    memory_budget: int | None = None,
    n_clusters: int | None = None,
    nprobe: int | None = None,
    train_iterations: int = 6,
) -> CandidateSet:
    """Top-``k`` candidate lists via IVF blocking, in budgeted row batches.

    The candidate front end of the scale benchmarks and the offline
    scan.  ``memory_budget`` (bytes) sizes
    the query batches; ``n_clusters`` / ``nprobe`` default to the usual
    sqrt(n) coarse sizing.  Returns the same set any batching would:
    batches only bound the working set.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    source = _as_matrix(source)
    target = _as_matrix(target)
    n_sources, n_targets = source.shape[0], target.shape[0]
    if n_clusters is None:
        n_clusters = default_clusters(n_targets)
    n_clusters = max(1, min(n_clusters, max(1, n_targets)))
    if nprobe is None:
        nprobe = default_nprobe(n_clusters)
    if n_sources == 0 or n_targets == 0:
        return CandidateSet(
            np.zeros(max(1, n_sources + 1), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            n_targets,
        )

    with obs_trace.span(
        "index.blocked",
        rows=n_sources,
        cols=n_targets,
        k=k,
        clusters=n_clusters,
        nprobe=nprobe,
    ) as span:
        index = IVFIndex(
            n_clusters=n_clusters, metric=metric, train_iterations=train_iterations
        )
        index.train(target)
        index.add(target)

        # A batch's working set is ~rows x (centroid table + probed
        # lists); size batches so that stays within the budget.
        budget_elems = (
            max(1, memory_budget // 8) if memory_budget is not None else DEFAULT_CHUNK_ELEMS
        )
        mean_list = max(1, -(-n_targets // n_clusters))
        elems_per_row = n_clusters + 2 * nprobe * mean_list
        batch_rows = rows_per_chunk(elems_per_row, budget_elems)
        batches = row_chunks(n_sources, batch_rows)

        parts: list[CandidateSet] = []
        for rows in batches:
            part = index.search(np.asarray(source[rows]), k, nprobe=nprobe)
            parts.append(part)
            obs_events.emit(
                "index.blocked.batch",
                start=rows.start,
                stop=rows.stop,
                of=n_sources,
                nnz=part.nnz,
            )
        span.count("batches", len(batches))
    return CandidateSet.vstack(parts)
