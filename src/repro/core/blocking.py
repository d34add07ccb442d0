"""Blocking: run any matcher inside sub-quadratic candidate blocks.

The paper's direction 4 calls for scalable matching; its reference point
(ClusterEA) partitions large problems into mini-batches and matches
within them.  :class:`BlockedMatcher` generalises the idea to *any*
matcher in this library:

* given **embeddings**, a deterministic mini k-means is fitted on the
  (centered) target space — O(n d k) work, no n^2 matrix — and each side
  is assigned to its nearest centroid's block.  Equivalent entities have
  similar embeddings, so most gold pairs co-locate.  Peak memory is the
  largest block's similarity matrix, the concrete obstacle Table 6
  documents for RInf/Sink./Hun. at scale.
* given a **precomputed score matrix**, blocking falls back to
  best-suitor bucketing (like RInf-pb); the memory saving then only
  applies to the wrapped matcher's working set, since the caller already
  paid for the scores.

Accuracy degrades only for pairs split across block boundaries; the
``overlap`` fraction duplicates a margin of each block's targets into
its neighbour to blunt the boundary effect.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MatchResult, Matcher
from repro.similarity.topk import top1_indices
from repro.utils.kmeans import (
    centroid_distances,
    cluster_members,
    kmeans_centroids,
    nearest_centroid,
)
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_embedding_matrix,
    check_score_matrix,
    check_shape_compatible,
)


def best_suitor_blocks(
    scores: np.ndarray, num_blocks: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Best-suitor bucketing of a score matrix (RInf-pb's partition).

    Targets are bucketed by their best suitor (each column's top-1
    source) and each source joins the bucket of its own best option
    (each row's top-1 target).  Both top-1 passes are computed exactly
    once here — the shared pass that :class:`BlockedMatcher` and
    :class:`~repro.core.rinf.RInfPb` previously each derived on their
    own.  Returns ``(target_blocks, source_block)``: the list of target
    index arrays per block, and each source row's block id.
    """
    n_source, n_target = scores.shape
    best_suitor = top1_indices(scores, axis=0)  # per target, its best source
    best_option = top1_indices(scores, axis=1)  # per source, its best target
    target_order = np.argsort(best_suitor, kind="stable")
    target_blocks = np.array_split(target_order, num_blocks)
    block_of_target = np.empty(n_target, dtype=np.int64)
    for block_id, block in enumerate(target_blocks):
        block_of_target[block] = block_id
    return target_blocks, block_of_target[best_option]


class BlockedMatcher(Matcher):
    """Partition the problem into blocks and run ``inner`` inside each."""

    def __init__(self, inner: Matcher, num_blocks: int = 4, overlap: float = 0.1) -> None:
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if not 0.0 <= overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {overlap}")
        self.inner = inner
        self.num_blocks = num_blocks
        self.overlap = overlap
        self.name = f"{inner.name}+blocked"

    # ------------------------------------------------------------------

    def match(self, source: np.ndarray, target: np.ndarray) -> MatchResult:
        """Embedding-space blocking via k-means over the target space.

        Cluster centroids are fitted on the target embeddings (O(n d k)
        work — no n^2 matrix); each target joins its nearest centroid's
        block, optionally expanded with its runner-up assignments
        (``overlap``), and each source queries the block of its own
        nearest centroid.
        """
        source = check_embedding_matrix(source, "source")
        target = check_embedding_matrix(target, "target")
        check_shape_compatible(source, target)
        watch = Stopwatch()
        memory = MemoryTracker()

        with watch.measure("blocking"):
            num_blocks = min(self.num_blocks, target.shape[0])
            centroids, center = kmeans_centroids(target, num_blocks)
            target_blocks = self._assign_with_overlap(target, centroids, center)
            source_block = nearest_centroid(source, centroids, center)

        pairs: list[np.ndarray] = []
        scores: list[np.ndarray] = []
        best_score = np.full(source.shape[0], -np.inf)
        peak_block = 0
        source_blocks = cluster_members(source_block, len(target_blocks))
        for block_sources, block_targets in zip(source_blocks, target_blocks):
            if len(block_sources) == 0 or len(block_targets) == 0:
                continue
            peak_block = max(peak_block, len(block_sources) * len(block_targets) * 8)
            result = self.inner.match(source[block_sources], target[block_targets])
            if len(result.pairs) == 0:
                continue
            global_pairs = np.stack(
                [block_sources[result.pairs[:, 0]], block_targets[result.pairs[:, 1]]],
                axis=1,
            )
            pairs.append(global_pairs)
            scores.append(result.scores)
        memory.allocate("block", peak_block)
        memory.release("block")
        return self._dedupe(pairs, scores, best_score, watch, memory)

    def match_scores(self, scores_matrix: np.ndarray) -> MatchResult:
        """Score-matrix blocking via best-suitor bucketing."""
        scores_matrix = check_score_matrix(scores_matrix)
        watch = Stopwatch()
        memory = MemoryTracker()
        memory.allocate_array("similarity", scores_matrix)
        n_source, n_target = scores_matrix.shape
        num_blocks = min(self.num_blocks, n_source, n_target)
        target_blocks, source_block = best_suitor_blocks(scores_matrix, num_blocks)

        pairs: list[np.ndarray] = []
        scores: list[np.ndarray] = []
        best_score = np.full(n_source, -np.inf)
        for block_id, block_targets in enumerate(target_blocks):
            block_sources = np.flatnonzero(source_block == block_id)
            if len(block_sources) == 0 or len(block_targets) == 0:
                continue
            sub = scores_matrix[np.ix_(block_sources, block_targets)]
            result = self.inner.match_scores(sub)
            if len(result.pairs) == 0:
                continue
            global_pairs = np.stack(
                [block_sources[result.pairs[:, 0]], block_targets[result.pairs[:, 1]]],
                axis=1,
            )
            pairs.append(global_pairs)
            scores.append(result.scores)
        return self._dedupe(pairs, scores, best_score, watch, memory)

    # ------------------------------------------------------------------

    def _assign_with_overlap(
        self, target: np.ndarray, centroids: np.ndarray, center: np.ndarray
    ) -> list[np.ndarray]:
        """Targets per block; with overlap, boundary targets join two blocks.

        A target is a boundary case when its second-nearest centroid is
        almost as close as its nearest; the ``overlap`` fraction of the
        most boundary-like targets is duplicated into the runner-up block.
        """
        distances = centroid_distances(target, centroids, center)
        nearest = distances.argmin(axis=1)
        blocks = cluster_members(nearest, len(centroids))
        if self.overlap <= 0 or len(centroids) < 2:
            return blocks
        order = np.argsort(distances, axis=1)
        runner_up = order[:, 1]
        margin = distances[np.arange(len(target)), runner_up] - distances[
            np.arange(len(target)), nearest
        ]
        cutoff = np.quantile(margin, self.overlap)
        boundary = np.flatnonzero(margin <= cutoff)
        expanded = [list(block) for block in blocks]
        for idx in boundary:
            expanded[int(runner_up[idx])].append(int(idx))
        return [np.unique(np.asarray(block, dtype=np.int64)) for block in expanded]

    @staticmethod
    def _dedupe(
        pairs: list[np.ndarray],
        scores: list[np.ndarray],
        best_score: np.ndarray,
        watch: Stopwatch,
        memory: MemoryTracker,
    ) -> MatchResult:
        """Keep each source's best-scoring pair across (overlapping) blocks."""
        if not pairs:
            return MatchResult(
                np.empty((0, 2), dtype=np.int64), np.empty(0),
                stopwatch=watch, memory=memory,
            )
        all_pairs = np.concatenate(pairs)
        all_scores = np.concatenate(scores)
        chosen: dict[int, int] = {}
        for idx, (source_id, _) in enumerate(all_pairs):
            current = chosen.get(int(source_id))
            if current is None or all_scores[idx] > all_scores[current]:
                chosen[int(source_id)] = idx
        keep = sorted(chosen.values())
        return MatchResult(
            all_pairs[keep], all_scores[keep], stopwatch=watch, memory=memory
        )
