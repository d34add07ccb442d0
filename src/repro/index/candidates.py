"""Sparse top-k candidate sets — the n x k alternative to the n x n matrix.

Every global matcher in the paper starts from the dense pairwise score
matrix, and Table 6 shows exactly where that ends: RInf, Sinkhorn, and
Hungarian all blow past the memory budget at large scale because the
n x n working set does.  A :class:`CandidateSet` is the sparse
replacement: for each source row, the ids and scores of its top
candidates, stored CSR-style (``indptr`` / ``indices`` / ``scores``)
so rows may have different lengths (an IVF probe that comes up short
keeps what it found instead of padding).

Invariants:

* rows are sorted best-first (constructors enforce this), so the
  greedy decision for row ``i`` is its first entry;
* ``indices`` are target column ids in ``[0, n_targets)``;
* no n x n array is ever allocated by any method except
  :meth:`densify`, the explicit dense escape hatch for matchers without
  a sparse path (Hungarian, Sinkhorn) — every densify is counted on the
  ``sparse.densify`` obs metric so tests can assert the sparse path
  never fell back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics


@dataclass
class CandidateSet:
    """Per-source top-k candidate lists in CSR layout.

    ``indptr`` has ``n_sources + 1`` entries; row ``i``'s candidates are
    ``indices[indptr[i]:indptr[i+1]]`` with matching ``scores``, sorted
    by descending score.
    """

    indptr: np.ndarray
    indices: np.ndarray
    scores: np.ndarray
    n_targets: int

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise ValueError("indptr must be a 1-D array with at least one entry")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr must run from 0 to nnz={len(self.indices)}, "
                f"got [{self.indptr[0]}, {self.indptr[-1]}]"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.scores):
            raise ValueError(
                f"indices ({len(self.indices)}) and scores ({len(self.scores)}) disagree"
            )
        if self.n_targets < 0:
            raise ValueError(f"n_targets must be >= 0, got {self.n_targets}")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n_targets
        ):
            raise ValueError("candidate indices fall outside [0, n_targets)")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_topk(
        cls, indices: np.ndarray, scores: np.ndarray, n_targets: int
    ) -> "CandidateSet":
        """From rectangular ``(n_source, k)`` top-k arrays (best-first),
        the output shape of :func:`~repro.similarity.chunked.chunked_top_k`."""
        indices = np.asarray(indices, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if indices.shape != scores.shape or indices.ndim != 2:
            raise ValueError(
                f"indices and scores must share a 2-D shape, got "
                f"{indices.shape} and {scores.shape}"
            )
        n_source, k = indices.shape
        indptr = np.arange(0, (n_source + 1) * k, k, dtype=np.int64)
        return cls(indptr, indices.reshape(-1), scores.reshape(-1), n_targets)

    @classmethod
    def from_rows(
        cls,
        rows: list[tuple[np.ndarray, np.ndarray]],
        n_targets: int,
    ) -> "CandidateSet":
        """From per-row ``(ids, scores)`` pairs of varying length, in any
        order (rows are sorted best-first here)."""
        counts = np.array([len(ids) for ids, _ in rows], dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        scores = np.empty(int(indptr[-1]), dtype=np.float64)
        for i, (ids, row_scores) in enumerate(rows):
            order = np.argsort(-np.asarray(row_scores, dtype=np.float64), kind="stable")
            indices[indptr[i]:indptr[i + 1]] = np.asarray(ids, dtype=np.int64)[order]
            scores[indptr[i]:indptr[i + 1]] = np.asarray(row_scores, dtype=np.float64)[order]
        return cls(indptr, indices, scores, n_targets)

    @classmethod
    def vstack(cls, parts: list["CandidateSet"]) -> "CandidateSet":
        """Concatenate row-batched sets into one (same ``n_targets``).

        The assembly step of blocked candidate generation: each batch of
        source rows is searched independently, then the per-batch sets
        stack into the full set.  Row order is the concatenation order.
        """
        if not parts:
            raise ValueError("vstack needs at least one CandidateSet")
        n_targets = parts[0].n_targets
        if any(part.n_targets != n_targets for part in parts):
            raise ValueError("vstack parts must share n_targets")
        if len(parts) == 1:
            return parts[0]
        offsets = np.cumsum([0] + [part.nnz for part in parts])
        indptr = np.concatenate(
            [parts[0].indptr]
            + [part.indptr[1:] + offset for part, offset in zip(parts[1:], offsets[1:])]
        )
        indices = np.concatenate([part.indices for part in parts])
        scores = np.concatenate([part.scores for part in parts])
        return cls(indptr, indices, scores, n_targets)

    # -- shape & accounting --------------------------------------------

    @property
    def n_sources(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        """Stored (source, target) candidate entries."""
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Bytes of the CSR arrays — the sparse path's working set."""
        return self.indptr.nbytes + self.indices.nbytes + self.scores.nbytes

    @property
    def row_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def k_max(self) -> int:
        """Longest candidate list (0 for an empty set)."""
        counts = self.row_counts
        return int(counts.max()) if len(counts) else 0

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s ``(ids, scores)``, best-first."""
        start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[start:stop], self.scores[start:stop]

    def row_of_entry(self) -> np.ndarray:
        """Source row id of every stored entry (the CSR expansion)."""
        return np.repeat(np.arange(self.n_sources), self.row_counts)

    # -- queries -------------------------------------------------------

    def best_per_row(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each non-empty row's best candidate: ``(rows, cols, scores)``.

        Rows are sorted best-first, so this is a gather of each row's
        first entry — the O(n) sparse greedy decision.
        """
        counts = self.row_counts
        rows = np.flatnonzero(counts > 0)
        first = self.indptr[rows]
        return rows, self.indices[first], self.scores[first]

    def contains(self, pairs: np.ndarray) -> np.ndarray:
        """Whether each (row, col) pair is among the stored candidates."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        hit = np.zeros(len(pairs), dtype=bool)
        for i, (row, col) in enumerate(pairs):
            ids, _ = self.row(int(row))
            hit[i] = bool(np.any(ids == col))
        return hit

    def recall(self, gold_pairs) -> float:
        """Fraction of gold (row, col) pairs present in the candidate lists.

        The candidate-generation quality gate: a matcher decoding this
        set can never recover a gold pair the set does not contain.
        """
        pairs = np.asarray(list(gold_pairs), dtype=np.int64).reshape(-1, 2)
        if len(pairs) == 0:
            return 0.0
        return float(self.contains(pairs).mean())

    def ranking_diagnostics(self, gold_pairs, ks: tuple[int, ...] = (1, 5, 10)) -> dict[str, float]:
        """Hits@k / MRR of the gold links *within* the candidate lists.

        The sparse analogue of
        :func:`repro.eval.metrics.ranking_diagnostics`: a gold target
        missing from its query's list counts as unranked (rank infinity).
        """
        pairs = np.asarray(list(gold_pairs), dtype=np.int64).reshape(-1, 2)
        if len(pairs) == 0:
            return {**{f"hits@{k}": 0.0 for k in ks}, "mrr": 0.0}
        ranks = np.full(len(pairs), np.inf)
        for i, (row, col) in enumerate(pairs):
            ids, row_scores = self.row(int(row))
            position = np.flatnonzero(ids == col)
            if len(position):
                gold_score = row_scores[position[0]]
                ranks[i] = float((row_scores > gold_score).sum()) + 1.0
        diagnostics = {f"hits@{k}": float((ranks <= k).mean()) for k in ks}
        diagnostics["mrr"] = float(np.where(np.isinf(ranks), 0.0, 1.0 / ranks).mean())
        return diagnostics

    def top5_std(self) -> float:
        """Mean std of each row's top-5 candidate scores (Figure 4 statistic).

        Identical to the dense statistic whenever rows hold >= 5
        candidates, because a row's top-5 candidates are its top-5
        scores.  Empty rows are skipped.
        """
        stds = [
            float(np.std(row_scores[:5]))
            for i in range(self.n_sources)
            for row_scores in (self.row(i)[1],)
            if len(row_scores)
        ]
        return float(np.mean(stds)) if stds else 0.0

    # -- the dense escape hatch ----------------------------------------

    def densify(self, fill: float | None = None) -> np.ndarray:
        """Materialise the dense ``(n_sources, n_targets)`` matrix.

        The *only* method here that allocates n x n — the fallback for
        matchers without a sparse path.  ``fill`` is the score given to
        non-candidate cells; by default one less than the worst stored
        score, so no decoder ever prefers a non-candidate.  Each call
        increments the ``sparse.densify`` obs counter, which the
        sparse-path tests pin to zero.

        Under an active supervisor budget
        (:func:`repro.runtime.budget.active_budget`), a matrix that
        would not fit raises
        :class:`~repro.errors.ResourceBudgetExceeded` *before*
        allocating — and a raw ``MemoryError`` from the allocation is
        rewrapped the same way — so the degradation ladder catches the
        breach instead of the process dying on it.
        """
        from repro.errors import ResourceBudgetExceeded
        # Function-level import: candidates sits below the runtime
        # package, whose __init__ pulls in the supervisor and, through
        # the registry, the sparse kernels that operate on this class.
        from repro.runtime.budget import active_budget

        dense_bytes = self.n_sources * self.n_targets * 8
        budget = active_budget()
        if budget is not None and dense_bytes > budget:
            raise ResourceBudgetExceeded(
                f"densify would materialise {dense_bytes} bytes "
                f"({self.n_sources} x {self.n_targets}) against a "
                f"{budget}-byte budget",
                peak_bytes=dense_bytes,
                budget_bytes=budget,
            )
        obs_metrics.get_metrics().inc("sparse.densify")
        if fill is None:
            fill = float(self.scores.min()) - 1.0 if self.nnz else 0.0
        try:
            dense = np.full((self.n_sources, self.n_targets), fill, dtype=np.float64)
        except MemoryError as error:
            raise ResourceBudgetExceeded(
                f"densify failed to allocate {dense_bytes} bytes: {error}",
                peak_bytes=dense_bytes,
            ) from error
        dense[self.row_of_entry(), self.indices] = self.scores
        return dense

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateSet(n_sources={self.n_sources}, n_targets={self.n_targets}, "
            f"nnz={self.nnz}, k_max={self.k_max})"
        )


class TopK:
    """A fixed ``(n_rows, k)`` running top-k under the total order
    ``(-score, id asc)``.

    Because the order is total, blocks merge in any order and grouping
    into the top-k of their union.  The IVF scan merges every block
    here, and the serving layer merges its delta scan the same way.
    Unfilled slots hold a ``-inf`` score and are never reported.
    """

    def __init__(self, n_rows: int, k: int) -> None:
        self.k = k
        self.scores = np.full((n_rows, k), -np.inf)
        self.ids = np.full((n_rows, k), np.iinfo(np.int64).max, dtype=np.int64)
        #: Candidates merged per row so far (reported: ``min(found, k)``).
        self.found = np.zeros(n_rows, dtype=np.int64)

    @classmethod
    def of(cls, candidates: CandidateSet, k: int) -> "TopK":
        """A buffer holding ``candidates`` (no row longer than ``k``)."""
        top = cls(candidates.n_sources, k)
        counts = candidates.row_counts
        filled = np.arange(k) < counts[:, None]
        top.scores[filled] = candidates.scores
        top.ids[filled] = candidates.indices
        top.found = counts.copy()
        return top

    def merge(self, rows, scores: np.ndarray, ids: np.ndarray) -> None:
        """Merge ``scores[i, j]``, the score of id ``ids[j]`` for row
        ``rows[i]`` (an index array of distinct rows, or a slice)."""
        k = self.k
        pool_scores = np.concatenate([self.scores[rows], scores], axis=1)
        pool_ids = np.concatenate(
            [self.ids[rows], np.broadcast_to(ids, scores.shape)], axis=1
        )
        cut = pool_scores.shape[1] - k
        keep = pool_scores >= np.partition(pool_scores, cut, axis=1)[:, cut, None]
        # More than k candidates at or above the k-th score: a tie at the
        # cut (or under k candidates).  Select exactly, ties by id.
        tied = np.flatnonzero(keep.sum(axis=1) > k)
        if len(tied):
            exact = np.lexsort((pool_ids[tied], -pool_scores[tied]), axis=1)
            keep[tied] = False
            keep[tied[:, None], exact[:, :k]] = True
        self.scores[rows] = pool_scores[keep].reshape(-1, k)
        self.ids[rows] = pool_ids[keep].reshape(-1, k)
        self.found[rows] += scores.shape[1]

    def candidates(self, n_targets: int) -> CandidateSet:
        """The buffer as a best-first :class:`CandidateSet`."""
        order = np.lexsort((self.ids, -self.scores), axis=1)
        counts = np.minimum(self.found, self.k)
        filled = np.arange(self.k) < counts[:, None]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return CandidateSet(
            indptr,
            np.take_along_axis(self.ids, order, axis=1)[filled],
            np.take_along_axis(self.scores, order, axis=1)[filled],
            n_targets,
        )
