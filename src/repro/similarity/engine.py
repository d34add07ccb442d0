"""Similarity engine: one scoring schedule plus cross-matcher caching.

Every matcher in the paper (Algorithms 3-6) starts from the same "Derive
similarity matrix S based on E" step, and the experiment harness sweeps
seven matchers over the *same* unified embeddings — so the seed code
computed the identical n x n matrix seven times.  The
:class:`SimilarityEngine` computes it once, one way:

* **One schedule** — each computation prepares the metric once
  (:func:`~repro.similarity.metrics.prepare_metric`: unit rows for
  cosine, squared norms for euclidean) and scores every ``(rows, cols)``
  tile of the :func:`~repro.utils.parallel.plan_shards` grid from that
  kernel, in the calling thread.  There is no second executor: a pool
  of shard worker processes over shared memory measured slower than
  this loop (DESIGN.md §5).
* **Precision** — ``dtype="float32"`` computes and stores S in float32,
  halving memory bandwidth and footprint on the n x n working set at
  ~1e-6 relative error (scores only feed rankings, which are far less
  precise than that).
* **Caching** — computed matrices are kept in a fingerprint-keyed LRU
  cache.  The key is ``(source digest, target digest, metric, dtype)``
  where the digests hash the embedding bytes and shape, so a sweep of
  all seven matchers over shared embeddings computes S exactly once and
  serves six cache hits.

Determinism contract: the shard grid is a function of the problem shape
and the grid policy (``chunk_rows`` / ``chunk_elems`` /
``memory_budget`` / ``shard_cols``) only, and tiles are written to
disjoint parts of the output — so results depend on the grid, never on
the order the tiles are scored in.  With the default policy, small
problems fall into a single tile and the output is bitwise-identical to
the serial :func:`~repro.similarity.metrics.similarity_matrix`; once a
float64 problem spans several tiles, cosine/euclidean values may differ from
the serial path in the last bits (BLAS summation order varies with the
tile shape) while Manhattan stays exact.

Cached matrices are returned with ``writeable=False`` — every consumer
of the cache shares one physical matrix, so an accidental in-place
transform would poison every later hit.  Callers that need to mutate S
must copy it (no matcher in :mod:`repro.core` does).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.similarity.chunked import chunked_top_k
from repro.similarity.metrics import prepare_metric
from repro.similarity.topk import top_k_indices
from repro.utils.parallel import DEFAULT_CHUNK_ELEMS, plan_shards, rows_per_chunk
from repro.utils.validation import check_embedding_matrix, check_shape_compatible

#: Cache key: (source digest, target digest, metric, dtype name).
CacheKey = tuple[str, str, str, str]


@dataclass
class EngineStats:
    """Counters for the engine's cache behaviour and work done.

    ``computations`` counts full score-matrix computations (the expensive
    O(n^2 d) kernels); a sweep that shares one matrix across m matchers
    shows ``computations == 1`` and ``hits == m - 1``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    computations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "computations": self.computations,
        }


@dataclass
class _CacheEntry:
    matrix: np.ndarray = field(repr=False)
    nbytes: int = 0


def fingerprint(array: np.ndarray) -> str:
    """Content digest of an embedding matrix (bytes + shape + dtype).

    blake2b over the raw buffer: O(n d) against the O(n^2 d) similarity
    computation it guards, so hashing is never the bottleneck.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str((array.shape, array.dtype.str)).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


class SimilarityEngine:
    """Schedules, caches, and precision-tunes score-matrix computation.

    Parameters
    ----------
    dtype:
        Compute/storage precision of S: ``float64`` (default, exact
        match with the serial path) or ``float32`` (half the bandwidth).
    cache:
        Whether to keep computed matrices for reuse across matchers.
    cache_size:
        Maximum number of cached matrices (LRU eviction).
    chunk_elems:
        Per-chunk working-set budget in elements; the chunk-size policy
        shared with :func:`~repro.similarity.metrics.manhattan_similarity`.
    chunk_rows:
        Explicit rows-per-shard override; ``None`` derives it from
        ``chunk_elems``.  Part of the determinism contract — results
        depend on the grid.
    memory_budget:
        Per-shard working-set budget in bytes for the grid of
        :func:`~repro.utils.parallel.plan_shards`.
    shard_cols:
        Explicit columns-per-shard override.  Like ``chunk_rows``, part
        of the grid policy.
    """

    def __init__(
        self,
        dtype: np.dtype | str = np.float64,
        cache: bool = True,
        cache_size: int = 4,
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
        chunk_rows: int | None = None,
        memory_budget: int | None = None,
        shard_cols: int | None = None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1 byte, got {memory_budget}")
        if shard_cols is not None and shard_cols < 1:
            raise ValueError(f"shard_cols must be >= 1, got {shard_cols}")
        self.cache_enabled = bool(cache)
        self.cache_size = cache_size
        self.chunk_elems = chunk_elems
        self.chunk_rows = chunk_rows
        self.memory_budget = memory_budget
        self.shard_cols = shard_cols
        self.stats = EngineStats()
        self._cache: OrderedDict[CacheKey, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._last_shards = 0

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop cached matrices."""
        self.clear_cache()

    def __enter__(self) -> "SimilarityEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- cache ---------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every cached matrix (counters are kept)."""
        with self._lock:
            self._cache.clear()

    def cache_info(self) -> dict[str, object]:
        """Snapshot of cache occupancy and counters (for tests/reports)."""
        with self._lock:
            entries = len(self._cache)
            nbytes = sum(entry.nbytes for entry in self._cache.values())
        info: dict[str, object] = {"entries": entries, "nbytes": nbytes}
        info.update(self.stats.as_dict())
        return info

    def _cache_key(
        self, source: np.ndarray, target: np.ndarray, metric: str
    ) -> CacheKey:
        return (fingerprint(source), fingerprint(target), metric, self.dtype.name)

    # -- the hot path --------------------------------------------------

    def similarity(
        self, source: np.ndarray, target: np.ndarray, metric: str = "cosine"
    ) -> np.ndarray:
        """Pairwise score matrix ``S``, (maybe) cached.

        Drop-in for :func:`~repro.similarity.metrics.similarity_matrix`.
        Cache hits return the shared matrix marked read-only; misses (and
        cache-off engines) return a freshly computed matrix.
        """
        source = check_embedding_matrix(source, "source")
        target = check_embedding_matrix(target, "target")
        check_shape_compatible(source, target)
        key: CacheKey | None = None
        if self.cache_enabled:
            key = self._cache_key(source, target, metric)
            with self._lock:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                    self.stats.hits += 1
                    obs_metrics.get_metrics().inc("engine.cache.hits")
                    obs_trace.event(
                        "engine.cache.hit", metric=metric, nbytes=entry.nbytes
                    )
                    return entry.matrix
                self.stats.misses += 1
            obs_metrics.get_metrics().inc("engine.cache.misses")
            obs_trace.event("engine.cache.miss", metric=metric)
        scores = self._compute(source, target, metric)
        if key is not None:
            scores.setflags(write=False)
            with self._lock:
                self._cache[key] = _CacheEntry(matrix=scores, nbytes=scores.nbytes)
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    self.stats.evictions += 1
                    obs_metrics.get_metrics().inc("engine.cache.evictions")
        return scores

    def _compute(
        self, source: np.ndarray, target: np.ndarray, metric: str
    ) -> np.ndarray:
        source = source.astype(self.dtype, copy=False)
        target = target.astype(self.dtype, copy=False)
        n_source, n_target = source.shape[0], target.shape[0]
        plan = plan_shards(
            n_source,
            n_target,
            chunk_rows=self.chunk_rows,
            chunk_cols=self.shard_cols,
            memory_budget=self.memory_budget,
            itemsize=self.dtype.itemsize,
            chunk_elems=self.chunk_elems,
        )
        with obs_trace.span(
            "engine.similarity",
            metric=metric,
            rows=n_source,
            cols=n_target,
            dtype=self.dtype.name,
        ) as span:
            kernel = prepare_metric(metric, source, target, chunk_elems=self.chunk_elems)
            out = np.empty((n_source, n_target), dtype=self.dtype)
            for shard in plan:
                with obs_trace.span(
                    "engine.chunk",
                    start=shard.rows.start,
                    stop=shard.rows.stop,
                    col_start=shard.cols.start,
                    col_stop=shard.cols.stop,
                ):
                    out[shard.rows, shard.cols] = kernel(shard.rows, shard.cols)
            span.count("chunks", len(plan))
        self._last_shards = len(plan)
        with self._lock:
            self.stats.computations += 1
        registry = obs_metrics.get_metrics()
        registry.inc("engine.computations")
        registry.inc("engine.chunks", len(plan))
        # Once per computed matrix (the cold path only), so the live
        # stream sees "score matrix ready" without touching the tile loop.
        obs_events.emit(
            "engine.scores_ready",
            metric=metric,
            rows=n_source,
            cols=n_target,
            dtype=self.dtype.name,
            chunks=len(plan),
        )
        return out

    def resource_info(self) -> dict[str, object]:
        """Shard count of the last computation (for ledgers)."""
        return {"shards": self._last_shards}

    # -- chunked entry points ------------------------------------------

    def top_k(
        self,
        source: np.ndarray,
        target: np.ndarray,
        k: int,
        metric: str = "cosine",
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Engine-scheduled :func:`~repro.similarity.chunked.chunked_top_k`.

        Candidate lists are not cached (they are k/n_target the size of S
        and cheap to regenerate); the engine contributes its dtype and
        chunk policy.
        """
        if chunk_size is None:
            n_target = np.asarray(target).shape[0]
            chunk_size = self.chunk_rows or rows_per_chunk(n_target, self.chunk_elems)
        return chunked_top_k(
            source, target, k, chunk_size=chunk_size, metric=metric, dtype=self.dtype
        )

    def top_k_candidates(
        self,
        source: np.ndarray,
        target: np.ndarray,
        k: int,
        metric: str = "cosine",
        chunk_size: int | None = None,
    ) -> "CandidateSet":
        """Exact top-``k`` candidate lists as a sparse ``CandidateSet``.

        The sparse matching path's front door.  A cached S for this
        (source, target, metric) problem is reused — deriving top-k from
        the cached matrix is O(n^2) selection, not O(n^2 d) computation,
        and counts as a cache hit — otherwise the streamed
        :meth:`top_k` kernel runs and no n x n array is ever allocated.
        The derived candidate lists themselves are not cached (k/n the
        size of S and cheap to regenerate).
        """
        from repro.index.candidates import CandidateSet  # index layers above similarity

        source = check_embedding_matrix(source, "source")
        target = check_embedding_matrix(target, "target")
        check_shape_compatible(source, target)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n_target = target.shape[0]
        k = min(k, n_target)
        if self.cache_enabled:
            key = self._cache_key(source, target, metric)
            with self._lock:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                    self.stats.hits += 1
            if entry is not None:
                obs_metrics.get_metrics().inc("engine.cache.hits")
                obs_trace.event("engine.topk.from_cache", metric=metric, k=k)
                indices = top_k_indices(entry.matrix, k, axis=1)
                scores = np.take_along_axis(entry.matrix, indices, axis=1)
                return CandidateSet.from_topk(
                    indices, scores.astype(np.float64), n_targets=n_target
                )
        with obs_trace.span(
            "engine.topk", metric=metric, rows=source.shape[0], cols=n_target, k=k
        ):
            indices, scores = self.top_k(
                source, target, k, metric=metric, chunk_size=chunk_size
            )
        return CandidateSet.from_topk(indices, scores, n_targets=n_target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimilarityEngine(dtype={self.dtype.name!r}, "
            f"cache={self.cache_enabled}, cache_size={self.cache_size})"
        )

