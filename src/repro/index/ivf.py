"""IVF-style approximate-nearest-neighbour candidate index (numpy-only).

The scalable candidate-generation design both benchmarking surveys rely
on: a coarse quantizer (the deterministic mini k-means shared with
embedding-space blocking, :mod:`repro.utils.kmeans`) partitions the
target vectors into inverted lists; a query scores only the vectors in
its ``nprobe`` nearest lists, with the *true* similarity metric — so the
approximation is entirely in which candidates are scanned, never in how
a scanned candidate is scored ("exact rescoring").  ``nprobe ==
n_clusters`` scans everything and recovers exact brute-force top-k, the
property the recall test suite pins.

Work per query is O(n_clusters d + scanned d); with balanced lists and
``nprobe`` fixed, the scanned set is ``~ nprobe / n_clusters`` of the
targets — the knob that trades recall for speed.

:meth:`IVFIndex.search` is one scan for every kernel (BLAS or
pair-stable): lists probed by the same query rows are one block, each
block keeps only the pairs at or above a per-row floor, and the
survivors are selected once into a
:class:`~repro.index.candidates.TopK` under the total order ``(-score,
position asc)``.  Pair-stable cosine runs that scan in rescore mode:
BLAS scores the block, every floor is lowered by a proven rounding
margin, and only the survivors are rescored pair-stably.

The index is observable (``index.*`` spans and counters: queries,
scanned candidates, per-row shortfalls) and persistable to a
schema-versioned, checksummed JSON document whose arrays are base64
little-endian bytes (:meth:`IVFIndex.save` / :meth:`IVFIndex.load`).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import DataIntegrityError
from repro.index.candidates import CandidateSet, TopK
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.similarity.metrics import (
    BlockKernel,
    normalize_each_row,
    normalize_rows,
    pair_dots,
    prepare_metric,
    prepare_stable_metric,
)
from repro.storage.durable import atomic_write, payload_checksum, verify_checksum
from repro.utils.kmeans import (
    cluster_members,
    distance_chunks,
    kmeans_centroids,
    nearest_centroid,
)
from repro.utils.parallel import row_chunks, rows_per_chunk
from repro.utils.validation import check_embedding_matrix

#: Elements (4 MiB of float64) a scan block may hold in its scores plus
#: merge pool, and again in a kernel intermediate.  At the shared 2**22 a
#: 256-query full-``nprobe`` scan of 10k vectors held ~90 MiB, not ~8.
SCAN_CHUNK_ELEMS = 2**19

#: Persistence format tag and version (bumped on breaking layout change).
IVF_FORMAT = "repro-ivf"
IVF_VERSION = 2

#: The dtypes the document's arrays are stored in: fixed here, never
#: read from the document.
_FLOAT = np.dtype("<f8")
_INT = np.dtype("<i8")


def _canonical_body(document: dict) -> bytes:
    """The bytes the checksum covers: every key but ``checksum``, as
    sorted-key JSON."""
    body = {key: value for key, value in document.items() if key != "checksum"}
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _document_checksum(document: dict) -> str:
    """Digest of the index document's content (every key but ``checksum``)."""
    return payload_checksum(_canonical_body(document))


def _encode(array: np.ndarray, dtype: np.dtype) -> dict:
    """An array as ``{"shape": [...], "data": "<base64 of its bytes>"}``."""
    array = np.ascontiguousarray(array, dtype=dtype)
    return {
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode(path: Path, document: dict, key: str, dtype: np.dtype, ndim: int) -> np.ndarray:
    """The read-only ``ndim``-dim array :func:`_encode` wrote under
    ``document[key]``; a malformed field (not base64, a shape the byte
    count disagrees with) is a :class:`~repro.errors.DataIntegrityError`."""
    try:
        field = document[key]
        raw = base64.b64decode(field["data"], validate=True)
        array = np.frombuffer(raw, dtype=dtype).reshape(field["shape"])
        if array.ndim != ndim or list(array.shape) != field["shape"]:
            raise ValueError(f"shape {field['shape']} is not a {ndim}-dim shape")
    except (KeyError, TypeError, ValueError) as error:
        raise DataIntegrityError(
            f"{path}: IVF index field {key!r} is malformed ({error})"
        ) from error
    return array


def _nearest_lists(distances: np.ndarray, nprobe: int, out: np.ndarray) -> None:
    """Mark in ``out`` each row's ``nprobe`` smallest ``distances``,
    ordered by ``(distance, column)``: of the columns tied at the cut,
    the lowest are taken."""
    kth = np.partition(distances, nprobe - 1, axis=1)[:, nprobe - 1, None]
    np.less_equal(distances, kth, out=out)
    tied = np.flatnonzero(np.count_nonzero(out, axis=1) > nprobe)
    if len(tied):
        below = distances[tied] < kth[tied]
        at = distances[tied] == kth[tied]
        room = nprobe - np.count_nonzero(below, axis=1)
        out[tied] = below | (at & (np.cumsum(at, axis=1) <= room[:, None]))


#: The id of an unfilled slot: after every real id under ``(-score, id asc)``.
_NO_ID = np.iinfo(np.int64).max


def _concatenate(
    held: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Survivor pieces ``(rows, ids, scores)`` as one triple of arrays."""
    if not held:
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), np.empty(0))
    if len(held) == 1:
        return held[0]
    return tuple(np.concatenate(part) for part in zip(*held))


def _select(top: TopK, rows: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> None:
    """Merge survivors into ``top``: ``scores[p]`` is the score of
    ``ids[p]`` for row ``rows[p]``.

    Rows are grouped by survivor count, rounded up to a power of two and
    padded with unfilled (``-inf``, largest id) slots, so a row with a
    thousand survivors widens only its own group; each group merges in
    pieces of at most ``SCAN_CHUNK_ELEMS`` elements.  The merge is
    exact under ``(-score, id asc)``, so the result does not depend on
    the grouping, nor on how many selections the survivors were split
    over.
    """
    # Any order within a row will do: the merge is exact.
    order = np.argsort(rows)
    counts = np.bincount(rows, minlength=len(top.found))
    starts = np.cumsum(counts) - counts
    widths = np.left_shift(1, np.frexp(counts - 1)[1])
    widths[counts == 0] = 0
    # A set, not np.unique: that would load numpy.ma on the serving path.
    for width in sorted(set(widths.tolist()) - {0}):
        group = np.flatnonzero(widths == width)
        pieces = row_chunks(len(group), rows_per_chunk(3 * (width + top.k), SCAN_CHUNK_ELEMS))
        for piece in pieces:
            part = group[piece]
            filled = np.arange(width) < counts[part, None]
            slots = order[np.where(filled, starts[part, None] + np.arange(width), 0)]
            top.merge(
                part,
                np.where(filled, scores[slots], -np.inf),
                np.where(filled, ids[slots], _NO_ID),
                found=0,
            )


class _Spare:
    """Owning buffers behind an index's ``_vectors`` and ``_unit`` views,
    with room to append into.  Clones share it; rows past a view's end
    are written only while no other clone claimed them (``filled``
    equals the view's length), so a view never changes."""

    def __init__(self, rows: int, vectors: np.ndarray, unit: np.ndarray | None) -> None:
        n = len(vectors)
        self.vectors = np.empty((rows, vectors.shape[1]))
        self.vectors[:n] = vectors
        self.unit = None
        if unit is not None:
            self.unit = np.empty((rows, unit.shape[1]))
            self.unit[:n] = unit
        self.filled = n


class IVFIndex:
    """Inverted-file candidate index over target embeddings.

    Lifecycle: :meth:`train` fits the coarse quantizer, :meth:`add`
    assigns vectors to inverted lists, :meth:`search` returns each
    query's exact-rescored top-k candidates as a
    :class:`~repro.index.candidates.CandidateSet`.
    """

    def __init__(
        self,
        n_clusters: int = 16,
        metric: str = "cosine",
        train_iterations: int = 8,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if train_iterations < 1:
            raise ValueError(f"train_iterations must be >= 1, got {train_iterations}")
        self.n_clusters = n_clusters
        self.metric = metric
        self.train_iterations = train_iterations
        self._centroids: np.ndarray | None = None
        self._center: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        #: Cosine only: the vectors scaled to unit norm, computed once
        #: (row-wise, so bitwise what a gathered block would compute).
        self._unit: np.ndarray | None = None
        self._spare: _Spare | None = None
        self._assignments: np.ndarray | None = None
        self._lists: list[np.ndarray] = []
        #: Liveness per indexed position; False = tombstoned (skipped by
        #: search, kept in the lists until a re-cluster compacts them out).
        self._alive: np.ndarray | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def ntotal(self) -> int:
        """Number of indexed positions (tombstoned ones included)."""
        return 0 if self._vectors is None else self._vectors.shape[0]

    @property
    def n_alive(self) -> int:
        """Number of live (non-tombstoned) vectors."""
        return 0 if self._alive is None else int(self._alive.sum())

    @property
    def n_tombstoned(self) -> int:
        """Number of tombstoned positions awaiting compaction."""
        return self.ntotal - self.n_alive

    @property
    def dim(self) -> int | None:
        return None if self._centroids is None else self._centroids.shape[1]

    @property
    def alive_mask(self) -> np.ndarray:
        """Read-only liveness mask over indexed positions (do not mutate)."""
        if self._alive is None:
            return np.empty(0, dtype=bool)
        return self._alive

    def _set_vectors(self, vectors: np.ndarray | None) -> None:
        self._vectors = vectors
        self._unit = None
        self._spare = None
        if vectors is not None and vectors.ndim == 2 and self.metric == "cosine":
            # C order: a Fortran-ordered matrix reduces its norms in
            # another summation order than the gathered blocks did.
            self._unit = normalize_rows(np.ascontiguousarray(vectors))

    def reconstruct(self, positions: np.ndarray) -> np.ndarray:
        """The stored vectors at ``positions`` (a view; do not mutate)."""
        if self._vectors is None:
            raise RuntimeError("IVFIndex.reconstruct called before add()")
        return self._vectors[np.asarray(positions, dtype=np.int64)]

    def train(self, vectors: np.ndarray) -> "IVFIndex":
        """Fit the coarse quantizer on ``vectors`` (O(n d k), no n^2).

        With an event sink installed, every assignment round emits
        ``index.train.round`` (round number, points that changed
        cluster), so a multi-minute build at 100k+ vectors is no longer
        silent.  The hook never changes the fit.
        """
        vectors = check_embedding_matrix(vectors, "vectors")
        k = min(self.n_clusters, vectors.shape[0])
        obs_events.emit(
            "index.train.start",
            n=vectors.shape[0],
            clusters=k,
            iterations=self.train_iterations,
        )
        on_round = None
        if obs_events.enabled():
            iterations = self.train_iterations

            def on_round(round_index: int, moved: int) -> None:
                obs_events.emit(
                    "index.train.round",
                    round=round_index,
                    of=iterations,
                    moved=moved,
                )

        with obs_trace.span("index.train", n=vectors.shape[0], clusters=k):
            self._centroids, self._center = kmeans_centroids(
                vectors, k, iterations=self.train_iterations, on_round=on_round
            )
        self.n_clusters = k
        self._set_vectors(None)
        self._assignments = None
        self._lists = []
        self._alive = None
        obs_events.emit("index.train.finish", clusters=k)
        return self

    def add(self, vectors: np.ndarray) -> "IVFIndex":
        """Assign ``vectors`` to inverted lists (replaces prior contents)."""
        if not self.is_trained:
            raise RuntimeError("IVFIndex.add called before train()")
        vectors = check_embedding_matrix(vectors, "vectors")
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vector dim {vectors.shape[1]} does not match the trained "
                f"quantizer dim {self.dim}"
            )
        with obs_trace.span("index.add", n=vectors.shape[0]):
            assignments = nearest_centroid(vectors, self._centroids, self._center)
        self._set_vectors(vectors)
        self._assignments = assignments
        self._lists = cluster_members(assignments, self.n_clusters)
        self._alive = np.ones(vectors.shape[0], dtype=bool)
        if obs_events.enabled():
            sizes = np.array([len(lst) for lst in self._lists])
            obs_events.emit(
                "index.lists_filled",
                n=vectors.shape[0],
                lists=len(self._lists),
                min=int(sizes.min()),
                mean=float(sizes.mean()),
                max=int(sizes.max()),
                empty=int((sizes == 0).sum()),
            )
        return self

    # -- incremental updates -------------------------------------------

    def append_to_list(self, vector: np.ndarray) -> int:
        """Assign one new vector to its nearest inverted list; return its position.

        The incremental-insert primitive: no retraining, no rebuild —
        the coarse quantizer stays fixed and the vector joins the list
        whose centroid is nearest, exactly as :meth:`add` would have
        assigned it.  O(n_clusters · d) per call, plus a copy of the
        vectors when their buffers run out of spare room (1/8 of the
        rows).  The payload arrays are rebound, and a new row is only
        written past the end of every view a clone holds
        (:class:`_Spare`), so clones sharing them (:meth:`clone`) are
        unaffected.
        """
        if self._vectors is None:
            raise RuntimeError("IVFIndex.append_to_list called before add()")
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"vector dim {vector.shape[0]} does not match the trained "
                f"quantizer dim {self.dim}"
            )
        check_embedding_matrix(vector[None, :], "vector")
        cluster = int(
            nearest_centroid(vector[None, :], self._centroids, self._center)[0]
        )
        position = self.ntotal
        spare = self._spare
        if spare is None or spare.filled != position or position == len(spare.vectors):
            # Move to buffers with 1/8 spare room: later appends write
            # into it instead of copying every row again.
            spare = _Spare(position + 1 + position // 8, self._vectors, self._unit)
            self._spare = spare
        spare.vectors[position] = vector
        if spare.unit is not None:
            spare.unit[position] = normalize_rows(vector[None, :])[0]
        spare.filled = position + 1
        self._vectors = spare.vectors[: position + 1]
        self._unit = None if spare.unit is None else spare.unit[: position + 1]
        self._assignments = np.concatenate(
            [self._assignments, np.array([cluster], dtype=np.int64)]
        )
        self._lists[cluster] = np.concatenate(
            [self._lists[cluster], np.array([position], dtype=np.int64)]
        )
        self._alive = np.concatenate([self._alive, np.array([True])])
        obs_events.emit("index.append", position=position, cluster=cluster)
        return position

    def tombstone(self, position: int) -> None:
        """Mark an indexed position dead: search skips it from now on.

        The incremental-delete primitive.  The vector stays in its
        inverted list (O(1) delete); a later re-cluster compaction
        reclaims the space.  Tombstoning an already-dead position is a
        no-op.
        """
        if self._vectors is None:
            raise RuntimeError("IVFIndex.tombstone called before add()")
        if not 0 <= position < self.ntotal:
            raise ValueError(
                f"position {position} out of range for {self.ntotal} indexed vectors"
            )
        if self._alive[position]:
            self._alive[position] = False
            obs_events.emit("index.tombstone", position=position)

    def clone(self) -> "IVFIndex":
        """Copy-on-write clone for off-to-the-side compaction.

        The clone shares the (immutable-by-convention) payload arrays —
        centroids, vectors, assignments, list members — and copies only
        the outer list container and the liveness mask, so cloning is
        O(n_clusters + ntotal/8) regardless of payload size.  Mutating
        primitives (:meth:`append_to_list`, :meth:`tombstone`) rebind or
        write only clone-owned arrays, leaving the original serving
        queries untouched — the serving layer's old-or-new (never torn)
        swap relies on this.
        """
        other = IVFIndex(
            n_clusters=self.n_clusters,
            metric=self.metric,
            train_iterations=self.train_iterations,
        )
        other._centroids = self._centroids
        other._center = self._center
        other._vectors = self._vectors
        other._unit = self._unit
        other._spare = self._spare
        other._assignments = self._assignments
        other._lists = list(self._lists)
        other._alive = None if self._alive is None else self._alive.copy()
        return other

    # -- search --------------------------------------------------------

    def _probe_groups(
        self, probed: np.ndarray, scannable: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(querying rows, live members)`` per group of lists probed by
        exactly the same rows — one block each, so a full-``nprobe``
        search is one block, not ``n_clusters`` small ones."""
        groups: dict[bytes, list[np.ndarray]] = {}
        for cluster in np.flatnonzero(probed.any(axis=0)):
            members = self._lists[cluster][scannable[self._lists[cluster]]]
            if len(members):
                groups.setdefault(probed[:, cluster].tobytes(), []).append(members)
        return [
            (np.flatnonzero(np.frombuffer(column, dtype=bool)), np.concatenate(lists))
            for column, lists in groups.items()
        ]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        exclude: np.ndarray | None = None,
        stable: bool = False,
    ) -> CandidateSet:
        """Top-``k`` exact-rescored candidates per query row.

        Each query scans its ``nprobe`` nearest inverted lists: the lists
        with the smallest centroid distances, ties broken by the lower
        cluster id, so the probe set is the same on every numpy build.
        Every scanned candidate is scored with the index's true
        similarity metric, and the best ``k`` survive under the order
        ``(-score, id asc)``.  Rows whose probed lists hold fewer than
        ``k`` vectors return what was found (a *shortfall*, counted on
        ``index.search.shortfall``).

        Tombstoned positions are never scanned.  ``exclude`` is an
        optional length-``ntotal`` boolean mask of further positions to
        skip (the serving layer masks base copies of entities that have
        a newer delta version).

        Every kernel runs one scan (:meth:`_threshold_scan`): it keeps
        only the pairs at or above a per-row floor and selects once at
        the end.  ``stable=True`` returns the *pair-stable* scores
        (:func:`prepare_stable_metric`), bitwise-reproducible across
        batch sizes, probe sets and index rebuilds, as the serving
        equality contracts require.  For cosine the scan runs in rescore
        mode: BLAS scores every probed pair, and only the pairs rounding
        could still place in the top ``k`` are rescored pair-stably.
        The default BLAS kernel's floats may vary with the block shape,
        but offline candidate generation keeps it, as the fastest.

        The work is traced as three stages under ``index.search``:
        ``index.probe`` (centroid distances and probe sets),
        ``index.scan`` (list scoring) and ``index.select`` (top-``k``
        selection and CSR assembly).
        """
        if self._vectors is None:
            raise RuntimeError("IVFIndex.search called before add()")
        queries = check_embedding_matrix(queries, "queries")
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} does not match the trained "
                f"quantizer dim {self.dim}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.n_clusters)
        n_queries = queries.shape[0]
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=bool)
            if exclude.shape != (self.ntotal,):
                raise ValueError(
                    f"exclude mask must have shape ({self.ntotal},), "
                    f"got {exclude.shape}"
                )
        scannable = self._alive if exclude is None else self._alive & ~exclude
        registry = obs_metrics.get_metrics()
        with obs_trace.span(
            "index.search", queries=n_queries, k=k, nprobe=nprobe
        ) as span:
            top = TopK(n_queries, min(k, self.ntotal))
            with obs_trace.span("index.probe"):
                probed, nearest = self._probe(queries, nprobe)
            with obs_trace.span("index.scan"):
                scanned, rescored, survivors = self._threshold_scan(
                    top, queries, probed, nearest, scannable, stable
                )
            with obs_trace.span("index.select"):
                _select(top, *survivors)
                candidates = top.candidates(self.ntotal)
            shortfall = int((top.found < k).sum())
            span.count("scanned", scanned)
            span.count("rescored", rescored)
            span.count("shortfall", shortfall)
        registry.inc("index.search.queries", n_queries)
        registry.inc("index.search.scanned", scanned)
        registry.inc("index.search.rescored", rescored)
        registry.inc("index.search.shortfall", shortfall)
        return candidates

    def _probe(
        self, queries: np.ndarray, nprobe: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(probed, nearest)``: the ``(n_queries, n_clusters)`` mask of
        the lists each query scans, and each query's nearest list (the
        first of its probe order).  At full ``nprobe`` the mask needs no
        distances and ``nearest`` is ``None``: the probe is one block,
        whose own k-th score is each row's tightest floor."""
        full = nprobe == self.n_clusters
        probed = np.full((len(queries), self.n_clusters), full)
        if full:
            return probed, None
        nearest = np.empty(len(queries), dtype=np.intp)
        for rows, distances in distance_chunks(queries - self._center, self._centroids):
            nearest[rows] = distances.argmin(axis=1)
            _nearest_lists(distances, nprobe, out=probed[rows])
        return probed, nearest

    def _threshold_scan(
        self,
        top: TopK,
        queries: np.ndarray,
        probed: np.ndarray,
        nearest: np.ndarray | None,
        scannable: np.ndarray,
        stable: bool,
    ) -> tuple[int, int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The scan: score each probe block, keep only the pairs at or
        above the row's floor.

        The floor (:meth:`_floors`) is at most the row's final k-th
        score, so the survivors hold the top ``k``; on offline shapes
        they are about 4% of the scanned pairs.  A row without one takes
        the k-th score of the first block it meets with ``k`` live
        members or more.  When the held survivors pass
        ``SCAN_CHUNK_ELEMS`` elements they are selected into ``top``
        early, and each full row's k-th score there raises its floor, so
        they stay bounded with no floor at all.

        Pair-stable cosine runs in *rescore* mode: BLAS scores the block
        as a prefilter, each survivor is rescored with :func:`pair_dots`
        before it is held, and both later floors are lowered by the same
        margin as the nearest-list one (elsewhere they are exact in the
        scan's own floats).  A probe of every position is then scored in
        place under the liveness mask, not gathered.
        Returns ``(scanned, rescored, survivors)``, the survivors not yet
        selected as ``(rows, ids, scores)``.
        """
        rescore = stable and self._unit is not None
        if self._unit is not None:
            # Cosine reads the stored unit rows and normalises the
            # queries once, row-wise: bitwise the BLAS kernel's, or the
            # pair-stable kernel's in rescore mode.
            if rescore:
                source = normalize_each_row(queries)
            else:
                source = normalize_rows(np.ascontiguousarray(queries))

            def kernel(rows: np.ndarray, members: np.ndarray | None) -> BlockKernel:
                block_source = source[rows]
                target_t = (self._unit if members is None else self._unit[members]).T
                return lambda chunk: block_source[chunk] @ target_t

            # Any two of the BLAS, pair-stable and exact dot products of
            # the same unit rows are within 2 * gamma_d <= ~d * eps
            # (Higham, *Accuracy and Stability of Numerical Algorithms*,
            # §3.1); the margin is twice that.
            margin = 4 * self.dim * np.finfo(np.float64).eps
        else:
            prepare = prepare_stable_metric if stable else prepare_metric

            def kernel(rows: np.ndarray, members: np.ndarray) -> BlockKernel:
                return prepare(
                    self.metric, queries[rows], self._vectors[members], SCAN_CHUNK_ELEMS
                )

            # A pair-stable score does not depend on the block; no bound
            # is derived for the expanded euclidean BLAS form.
            margin = 0.0 if stable or self.metric == "manhattan" else None
        slack = margin if rescore else 0.0
        if rescore and probed.all():
            blocks = [(np.arange(len(queries)), None)]
        else:
            blocks = self._probe_groups(probed, scannable)
        if len(blocks) > 1 and margin is not None:
            floor = self._floors(kernel, nearest, scannable, top.k, margin)
        else:
            # One block: each row's own k-th in it is the tightest floor.
            floor = np.full(len(queries), -np.inf)
        held: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        n_held = scanned = rescored = 0
        for rows, members in blocks:
            block = kernel(rows, members)
            if members is None:
                # Every position, scored in place; the dead are masked.
                dead = np.flatnonzero(~scannable)
                members = np.arange(self.ntotal)
                n_live = self.ntotal - len(dead)
            else:
                dead, n_live = None, len(members)
            # Rows sized for their scores plus a k-wide merge pool, three
            # arrays: the tile shapes the candidate sets' bits are pinned
            # under, as BLAS may round differently in another shape.
            chunk_rows = rows_per_chunk(3 * (len(members) + top.k), SCAN_CHUNK_ELEMS)
            for chunk in row_chunks(len(rows), chunk_rows):
                block_rows = rows[chunk]
                scores = block(chunk)
                if dead is not None:
                    scores[:, dead] = -np.inf
                row_floor = floor[block_rows]
                unset = np.flatnonzero(row_floor == -np.inf)
                if len(unset) and n_live >= top.k:
                    cut = len(members) - top.k
                    kth = scores[unset]
                    kth.partition(cut, axis=1)
                    row_floor[unset] = kth[:, cut] - slack
                    floor[block_rows[unset]] = row_floor[unset]
                keep = scores >= row_floor[:, None]
                if dead is not None:
                    keep[:, dead] = False  # under k live members, -inf passes
                kept = np.flatnonzero(keep)
                pair_rows, columns = np.divmod(kept, len(members))
                pair_rows, ids = block_rows[pair_rows], members[columns]
                if rescore:
                    held.append((pair_rows, ids, pair_dots(self._unit[ids], source[pair_rows])))
                    rescored += len(ids)
                else:
                    held.append((pair_rows, ids, scores.ravel()[kept]))
                n_held += len(kept)
                # Three elements a survivor: a row, an id and a score.
                if 3 * n_held > SCAN_CHUNK_ELEMS:
                    survivors = _concatenate(held)
                    held, n_held = [], 0
                    _select(top, *survivors)
                    np.maximum(floor, top.scores.min(axis=1) - slack, out=floor)
            top.found[rows] += n_live
            scanned += len(rows) * n_live
        if stable and not rescore:
            rescored = scanned
        return scanned, rescored, _concatenate(held)

    def _floors(
        self,
        kernel: Callable[[np.ndarray, np.ndarray], BlockKernel],
        nearest: np.ndarray,
        scannable: np.ndarray,
        k: int,
        margin: float,
    ) -> np.ndarray:
        """Per query row, a score no final top-``k`` member falls below.

        It is the ``k``-th best score over the scannable members of the
        row's nearest list, which the row always scans, less ``margin``,
        the most the scan's block kernel can round that list's scores
        away from this one's.  A dead or excluded member never sets it.
        A row whose nearest list holds fewer than ``k`` such members
        gets ``-inf``.  Only the lists some row is nearest to are
        scored.
        """
        floor = np.full(len(nearest), -np.inf)
        # Rows grouped by nearest list, ascending within a list.
        order = np.argsort(nearest, kind="stable")
        counts = np.bincount(nearest, minlength=self.n_clusters)
        ends = np.cumsum(counts)
        for cluster in np.flatnonzero(counts):
            members = self._lists[cluster][scannable[self._lists[cluster]]]
            if len(members) < k:
                continue
            rows = order[ends[cluster] - counts[cluster] : ends[cluster]]
            block = kernel(rows, members)
            cut = len(members) - k
            for chunk in row_chunks(len(rows), rows_per_chunk(2 * len(members), SCAN_CHUNK_ELEMS)):
                kth = np.partition(block(chunk), cut, axis=1)[:, cut]
                floor[rows[chunk]] = kth - margin
        return floor

    def stable_scores(self, queries: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Pair-stable scores of each query row against the vectors at
        ``positions`` — the values :meth:`search` reports with
        ``stable=True`` (cosine reads the stored unit rows)."""
        if self._unit is None:
            kernel = prepare_stable_metric(self.metric, queries, self.reconstruct(positions))
            return kernel(slice(None))
        return pair_dots(
            self._unit[positions][None, :, :], normalize_each_row(queries)[:, None, :]
        )

    # -- reporting -----------------------------------------------------

    def live_list_sizes(self) -> np.ndarray:
        """Live (non-tombstoned) member count per inverted list."""
        return np.array(
            [
                int(self._alive[members].sum()) if len(members) else 0
                for members in self._lists
            ],
            dtype=np.int64,
        )

    def stats(self) -> dict[str, object]:
        """Structure snapshot: list-size balance and configuration.

        Sizes count *live* members only, so the balance report reflects
        what search actually scans.  Every ratio is guarded: degenerate
        shapes (untrained index, zero lists, all lists empty, everything
        tombstoned) report zeros instead of dividing by them.
        """
        sizes = self.live_list_sizes()
        populated = sizes[sizes > 0]
        populated_mean = float(populated.mean()) if len(populated) else 0.0
        return {
            "metric": self.metric,
            "n_clusters": self.n_clusters,
            "ntotal": self.ntotal,
            "alive": self.n_alive,
            "tombstones": self.n_tombstoned,
            "dim": self.dim,
            "trained": self.is_trained,
            "list_min": int(sizes.min()) if len(sizes) else 0,
            "list_mean": float(sizes.mean()) if len(sizes) else 0.0,
            "list_max": int(sizes.max()) if len(sizes) else 0,
            "empty_lists": int((sizes == 0).sum()) if len(sizes) else 0,
            "imbalance": (
                float(sizes.max() / populated_mean) if populated_mean > 0.0 else 0.0
            ),
        }

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the trained index (quantizer + vectors + lists) as JSON.

        Arrays are stored as base64 bytes (:func:`_encode`); the vectors
        are only the indexed rows, never an append buffer's spare room.
        The document lands through the atomic temp-file + rename
        protocol and carries a blake2b ``checksum`` over its own content
        (the canonical JSON of every key except ``checksum``), so a torn
        write never leaves a half-index and silent corruption is caught
        at :meth:`load`.
        """
        if self._vectors is None:
            raise RuntimeError("IVFIndex.save called before train()/add()")
        document = {
            "format": IVF_FORMAT,
            "version": IVF_VERSION,
            "metric": self.metric,
            "n_clusters": self.n_clusters,
            "train_iterations": self.train_iterations,
            "center": _encode(self._center, _FLOAT),
            "centroids": _encode(self._centroids, _FLOAT),
            "vectors": _encode(self._vectors, _FLOAT),
            "assignments": _encode(self._assignments, _INT),
        }
        # Only written when tombstones exist.
        if self.n_tombstoned:
            document["tombstones"] = _encode(np.flatnonzero(~self._alive), _INT)
        document["checksum"] = _document_checksum(document)
        path = Path(path)
        atomic_write(path, json.dumps(document) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "IVFIndex":
        """Reload an index written by :meth:`save`.

        Validation order: JSON well-formedness, format tag, version,
        then content checksum — version mismatches are reported as such
        even though an edited version field also invalidates the digest.
        The checksum is mandatory.  Shapes are checked even so, against
        a writer bug: assignments must cover every vector with a value
        in ``[0, n_clusters)`` (one out of range would drop its vector
        from every list), and centroids and center must share the
        vectors' dimension.
        """
        path = Path(path)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise DataIntegrityError(
                f"{path}: IVF index document is not valid JSON ({error}); "
                f"the file is truncated or corrupt"
            ) from error
        if not isinstance(document, dict) or document.get("format") != IVF_FORMAT:
            raise ValueError(
                f"{path} is not a {IVF_FORMAT} document "
                f"(format={document.get('format') if isinstance(document, dict) else None!r})"
            )
        if document.get("version") != IVF_VERSION:
            raise ValueError(
                f"{path}: unsupported {IVF_FORMAT} version {document.get('version')!r}; "
                f"this build reads version {IVF_VERSION} only: rebuild the index "
                f"with `python -m repro index build`"
            )
        recorded = document.get("checksum")
        if recorded is None:
            raise DataIntegrityError(f"{path}: IVF index document records no checksum")
        verify_checksum(path, recorded, _canonical_body(document), artifact="IVF index")
        index = cls(
            n_clusters=int(document["n_clusters"]),
            metric=document["metric"],
            train_iterations=int(document["train_iterations"]),
        )
        index._centroids = _decode(path, document, "centroids", _FLOAT, 2)
        index._center = _decode(path, document, "center", _FLOAT, 1)
        index._set_vectors(_decode(path, document, "vectors", _FLOAT, 2))
        index._assignments = assignments = _decode(path, document, "assignments", _INT, 1)
        n, dim = index._vectors.shape
        if assignments.shape != (n,):
            raise DataIntegrityError(f"{path}: {assignments.size} assignments for {n} vectors")
        if n and not 0 <= assignments.min() <= assignments.max() < index.n_clusters:
            raise DataIntegrityError(f"{path}: assignment outside [0, {index.n_clusters})")
        if index._centroids.shape != (index.n_clusters, dim) or index._center.shape != (dim,):
            raise DataIntegrityError(
                f"{path}: centroids {index._centroids.shape} or center "
                f"{index._center.shape} do not match {dim}-dim vectors"
            )
        index._lists = cluster_members(assignments, index.n_clusters)
        index._alive = np.ones(n, dtype=bool)
        if "tombstones" in document:
            positions = _decode(path, document, "tombstones", _INT, 1)
            if len(positions) and (positions.min() < 0 or positions.max() >= n):
                raise DataIntegrityError(
                    f"{path}: tombstone positions out of range for {n} indexed vectors"
                )
            index._alive[positions] = False
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IVFIndex(n_clusters={self.n_clusters}, metric={self.metric!r}, "
            f"ntotal={self.ntotal})"
        )
