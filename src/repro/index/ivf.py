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

:meth:`IVFIndex.search` is one scan for both scoring kernels (BLAS or
pair-stable): lists probed by the same query rows are one block, and
every block merges into one :class:`~repro.index.candidates.TopK` under
the total order ``(-score, position asc)``.

The index is observable (``index.*`` spans and counters: queries,
scanned candidates, per-row shortfalls) and persistable to a
schema-versioned JSON document (:meth:`IVFIndex.save` /
:meth:`IVFIndex.load`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import DataIntegrityError
from repro.index.candidates import CandidateSet, TopK
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.similarity.metrics import prepare_metric, prepare_stable_metric
from repro.storage.durable import atomic_write, payload_checksum, verify_checksum
from repro.utils.kmeans import centroid_distances, kmeans_centroids, nearest_centroid
from repro.utils.parallel import row_chunks, rows_per_chunk
from repro.utils.validation import check_embedding_matrix

#: Elements (4 MiB of float64) a scan block may hold in its scores plus
#: merge pool, and again in a kernel intermediate.  At the shared 2**22 a
#: 256-query full-``nprobe`` scan of 10k vectors held ~90 MiB, not ~8.
SCAN_CHUNK_ELEMS = 2**19

#: Persistence format tag and version (bumped on breaking layout change).
IVF_FORMAT = "repro-ivf"
IVF_VERSION = 1


def _document_checksum(document: dict) -> str:
    """Digest of the index document's content (every key but ``checksum``)."""
    body = {key: value for key, value in document.items() if key != "checksum"}
    return payload_checksum(json.dumps(body, sort_keys=True).encode("utf-8"))


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
        self._vectors = None
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
        self._vectors = vectors
        self._assignments = assignments
        self._lists = [
            np.flatnonzero(assignments == c) for c in range(self.n_clusters)
        ]
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
        assigned it.  O(n_clusters · d) per call.  The payload arrays
        are rebound (never mutated in place), so clones sharing them
        (:meth:`clone`) are unaffected.
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
        self._vectors = np.concatenate([self._vectors, vector[None, :]])
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
        other._assignments = self._assignments
        other._lists = list(self._lists)
        other._alive = None if self._alive is None else self._alive.copy()
        return other

    # -- search --------------------------------------------------------

    def _probe_groups(
        self, probed: np.ndarray, exclude: np.ndarray | None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(querying rows, live members)`` per group of lists probed by
        exactly the same rows — one block each, so a full-``nprobe``
        search is one block, not ``n_clusters`` small ones."""
        scannable = self._alive if exclude is None else self._alive & ~exclude
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

        ``nprobe`` nearest inverted lists are scanned per query; every
        scanned candidate is scored with the index's true similarity
        metric, and the best ``k`` survive.  Rows whose probed lists
        hold fewer than ``k`` vectors return what was found (a
        *shortfall*, counted on ``index.search.shortfall``).

        Tombstoned positions are never scanned.  ``exclude`` is an
        optional length-``ntotal`` boolean mask of further positions to
        skip (the serving layer masks base copies of entities that have
        a newer delta version).  ``stable=True`` picks the *pair-stable*
        kernel (:func:`prepare_stable_metric`), bitwise-reproducible
        across batch sizes, probe sets and index rebuilds, as the serving
        equality contracts require.  The default BLAS kernel's floats may
        vary with the block shape, but it is about 6x faster (20k x 20k,
        dim 32, nprobe 8 of 141 lists: 0.55-0.77 s against 3.1-4.5 s on
        one CPU core), so offline candidate generation keeps it.
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
        prepare = prepare_stable_metric if stable else prepare_metric
        registry = obs_metrics.get_metrics()
        with obs_trace.span(
            "index.search", queries=n_queries, k=k, nprobe=nprobe
        ) as span:
            probed = np.full((n_queries, self.n_clusters), nprobe == self.n_clusters)
            if nprobe < self.n_clusters:
                distances = centroid_distances(queries, self._centroids, self._center)
                probe = np.argpartition(distances, nprobe - 1, axis=1)[:, :nprobe]
                probed[np.arange(n_queries)[:, None], probe] = True

            top = TopK(n_queries, min(k, self.ntotal))
            scanned = 0
            for rows, members in self._probe_groups(probed, exclude):
                vectors = self._vectors[members]
                kernel = prepare(self.metric, queries[rows], vectors, SCAN_CHUNK_ELEMS)
                # A row holds its scores and the merge pool's scores and ids.
                chunk_rows = rows_per_chunk(3 * (len(members) + top.k), SCAN_CHUNK_ELEMS)
                for chunk in row_chunks(len(rows), chunk_rows):
                    top.merge(rows[chunk], kernel(chunk), members)
                scanned += len(rows) * len(members)
            shortfall = int((top.found < k).sum())
            span.count("scanned", scanned)
            span.count("shortfall", shortfall)
        registry.inc("index.search.queries", n_queries)
        registry.inc("index.search.scanned", scanned)
        registry.inc("index.search.shortfall", shortfall)
        return top.candidates(self.ntotal)

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
            "center": self._center.tolist(),
            "centroids": self._centroids.tolist(),
            "vectors": self._vectors.tolist(),
            "assignments": self._assignments.tolist(),
        }
        # Only written when tombstones exist, so documents from indexes
        # that never saw a delete stay byte-identical to older writers.
        if self.n_tombstoned:
            document["tombstones"] = np.flatnonzero(~self._alive).tolist()
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
        Documents without a ``checksum`` key (pre-durability writers)
        load unverified, but their shapes are checked: assignments must
        cover every vector with a value in ``[0, n_clusters)`` (one out
        of range would drop its vector from every list), and centroids
        and center must share the vectors' dimension.
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
                f"unsupported {IVF_FORMAT} version {document.get('version')!r}; "
                f"this build reads version {IVF_VERSION}"
            )
        recorded = document.get("checksum")
        if recorded is not None:
            body = {key: value for key, value in document.items() if key != "checksum"}
            verify_checksum(
                path,
                recorded,
                json.dumps(body, sort_keys=True).encode("utf-8"),
                artifact="IVF index",
            )
        index = cls(
            n_clusters=int(document["n_clusters"]),
            metric=document["metric"],
            train_iterations=int(document["train_iterations"]),
        )
        index._centroids = np.asarray(document["centroids"], dtype=np.float64)
        index._center = np.asarray(document["center"], dtype=np.float64)
        index._vectors = np.asarray(document["vectors"], dtype=np.float64)
        index._assignments = np.asarray(document["assignments"], dtype=np.int64)
        assignments = index._assignments
        n, dim = len(index._vectors), index._vectors.shape[-1]
        if index._vectors.ndim != 2 or assignments.shape != (n,):
            raise DataIntegrityError(f"{path}: {assignments.size} assignments for {n} vectors")
        if n and not 0 <= assignments.min() <= assignments.max() < index.n_clusters:
            raise DataIntegrityError(f"{path}: assignment outside [0, {index.n_clusters})")
        if index._centroids.shape != (index.n_clusters, dim) or index._center.shape != (dim,):
            raise DataIntegrityError(
                f"{path}: centroids {index._centroids.shape} or center "
                f"{index._center.shape} do not match {dim}-dim vectors"
            )
        index._lists = [
            np.flatnonzero(index._assignments == c) for c in range(index.n_clusters)
        ]
        index._alive = np.ones(index.ntotal, dtype=bool)
        tombstones = document.get("tombstones")
        if tombstones:
            positions = np.asarray(tombstones, dtype=np.int64)
            if positions.min() < 0 or positions.max() >= index.ntotal:
                raise DataIntegrityError(
                    f"{path}: tombstone positions out of range for "
                    f"{index.ntotal} indexed vectors"
                )
            index._alive[positions] = False
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IVFIndex(n_clusters={self.n_clusters}, metric={self.metric!r}, "
            f"ntotal={self.ntotal})"
        )
