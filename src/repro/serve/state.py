"""Serving state: store + IVF index behind an immutable-snapshot delta layer.

The contract this module exists to keep (DESIGN.md §12): at full
``nprobe``, a query against the live state returns *exactly* the top-k a
cold :class:`~repro.index.ivf.IVFIndex` rebuilt over the surviving
vectors would return — after any sequence of inserts, deletes, and
compactions.  Three ingredients make that bitwise-provable:

1. **Pair-stable scoring.**  Every path scores a (query, vector) pair
   with the pair-stable formula of
   :func:`~repro.similarity.metrics.prepare_stable_metric`, whose value
   depends on that pair alone — never on batch shape or which other
   vectors share the scan.  (The BLAS kernels do not have this
   property; the cosine index scan uses BLAS only to pick which pairs
   to rescore, see :meth:`IVFIndex.search`.)  The delta merge reads
   the index's stored unit rows (:meth:`IVFIndex.stable_scores`).
2. **A total tie order.**  One selection,
   :class:`~repro.index.candidates.TopK`, serves the inverted-list scan
   and the delta merge, and it breaks score ties by ascending index
   position.  Top-k of a union of blocks under a total order equals the
   global top-k, so merging the delta into the index part loses nothing.
3. **Order-preserving compaction.**  Re-clustering renumbers positions
   but preserves their relative order, so the tie order (and therefore
   every result) is unchanged.

Concurrency: all reads go through one immutable :class:`_Snapshot`
grabbed once per query (a single attribute load — atomic in CPython);
writers build a *new* snapshot off to the side (the index is cloned
copy-on-write) and publish it with one reference assignment under a
writer lock.  A query that started before a write completes sees the old
snapshot in full; one that starts after sees the new one in full; no
query ever sees a torn blend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.index.candidates import TopK
from repro.index.ivf import IVFIndex
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve import context as serve_context
from repro.storage.memmap import EmbeddingStore


@dataclass(frozen=True)
class _Snapshot:
    """One immutable, internally-consistent view of the serving state.

    ``index`` holds base *and* delta vectors (inserts are appended to
    their nearest inverted list immediately); ``delta_mask`` marks the
    positions still in the delta layer — the index scan excludes them
    and the brute-force delta scan covers them, so fresh inserts are
    visible at any ``nprobe`` and nothing is scanned twice.
    """

    index: IVFIndex
    #: position -> entity id (grows with appends; rebuilt at compaction).
    pos_ids: np.ndarray
    #: entity id -> live position (dead ids absent).
    id_pos: dict[int, int]
    #: positions currently in the delta layer (excluded from IVF scan).
    delta_positions: np.ndarray
    #: monotone state version: bumped by every published mutation.
    version: int
    #: how many re-cluster compactions have run.
    compactions: int

    @property
    def delta_mask(self) -> np.ndarray | None:
        if len(self.delta_positions) == 0:
            return None
        mask = np.zeros(self.index.ntotal, dtype=bool)
        mask[self.delta_positions] = True
        return mask

    @property
    def live_delta_positions(self) -> np.ndarray:
        """Delta positions that have not been tombstoned since insert."""
        if len(self.delta_positions) == 0:
            return self.delta_positions
        alive = self.index.alive_mask
        return self.delta_positions[alive[self.delta_positions]]


@dataclass(frozen=True)
class QueryResult:
    """Top-k matches for one query vector against one snapshot."""

    entity_ids: np.ndarray
    scores: np.ndarray
    version: int


class ServingState:
    """The mutable façade over immutable snapshots.

    ``insert`` appends the vector to the store (durable, within its
    preallocated capacity) and to the index's nearest inverted list,
    and marks the position as delta; ``delete`` tombstones; ``query``
    merges the IVF scan (delta excluded) with a brute-force scan of the
    delta layer.  Compaction triggers lazily after inserts: when any
    inverted list's live size skews past ``skew_factor`` times the mean,
    the index is re-clustered over the survivors; when the delta merely
    grows past ``max_delta``, the delta positions are migrated into
    their (already-assigned) lists without retraining.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        index: IVFIndex,
        nprobe: int | None = None,
        max_delta: int = 64,
        skew_factor: float = 3.0,
    ) -> None:
        if index.ntotal != store.n_rows:
            raise ValueError(
                f"index holds {index.ntotal} vectors but the store holds "
                f"{store.n_rows} rows; rebuild the index from this store"
            )
        if max_delta < 1:
            raise ValueError(f"max_delta must be >= 1, got {max_delta}")
        if skew_factor <= 1.0:
            raise ValueError(f"skew_factor must be > 1, got {skew_factor}")
        self.store = store
        self.nprobe = index.n_clusters if nprobe is None else int(nprobe)
        self.max_delta = max_delta
        self.skew_factor = skew_factor
        self._write_lock = threading.Lock()
        pos_ids = np.arange(index.ntotal, dtype=np.int64)
        alive = index.alive_mask
        self._snapshot = _Snapshot(
            index=index,
            pos_ids=pos_ids,
            id_pos={int(p): int(p) for p in pos_ids[alive]},
            delta_positions=np.empty(0, dtype=np.int64),
            version=0,
            compactions=0,
        )
        self._next_id = index.ntotal

    # -- constructors --------------------------------------------------

    @classmethod
    def load(
        cls,
        store_path: str | Path,
        index_path: str | Path,
        **kwargs,
    ) -> "ServingState":
        """Open the artifacts a past run persisted; zero rebuild.

        Store rows beyond the index's row count — appends persisted by
        a previous serving run whose index was never re-saved — are
        recovered into the delta layer (entity id = store row), so a
        kill/restart loses no durable insert.
        """
        store = EmbeddingStore.open(store_path, mode="r+")
        index = IVFIndex.load(index_path)
        extra = store.n_rows - index.ntotal
        if extra < 0:
            raise ValueError(
                f"index at {index_path} holds {index.ntotal} vectors but the "
                f"store at {store_path} holds only {store.n_rows} rows"
            )
        if extra == 0:
            return cls(store, index, **kwargs)
        # Durable tail: rows a previous run appended after the index was
        # saved.  Replay them through the normal insert path behind a
        # proxy whose append is a no-op (the rows are already on disk).
        tail = np.array(store.as_array()[index.ntotal :], dtype=np.float64)
        state = cls(_TailTrimmedStore(store, index.ntotal), index, **kwargs)
        for vector in tail:
            state.insert(vector)
        state.store = store
        obs_events.emit("serve.recovered", rows=extra)
        return state

    # -- reads ---------------------------------------------------------

    @property
    def snapshot(self) -> _Snapshot:
        """The current immutable snapshot (grab once, use throughout)."""
        return self._snapshot

    def query(
        self, vectors: np.ndarray, k: int, nprobe: int | None = None
    ) -> list[QueryResult]:
        """Top-``k`` live entities per query row, against one snapshot.

        The result order is the total order ``(-score, position asc)``;
        at ``nprobe == n_clusters`` it is bitwise-identical to a cold
        rebuild over the survivors (the module contract).
        """
        snap = self._snapshot
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nprobe = self.nprobe if nprobe is None else nprobe
        index = snap.index
        delta = snap.live_delta_positions
        registry = obs_metrics.get_metrics()
        with serve_context.traced(
            "serve.query",
            queries=vectors.shape[0],
            k=k,
            delta=len(delta),
            version=snap.version,
        ), obs_trace.span(
            "serve.query", queries=vectors.shape[0], k=k, delta=len(delta)
        ):
            found = index.search(
                vectors, k, nprobe=nprobe, exclude=snap.delta_mask, stable=True
            )
            if len(delta):
                top = TopK.of(found, min(k, index.ntotal))
                top.merge(slice(None), index.stable_scores(vectors, delta), delta)
                found = top.candidates(index.ntotal)
            results = [
                QueryResult(
                    entity_ids=snap.pos_ids[ids], scores=scores, version=snap.version
                )
                for ids, scores in map(found.row, range(vectors.shape[0]))
            ]
        registry.inc("serve.queries", vectors.shape[0])
        return results

    def get_vector(self, entity_id: int) -> np.ndarray | None:
        """The live vector for ``entity_id``, or None if absent/deleted."""
        snap = self._snapshot
        position = snap.id_pos.get(int(entity_id))
        if position is None:
            return None
        return np.array(snap.index.reconstruct(np.array([position]))[0])

    def live_entity_ids(self) -> np.ndarray:
        """All live entity ids, ascending."""
        snap = self._snapshot
        return np.array(sorted(snap.id_pos), dtype=np.int64)

    # -- writes --------------------------------------------------------

    def insert(self, vector: np.ndarray, entity_id: int | None = None) -> int:
        """Admit one vector; returns its entity id.

        The vector lands durably in the store (``append_row``), then in
        a new snapshot: appended to its nearest inverted list and marked
        as delta so every query sees it immediately regardless of
        ``nprobe``.  ``entity_id`` defaults to the next server-assigned
        id (== its store row); passing an unused id pins it, passing a
        live id replaces that entity (the old position is tombstoned).
        """
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        with self._write_lock:
            snap = self._snapshot
            if entity_id is None:
                entity_id = self._next_id
            entity_id = int(entity_id)
            self.store.append_row(vector.astype(self.store.dtype, copy=False))
            index = snap.index.clone()
            replaced = snap.id_pos.get(entity_id)
            if replaced is not None:
                index.tombstone(replaced)
            position = index.append_to_list(vector)
            id_pos = dict(snap.id_pos)
            id_pos[entity_id] = position
            new = _Snapshot(
                index=index,
                pos_ids=np.concatenate(
                    [snap.pos_ids, np.array([entity_id], dtype=np.int64)]
                ),
                id_pos=id_pos,
                delta_positions=np.concatenate(
                    [snap.delta_positions, np.array([position], dtype=np.int64)]
                ),
                version=snap.version + 1,
                compactions=snap.compactions,
            )
            new = self._maybe_compact(new)
            self._snapshot = new
            self._next_id = max(self._next_id, entity_id + 1)
        obs_events.emit("serve.insert", entity_id=entity_id, version=new.version)
        obs_metrics.get_metrics().inc("serve.inserts")
        return entity_id

    def delete(self, entity_id: int) -> bool:
        """Tombstone one live entity; returns False if it was not live."""
        entity_id = int(entity_id)
        with self._write_lock:
            snap = self._snapshot
            position = snap.id_pos.get(entity_id)
            if position is None:
                return False
            index = snap.index.clone()
            index.tombstone(position)
            id_pos = dict(snap.id_pos)
            del id_pos[entity_id]
            new = _Snapshot(
                index=index,
                pos_ids=snap.pos_ids,
                id_pos=id_pos,
                delta_positions=snap.delta_positions,
                version=snap.version + 1,
                compactions=snap.compactions,
            )
            self._snapshot = new
        obs_events.emit("serve.delete", entity_id=entity_id, version=new.version)
        obs_metrics.get_metrics().inc("serve.deletes")
        return True

    def compact(self, recluster: bool = True) -> bool:
        """Force a compaction now; returns False when nothing to do."""
        with self._write_lock:
            snap = self._snapshot
            if len(snap.delta_positions) == 0 and snap.index.n_tombstoned == 0:
                return False
            new = (
                self._recluster(snap) if recluster else self._migrate_delta(snap)
            )
            self._snapshot = new
        return True

    # -- compaction ----------------------------------------------------

    def _maybe_compact(self, snap: _Snapshot) -> _Snapshot:
        """Apply the lazy compaction policy to a candidate snapshot.

        Skew — some inverted list grew past ``skew_factor`` x the mean
        live list size — triggers a full re-cluster; a merely deep delta
        migrates into the (already-assigned) lists without retraining.
        Both preserve relative position order, so results are unchanged
        at full ``nprobe``.
        """
        sizes = snap.index.live_list_sizes()
        populated = sizes[sizes > 0]
        if len(populated) and sizes.max() > self.skew_factor * populated.mean():
            return self._recluster(snap)
        if len(snap.delta_positions) >= self.max_delta:
            return self._migrate_delta(snap)
        return snap

    def _migrate_delta(self, snap: _Snapshot) -> _Snapshot:
        """Append compaction: absorb the delta into the inverted lists.

        The vectors are already in their nearest lists (inserted there);
        migrating is just dropping the exclusion mask.  Scores never
        change; at partial ``nprobe`` the migrated vectors become
        probe-dependent like any other indexed vector.
        """
        new = _Snapshot(
            index=snap.index,
            pos_ids=snap.pos_ids,
            id_pos=snap.id_pos,
            delta_positions=np.empty(0, dtype=np.int64),
            version=snap.version + 1,
            compactions=snap.compactions,
        )
        obs_events.emit(
            "serve.compact", kind="migrate", absorbed=len(snap.delta_positions)
        )
        obs_metrics.get_metrics().inc("serve.compactions.migrate")
        return new

    def _recluster(self, snap: _Snapshot) -> _Snapshot:
        """Re-cluster compaction: retrain the quantizer over survivors.

        Survivors keep their relative position order, so the total tie
        order — and therefore every query result at full ``nprobe`` —
        is unchanged.  Runs off to the side on a fresh index; queries
        in flight keep the old snapshot.
        """
        old = snap.index
        alive_positions = np.flatnonzero(old.alive_mask)
        if len(alive_positions) == 0:
            return snap
        vectors = old.reconstruct(alive_positions)
        index = IVFIndex(
            n_clusters=max(old.n_clusters, 1),
            metric=old.metric,
            train_iterations=old.train_iterations,
        )
        with obs_trace.span("serve.recluster", n=len(alive_positions)):
            index.train(vectors).add(vectors)
        pos_ids = snap.pos_ids[alive_positions]
        new = _Snapshot(
            index=index,
            pos_ids=pos_ids,
            id_pos={int(eid): pos for pos, eid in enumerate(pos_ids)},
            delta_positions=np.empty(0, dtype=np.int64),
            version=snap.version + 1,
            compactions=snap.compactions + 1,
        )
        obs_events.emit(
            "serve.compact",
            kind="recluster",
            survivors=len(alive_positions),
            dropped=old.ntotal - len(alive_positions),
        )
        obs_metrics.get_metrics().inc("serve.compactions.recluster")
        return new

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Serving-state snapshot: index balance + delta depth + versions."""
        snap = self._snapshot
        report = snap.index.stats()
        report.update(
            {
                "delta_depth": int(len(snap.live_delta_positions)),
                "version": snap.version,
                "compactions": snap.compactions,
                "live_entities": len(snap.id_pos),
                "store_rows": self.store.n_rows,
                "store_capacity": self.store.capacity,
                "nprobe": self.nprobe,
            }
        )
        return report


class _TailTrimmedStore:
    """Open-time proxy hiding a store's recovered tail rows from __init__.

    :meth:`ServingState.load` validates the index against the *base* row
    count, then replays the durable tail through the normal insert path
    (which appends to the real store — already holding those rows — via
    this proxy's no-op append).
    """

    def __init__(self, store: EmbeddingStore, base_rows: int) -> None:
        self._store = store
        self._base_rows = base_rows
        self._seen = 0

    @property
    def n_rows(self) -> int:
        return self._base_rows

    @property
    def dtype(self):
        return self._store.dtype

    def append_row(self, vector: np.ndarray) -> int:
        # The row is already durable in the real store; just account it.
        row = self._base_rows + self._seen
        self._seen += 1
        return row

    def __getattr__(self, name):
        return getattr(self._store, name)
