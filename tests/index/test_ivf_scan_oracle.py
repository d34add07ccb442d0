"""The threshold scan is bitwise the per-block merge it replaced.

``reference_search`` is the search loop as it was before the floor:
every probe block is scored whole, in the same row chunks, and merged
into a :class:`TopK` chunk by chunk.  Its probe is the stated rule,
written independently: the ``nprobe`` lists with the smallest
reference distance, ties by the lower cluster id.  ``IVFIndex.search``
must return the same ``indptr``/``indices``/``scores`` bytes and the
same ``scanned``/``shortfall`` counters on inputs built to stress the
floor: short nearest lists, dead members concentrated where a floor is
taken, exact duplicates tied at the floor, ``k`` above the probed
population, every metric, and batch sizes around the BLAS tile edges.
"""

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.index.candidates import TopK
from repro.index.ivf import SCAN_CHUNK_ELEMS, _select
from repro.obs import trace as obs_trace
from repro.similarity.metrics import prepare_metric, prepare_stable_metric
from repro.utils.parallel import row_chunks, rows_per_chunk


def reference_distances(matrix, centroids, center):
    """The squared centroid distances, as one full-matrix expression."""
    data = matrix - center
    sq_data = np.sum(data**2, axis=1)[:, None]
    sq_centroids = np.sum(centroids**2, axis=1)[None, :]
    return sq_data + sq_centroids - 2.0 * (data @ centroids.T)


def reference_probe(index, queries, nprobe):
    """The probe mask: ``nprobe`` lists per row by ``(distance, id)``."""
    n_queries, n_clusters = len(queries), index.n_clusters
    probed = np.full((n_queries, n_clusters), nprobe == n_clusters)
    if nprobe < n_clusters:
        distances = reference_distances(queries, index._centroids, index._center)
        ids = np.broadcast_to(np.arange(n_clusters), distances.shape)
        order = np.lexsort((ids, distances), axis=1)
        probed[np.arange(n_queries)[:, None], order[:, :nprobe]] = True
    return probed


def reference_search(index, queries, k, nprobe=1, exclude=None, stable=False):
    """The per-block merge loop, kept verbatim as the oracle.

    Returns ``(candidates, scanned, shortfall)``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    nprobe = min(nprobe, index.n_clusters)
    scannable = index._alive if exclude is None else index._alive & ~exclude
    prepare = prepare_stable_metric if stable else prepare_metric
    probed = reference_probe(index, queries, nprobe)
    top = TopK(len(queries), min(k, index.ntotal))
    scanned = 0
    for rows, members in index._probe_groups(probed, scannable):
        vectors = index._vectors[members]
        kernel = prepare(index.metric, queries[rows], vectors, SCAN_CHUNK_ELEMS)
        # A row holds its scores and the merge pool's scores and ids.
        chunk_rows = rows_per_chunk(3 * (len(members) + top.k), SCAN_CHUNK_ELEMS)
        for chunk in row_chunks(len(rows), chunk_rows):
            top.merge(rows[chunk], kernel(chunk), members)
        scanned += len(rows) * len(members)
    shortfall = int((top.found < k).sum())
    return top.candidates(index.ntotal), scanned, shortfall


def assert_same_search(index, queries, k, nprobe=1, exclude=None, stable=False):
    want, scanned, shortfall = reference_search(index, queries, k, nprobe, exclude, stable)
    with obs_trace.recording() as recorder:
        got = index.search(queries, k, nprobe=nprobe, exclude=exclude, stable=stable)
    (span,) = recorder.find("index.search")
    for name in ("indptr", "indices", "scores"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert span.counters["scanned"] == scanned
    assert span.counters["shortfall"] == shortfall
    return got


def separated_clusters(rng, n_clusters, size, dim, spread=0.05):
    """Tight clusters around random directions: a query's top ``k`` all
    sit in its nearest list, so the floor is the final k-th score."""
    centers = rng.normal(size=(n_clusters, dim)) * 3.0
    return np.repeat(centers, size, axis=0) + spread * rng.normal(size=(n_clusters * size, dim))


def nprobes(index):
    return sorted({1, max(1, index.n_clusters // 3), index.n_clusters})


BATCHES = [1, 2, 17, 64]


class TestAgainstMergeOracle:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_metrics_batches_and_probe_widths(self, rng, metric, batch):
        vectors = rng.normal(size=(400, 16))
        index = IVFIndex(n_clusters=12, metric=metric).train(vectors).add(vectors)
        queries = rng.normal(size=(batch, 16))
        for nprobe in nprobes(index):
            for k in (1, 10):
                assert_same_search(index, queries, k, nprobe)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_stable_non_cosine(self, rng, metric, batch):
        vectors = rng.normal(size=(300, 8))
        index = IVFIndex(n_clusters=9, metric=metric).train(vectors).add(vectors)
        queries = vectors[rng.integers(0, 300, batch)] + 0.01 * rng.normal(size=(batch, 8))
        for nprobe in nprobes(index):
            assert_same_search(index, queries, 5, nprobe, stable=True)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_separated_clusters_floor_is_the_kth(self, rng, batch):
        # Every final top-k member is in the nearest list, and the
        # floor's rows differ from the scan block's, so the two BLAS
        # shapes round the k-th score differently: only the margin keeps
        # it.
        vectors = separated_clusters(rng, 8, 30, 32)
        index = IVFIndex(n_clusters=8).train(vectors).add(vectors)
        for nprobe in (2, 3, 8):
            queries = vectors[rng.integers(0, len(vectors), batch)]
            queries = queries + 0.02 * rng.normal(size=queries.shape)
            for k in (5, 10, 30):
                assert_same_search(index, queries, k, nprobe)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_nearest_list_shorter_than_k(self, rng, batch):
        # Two lists of three members among lists of ~100: rows near them
        # have no floor and keep every scanned pair.
        big = rng.normal(size=(300, 8))
        small = np.vstack([np.full((3, 8), 9.0), np.full((3, 8), -9.0)])
        small = small + 0.01 * rng.normal(size=small.shape)
        vectors = np.vstack([big, small])
        index = IVFIndex(n_clusters=5, metric="euclidean").train(vectors).add(vectors)
        cosine = IVFIndex(n_clusters=5).train(vectors).add(vectors)
        queries = np.vstack([small, big])[:batch]
        for idx in (index, cosine):
            for nprobe in (1, 2, 5):
                assert_same_search(idx, queries, 10, nprobe)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_dead_members_concentrated_in_the_nearest_list(self, rng, batch):
        vectors = separated_clusters(rng, 6, 40, 16)
        index = IVFIndex(n_clusters=6).train(vectors).add(vectors)
        picks = rng.integers(0, len(vectors), batch)
        queries = vectors[picks] + 1e-3 * rng.normal(size=(batch, 16))
        # Tombstone each query's best matches in its nearest list, and
        # exclude the next ones: the live k-th lies far below the k-th
        # over every member.
        full = index.search(queries, 30, nprobe=1)
        exclude = np.zeros(index.ntotal, dtype=bool)
        for row in range(batch):
            ids, _ = full.row(row)
            for position in ids[:8]:
                index.tombstone(int(position))
            exclude[ids[8:16]] = True
        for nprobe in (1, 2, 6):
            for k in (3, 10, 40):
                assert_same_search(index, queries, k, nprobe)
                assert_same_search(index, queries, k, nprobe, exclude=exclude)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_ties_and_duplicates_at_the_floor(self, rng, metric, batch):
        # Each distinct vector appears four times, so every score ties
        # at least four ways and the k-th is shared across ids.
        base = np.round(rng.normal(size=(60, 6)) * 2)
        vectors = np.repeat(base, 4, axis=0)[rng.permutation(240)]
        index = IVFIndex(n_clusters=7, metric=metric).train(vectors).add(vectors)
        queries = base[rng.integers(0, 60, batch)]
        for nprobe in nprobes(index):
            for k in (1, 3, 4, 5, 9):
                assert_same_search(index, queries, k, nprobe)
                if metric != "cosine":
                    assert_same_search(index, queries, k, nprobe, stable=True)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_k_above_the_probed_population(self, rng, batch):
        vectors = rng.normal(size=(50, 4))
        index = IVFIndex(n_clusters=5).train(vectors).add(vectors)
        queries = rng.normal(size=(batch, 4))
        for nprobe in (1, 3, 5):
            for k in (20, 50, 500):
                got = assert_same_search(index, queries, k, nprobe)
                assert got.k_max <= 50

    def test_held_survivors_are_selected_in_rounds(self, rng, monkeypatch):
        # k above every list's size: no nearest list and no probe block
        # can give a floor, so every scanned pair survives, and past
        # SCAN_CHUNK_ELEMS held elements they are selected in rounds,
        # with floors raised between them.
        vectors = rng.normal(size=(4000, 4))
        queries = rng.normal(size=(300, 4))
        rounds = []
        monkeypatch.setattr(
            "repro.index.ivf._select", lambda *args: rounds.append(1) or _select(*args)
        )
        for metric in ("cosine", "euclidean"):
            index = IVFIndex(n_clusters=40, metric=metric).train(vectors).add(vectors)
            assert index.live_list_sizes().max() < 300
            for nprobe in (8, 20):
                rounds.clear()
                assert_same_search(index, queries, 300, nprobe)
                assert len(rounds) >= 2  # an early round and the final one


class TestProbeRule:
    def test_duplicated_centroids_take_the_lower_ids(self, rng):
        vectors = rng.normal(size=(90, 5))
        index = IVFIndex(n_clusters=6).train(vectors).add(vectors)
        # Every centroid twice: each distance ties exactly, pairwise.
        index._centroids = np.repeat(index._centroids[:3], 2, axis=0)
        queries = rng.normal(size=(40, 5))
        for nprobe in range(1, 7):
            probed, nearest = index._probe(queries, nprobe)
            want = reference_probe(index, queries, nprobe)
            assert probed.tobytes() == want.tobytes()
            assert (probed.sum(axis=1) == nprobe).all()
            if nprobe == 6:
                assert nearest is None  # one block: no nearest-list floor
            else:
                assert probed[np.arange(40), nearest].all()
            # Of a tied pair, an odd probe count takes the even (lower) id.
            if nprobe % 2:
                distances = reference_distances(queries, index._centroids, index._center)
                last = np.lexsort((np.broadcast_to(np.arange(6), (40, 6)), distances))
                assert (last[:, nprobe - 1] % 2 == 0).all()

    def test_ties_everywhere(self, rng):
        vectors = rng.normal(size=(60, 3))
        index = IVFIndex(n_clusters=5).train(vectors).add(vectors)
        index._centroids = np.zeros_like(index._centroids)
        queries = rng.normal(size=(9, 3))
        for nprobe in range(1, 6):
            probed, nearest = index._probe(queries, nprobe)
            assert (probed[:, :nprobe]).all() and not probed[:, nprobe:].any()
            if nprobe == 5:
                assert nearest is None
            else:
                assert (nearest == 0).all()

    @pytest.mark.parametrize("n", [1, 2, 231, 232, 233, 600])
    def test_probe_mask_against_reference(self, rng, n):
        vectors = rng.normal(size=(2000, 8))
        index = IVFIndex(n_clusters=141).train(vectors).add(vectors)
        queries = np.vstack([vectors[: n // 2], rng.normal(size=(n - n // 2, 8))])
        for nprobe in (1, 8, 140, 141):
            probed, nearest = index._probe(queries, nprobe)
            assert probed.tobytes() == reference_probe(index, queries, nprobe).tobytes()
            if nprobe == 141:
                assert nearest is None
                continue
            distances = reference_distances(queries, index._centroids, index._center)
            assert nearest.tobytes() == distances.argmin(axis=1).tobytes()


class TestStageSpans:
    @pytest.mark.parametrize("stable", [False, True])
    @pytest.mark.parametrize("nprobe", [1, 4])
    def test_three_stages_nest_under_search(self, rng, stable, nprobe):
        vectors = rng.normal(size=(120, 6))
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        with obs_trace.recording() as recorder:
            index.search(vectors[:5], 3, nprobe=nprobe, stable=stable)
            index.search(vectors[5:9], 3, nprobe=nprobe, stable=stable)
        searches = recorder.find("index.search")
        assert len(searches) == 2
        for search in searches:
            assert [child.name for child in search.children] == [
                "index.probe",
                "index.scan",
                "index.select",
            ]
        for name in ("index.probe", "index.scan", "index.select"):
            assert len(recorder.find(name)) == 2
        assert [root.name for root in recorder.roots] == ["index.search"] * 2
