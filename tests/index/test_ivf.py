"""IVFIndex: lifecycle, exactness at full probe width, recall, persistence."""

import json

import numpy as np
import pytest

from repro.errors import DataIntegrityError
from repro.index import IVF_FORMAT, IVF_VERSION, IVFIndex
from repro.index.ivf import _FLOAT, _INT, _decode, _document_checksum, _encode
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_metrics
from repro.similarity.chunked import chunked_top_k


def reseal(path, key, edit):
    """Rewrite ``path`` with ``edit`` applied to the array under ``key``
    and a checksum that matches the edited document."""
    document = json.loads(path.read_text(encoding="utf-8"))
    dtype = _INT if key in ("assignments", "tombstones") else _FLOAT
    array = _decode(path, document, key, dtype, len(document[key]["shape"]))
    document[key] = _encode(edit(array.copy()), dtype)
    document["checksum"] = _document_checksum(document)
    path.write_text(json.dumps(document), encoding="utf-8")


def clustered_embeddings(rng, size=300, dim=32, noise=0.3):
    """The scalability benchmark's synthetic geometry: shared latents."""
    latent = rng.normal(size=(size, dim))
    source = latent + noise * rng.normal(size=(size, dim))
    target = latent + noise * rng.normal(size=(size, dim))
    return source, target


class TestLifecycle:
    def test_add_before_train_raises(self, rng):
        with pytest.raises(RuntimeError, match="train"):
            IVFIndex().add(rng.normal(size=(5, 4)))

    def test_search_before_add_raises(self, rng):
        index = IVFIndex(n_clusters=2).train(rng.normal(size=(10, 4)))
        with pytest.raises(RuntimeError, match="add"):
            index.search(rng.normal(size=(3, 4)), k=2)

    def test_dim_mismatch_raises(self, rng):
        index = IVFIndex(n_clusters=2).train(rng.normal(size=(10, 4)))
        with pytest.raises(ValueError, match="dim"):
            index.add(rng.normal(size=(10, 5)))

    def test_clusters_clamped_to_population(self, rng):
        vectors = rng.normal(size=(3, 4))
        index = IVFIndex(n_clusters=16).train(vectors).add(vectors)
        assert index.n_clusters == 3
        assert index.ntotal == 3

    def test_invalid_knobs_raise(self, rng):
        with pytest.raises(ValueError, match="n_clusters"):
            IVFIndex(n_clusters=0)
        vectors = rng.normal(size=(10, 4))
        index = IVFIndex(n_clusters=2).train(vectors).add(vectors)
        with pytest.raises(ValueError, match="k must be"):
            index.search(vectors, k=0)
        with pytest.raises(ValueError, match="nprobe"):
            index.search(vectors, k=1, nprobe=0)

    def test_stats_shape(self, rng):
        vectors = rng.normal(size=(40, 8))
        stats = IVFIndex(n_clusters=4).train(vectors).add(vectors).stats()
        assert stats["ntotal"] == 40
        assert stats["n_clusters"] == 4
        assert stats["list_min"] <= stats["list_mean"] <= stats["list_max"]
        assert stats["trained"] is True


class TestSearchQuality:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_full_probe_equals_brute_force(self, rng, metric):
        # nprobe == n_clusters scans every list with exact rescoring, so
        # the result must be *identical* to brute-force top-k.
        source, target = clustered_embeddings(rng, size=150, dim=16)
        index = IVFIndex(n_clusters=6, metric=metric).train(target).add(target)
        found = index.search(source, k=10, nprobe=6)
        exact_ids, exact_scores = chunked_top_k(source, target, 10, metric=metric)
        np.testing.assert_array_equal(
            found.indices.reshape(len(source), 10), exact_ids
        )
        np.testing.assert_allclose(
            found.scores.reshape(len(source), 10), exact_scores
        )

    def test_recall_at_10_on_synthetic_gold(self, rng):
        # The seeded acceptance gate: >= 0.95 gold-pair recall@10 at a
        # quarter of the lists probed.
        source, target = clustered_embeddings(rng, size=300, dim=32)
        gold = [(i, i) for i in range(300)]
        index = IVFIndex(n_clusters=8).train(target).add(target)
        found = index.search(source, k=10, nprobe=2)
        assert found.recall(gold) >= 0.95

    def test_more_probes_never_hurt_recall(self, rng):
        source, target = clustered_embeddings(rng, size=200, dim=16)
        gold = [(i, i) for i in range(200)]
        index = IVFIndex(n_clusters=8).train(target).add(target)
        recalls = [
            index.search(source, k=10, nprobe=nprobe).recall(gold)
            for nprobe in (1, 4, 8)
        ]
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0  # full probe contains every true top-10

    def test_shortfall_rows_keep_what_was_found(self, rng):
        vectors = rng.normal(size=(12, 4))
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        found = index.search(vectors, k=10, nprobe=1)
        # One probed list holds < 10 vectors, so rows come up short but
        # are still valid, sorted candidate lists.
        assert found.k_max <= 10
        assert found.n_sources == 12
        counts = found.row_counts
        assert (counts > 0).all()

    def test_search_counters(self, rng):
        vectors = rng.normal(size=(30, 8))
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        registry = get_metrics()
        before = registry.counter("index.search.queries")
        index.search(vectors[:7], k=3, nprobe=1)
        assert registry.counter("index.search.queries") == before + 7

    @pytest.mark.parametrize("nprobe", [2, 6])
    def test_rescored_counter(self, rng, nprobe):
        """Pair-stable cosine counts its threshold survivors as
        ``rescored``: at least ``k`` per row with ``k`` live members.
        ``scanned`` counts what the BLAS scan does: every probed live
        pair."""
        vectors = rng.normal(size=(200, 8))
        index = IVFIndex(n_clusters=6).train(vectors).add(vectors)
        for position in range(0, 200, 7):
            index.tombstone(position)
        exclude = np.zeros(200, dtype=bool)
        exclude[1::9] = True
        queries, k = vectors[:9], 4
        registry = get_metrics()

        def counted(stable):
            before = {
                name: registry.counter(f"index.search.{name}")
                for name in ("scanned", "rescored")
            }
            with obs_trace.recording() as recorder:
                found = index.search(
                    queries, k, nprobe=nprobe, exclude=exclude, stable=stable
                )
            (span,) = recorder.find("index.search")
            counts = {
                name: registry.counter(f"index.search.{name}") - before[name]
                for name in before
            }
            assert span.counters == {**counts, "shortfall": span.counters["shortfall"]}
            return found, counts

        _, blas_counts = counted(stable=False)
        stable, counts = counted(stable=True)
        assert blas_counts["rescored"] == 0
        assert counts["scanned"] == blas_counts["scanned"]
        # Every probed live pair: a full-width BLAS search returns them all.
        probed_live = index.search(queries, 200, nprobe=nprobe, exclude=exclude)
        assert counts["scanned"] == probed_live.nnz
        full_rows = int((probed_live.row_counts >= k).sum())
        assert full_rows > 0
        assert counts["rescored"] >= k * full_rows
        if nprobe == index.n_clusters:
            assert counts["rescored"] < counts["scanned"]
        assert (stable.row_counts == np.minimum(probed_live.row_counts, k)).all()


class TestPersistence:
    def test_round_trip_preserves_search(self, rng, tmp_path):
        source, target = clustered_embeddings(rng, size=80, dim=8)
        index = IVFIndex(n_clusters=4).train(target).add(target)
        path = index.save(tmp_path / "index.json")
        reloaded = IVFIndex.load(path)
        original = index.search(source, k=5, nprobe=2)
        restored = reloaded.search(source, k=5, nprobe=2)
        np.testing.assert_array_equal(original.indices, restored.indices)
        np.testing.assert_allclose(original.scores, restored.scores)
        assert reloaded.stats() == index.stats()

    def test_save_before_add_raises(self, rng, tmp_path):
        index = IVFIndex(n_clusters=2).train(rng.normal(size=(10, 4)))
        with pytest.raises(RuntimeError, match="add"):
            index.save(tmp_path / "index.json")

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "not-an-index"}), encoding="utf-8")
        with pytest.raises(ValueError, match=IVF_FORMAT):
            IVFIndex.load(path)

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("assignments", lambda a: a[:-1], "assignments for"),
            ("assignments", lambda a: np.concatenate([[2], a[1:]]), "outside"),
            ("assignments", lambda a: np.concatenate([[-1], a[1:]]), "outside"),
            ("centroids", lambda a: a[:, :-1], "centroids"),
            ("center", lambda a: np.append(a, 0.0), "center"),
        ],
        ids=["assignments-length", "assignment-high", "assignment-low", "centroid-dim",
             "center-dim"],
    )
    def test_load_rejects_inconsistent_unverified_document(
        self, rng, tmp_path, key, edit, message
    ):
        # A writer bug: the edited array is re-encoded and the document
        # re-sealed, so the checksum cannot see it.  The shapes are
        # still checked, so an edit cannot hide a vector from every list.
        vectors = rng.normal(size=(10, 4))
        path = IVFIndex(n_clusters=2).train(vectors).add(vectors).save(tmp_path / "i.json")
        reseal(path, key, edit)
        with pytest.raises(DataIntegrityError, match=message):
            IVFIndex.load(path)

    def test_load_rejects_future_version(self, rng, tmp_path):
        index = IVFIndex(n_clusters=2)
        vectors = rng.normal(size=(10, 4))
        path = index.train(vectors).add(vectors).save(tmp_path / "index.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        document["version"] = IVF_VERSION + 1
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            IVFIndex.load(path)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_bitwise_equal(loaded, index):
    for name in ("_centroids", "_center", "_vectors", "_unit", "_assignments", "_alive"):
        assert _same_bits(getattr(loaded, name), getattr(index, name)), name
    assert len(loaded._lists) == len(index._lists)
    for got, want in zip(loaded._lists, index._lists):
        assert _same_bits(got, want)


class TestBinaryDocument:
    """Version 2: arrays stored as base64 bytes, checksum mandatory."""

    def test_round_trip_bitwise_special_values(self, rng, tmp_path):
        vectors = rng.normal(size=(12, 4))
        vectors[0, 0] = -0.0
        vectors[1, 1] = 5e-324  # smallest subnormal
        vectors[2, 2] = -2.5e-310
        vectors[3, 3] = 3.0e100
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        loaded = IVFIndex.load(index.save(tmp_path / "i.json"))
        _assert_bitwise_equal(loaded, index)
        assert np.signbit(loaded._vectors[0, 0])

    def test_round_trip_single_row(self, rng, tmp_path):
        vectors = rng.normal(size=(1, 5))
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        loaded = IVFIndex.load(index.save(tmp_path / "i.json"))
        _assert_bitwise_equal(loaded, index)
        assert loaded.ntotal == 1 and loaded.n_clusters == index.n_clusters

    def test_round_trip_tombstones(self, rng, tmp_path):
        vectors = rng.normal(size=(20, 4))
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        index.tombstone(0)
        index.tombstone(13)
        loaded = IVFIndex.load(index.save(tmp_path / "i.json"))
        _assert_bitwise_equal(loaded, index)
        assert loaded.n_tombstoned == 2

    def test_round_trip_appended_writes_only_the_view(self, rng, tmp_path):
        vectors = rng.normal(size=(20, 4))
        index = IVFIndex(n_clusters=3).train(vectors).add(vectors)
        for row in rng.normal(size=(2, 4)):
            index.append_to_list(row)
        assert len(index._spare.vectors) > index.ntotal  # spare room exists
        path = index.save(tmp_path / "i.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["vectors"]["shape"] == [22, 4]
        loaded = IVFIndex.load(path)
        _assert_bitwise_equal(loaded, index)
        queries = rng.normal(size=(5, 4))
        want = index.search(queries, k=4, nprobe=3, stable=True)
        got = loaded.search(queries, k=4, nprobe=3, stable=True)
        assert _same_bits(got.indices, want.indices)
        assert _same_bits(got.scores, want.scores)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda field: field.update(data="*" + field["data"][1:]),
            lambda field: field.update(data=field["data"][:-3]),
            lambda field: field.update(shape=[field["shape"][0] + 1, field["shape"][1]]),
            lambda field: field.update(shape=field["shape"][:1]),
        ],
        ids=["non-alphabet", "truncated", "shape-vs-bytes", "rank"],
    )
    def test_corrupt_payload_with_valid_checksum_is_typed(self, rng, tmp_path, corrupt):
        vectors = rng.normal(size=(10, 4))
        path = IVFIndex(n_clusters=2).train(vectors).add(vectors).save(tmp_path / "i.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        corrupt(document["vectors"])
        document["checksum"] = _document_checksum(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataIntegrityError, match="IVF index field 'vectors'"):
            IVFIndex.load(path)

    def test_version_1_document_names_the_rebuild_command(self, rng, tmp_path):
        vectors = rng.normal(size=(10, 4))
        index = IVFIndex(n_clusters=2).train(vectors).add(vectors)
        document = {  # the version 1 layout: arrays as JSON floats
            "format": IVF_FORMAT,
            "version": 1,
            "metric": index.metric,
            "n_clusters": index.n_clusters,
            "train_iterations": index.train_iterations,
            "center": index._center.tolist(),
            "centroids": index._centroids.tolist(),
            "vectors": index._vectors.tolist(),
            "assignments": index._assignments.tolist(),
        }
        document["checksum"] = _document_checksum(document)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="python -m repro index build"):
            IVFIndex.load(path)

    def test_document_without_checksum_is_rejected(self, rng, tmp_path):
        vectors = rng.normal(size=(10, 4))
        path = IVFIndex(n_clusters=2).train(vectors).add(vectors).save(tmp_path / "i.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["checksum"]
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataIntegrityError, match="no checksum"):
            IVFIndex.load(path)
