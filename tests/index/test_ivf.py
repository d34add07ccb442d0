"""IVFIndex: lifecycle, exactness at full probe width, recall, persistence."""

import json

import numpy as np
import pytest

from repro.errors import DataIntegrityError
from repro.index import IVF_FORMAT, IVF_VERSION, IVFIndex
from repro.obs.metrics import get_metrics
from repro.similarity.chunked import chunked_top_k


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
        "edit, message",
        [
            (lambda doc: doc["assignments"].pop(), "assignments for"),
            (lambda doc: doc["assignments"].__setitem__(0, 2), "outside"),
            (lambda doc: doc["assignments"].__setitem__(0, -1), "outside"),
            (lambda doc: [row.pop() for row in doc["centroids"]], "centroids"),
            (lambda doc: doc["center"].append(0.0), "center"),
        ],
        ids=["assignments-length", "assignment-high", "assignment-low", "centroid-dim",
             "center-dim"],
    )
    def test_load_rejects_inconsistent_unverified_document(
        self, rng, tmp_path, edit, message
    ):
        # A document without a checksum loads unverified; its shapes are
        # still checked, so an edit cannot hide a vector from every list.
        vectors = rng.normal(size=(10, 4))
        path = IVFIndex(n_clusters=2).train(vectors).add(vectors).save(tmp_path / "i.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["checksum"]
        edit(document)
        path.write_text(json.dumps(document), encoding="utf-8")
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
