"""Incremental IVF primitives: append, tombstone, clone, stable search.

Also the ``repro index stats`` regression pass: ``stats()`` must report
defensively on every degenerate geometry (identical vectors, empty
lists, everything tombstoned, untrained) — never a ZeroDivisionError.
"""

import numpy as np
import pytest

from repro.index import IVFIndex


@pytest.fixture
def rng():
    return np.random.default_rng(123)


@pytest.fixture
def built(rng):
    vectors = rng.normal(size=(40, 6))
    return IVFIndex(n_clusters=4).train(vectors).add(vectors), vectors


class TestAppendAndTombstone:
    def test_append_assigns_like_add(self, built, rng):
        index, vectors = built
        extra = rng.normal(size=(5, 6))
        positions = [index.append_to_list(vector) for vector in extra]
        assert positions == [40, 41, 42, 43, 44]
        assert index.ntotal == 45 and index.n_alive == 45
        # The grown index equals an index built over all 45 at once.
        rebuilt = IVFIndex(n_clusters=4)
        rebuilt._centroids = index._centroids
        rebuilt._center = index._center
        rebuilt.add(np.concatenate([vectors, extra]))
        for grown, cold in zip(index._lists, rebuilt._lists):
            np.testing.assert_array_equal(np.sort(grown), np.sort(cold))

    def test_tombstoned_positions_are_never_returned(self, built, rng):
        index, vectors = built
        queries = rng.normal(size=(6, 6))
        victims = [0, 7, 13, 39]
        for victim in victims:
            index.tombstone(victim)
        assert index.n_tombstoned == 4
        found = index.search(queries, k=index.ntotal, nprobe=index.n_clusters)
        assert not np.isin(victims, found.indices).any()

    def test_tombstone_is_idempotent_and_bounded(self, built):
        index, _ = built
        index.tombstone(3)
        index.tombstone(3)
        assert index.n_tombstoned == 1
        with pytest.raises(ValueError, match="out of range"):
            index.tombstone(40)
        with pytest.raises(ValueError, match="out of range"):
            index.tombstone(-1)

    def test_append_validates_dim_and_lifecycle(self, built):
        index, _ = built
        with pytest.raises(ValueError, match="dim"):
            index.append_to_list(np.ones(3))
        fresh = IVFIndex()
        with pytest.raises(RuntimeError):
            fresh.append_to_list(np.ones(3))
        with pytest.raises(RuntimeError):
            fresh.tombstone(0)

    def test_exclude_mask_filters_search(self, built, rng):
        index, _ = built
        queries = rng.normal(size=(3, 6))
        exclude = np.zeros(index.ntotal, dtype=bool)
        exclude[:20] = True
        found = index.search(
            queries, k=index.ntotal, nprobe=index.n_clusters, exclude=exclude
        )
        assert not np.isin(np.arange(20), found.indices).any()
        with pytest.raises(ValueError, match="exclude mask"):
            index.search(queries, k=2, exclude=np.zeros(3, dtype=bool))


class TestClone:
    def test_clone_is_copy_on_write(self, built, rng):
        index, _ = built
        clone = index.clone()
        clone.append_to_list(rng.normal(size=6))
        clone.tombstone(0)
        assert clone.ntotal == 41 and clone.n_alive == 40
        assert index.ntotal == 40 and index.n_alive == 40

    def test_original_mutations_do_not_leak_into_clone(self, built, rng):
        index, _ = built
        clone = index.clone()
        index.append_to_list(rng.normal(size=6))
        index.tombstone(5)
        assert clone.ntotal == 40 and clone.n_alive == 40

    def test_appends_on_diverged_clones_keep_their_own_rows(self, built, rng):
        """Appends write into shared spare room; a clone whose next row
        another clone already claimed must not overwrite it."""
        index, _ = built
        index.append_to_list(rng.normal(size=6))  # now has spare room
        older = index.clone()
        first, second = rng.normal(size=(2, 6))
        index.append_to_list(first)
        seen = index.reconstruct(np.arange(index.ntotal))
        older.append_to_list(second)
        np.testing.assert_array_equal(index.reconstruct([41]), [first])
        np.testing.assert_array_equal(older.reconstruct([41]), [second])
        np.testing.assert_array_equal(index.reconstruct(np.arange(42)), seen)
        for each in (index, older):
            found = each.search(each.reconstruct([41]), k=1, nprobe=4, stable=True)
            assert found.row(0)[0][0] == 41
            np.testing.assert_array_equal(
                each.stable_scores(each.reconstruct([41]), np.array([41])),
                [[found.row(0)[1][0]]],
            )


class TestStableSearch:
    def test_stable_matches_unstable_candidate_set(self, built, rng):
        index, _ = built
        queries = rng.normal(size=(4, 6))
        stable = index.search(queries, k=7, nprobe=index.n_clusters, stable=True)
        default = index.search(queries, k=7, nprobe=index.n_clusters)
        for row in range(4):
            s_ids, s_scores = stable.row(row)
            d_ids, _ = default.row(row)
            assert set(s_ids) == set(d_ids)
            assert list(s_scores) == sorted(s_scores, reverse=True)

    def test_stable_is_batch_invariant(self, built, rng):
        index, _ = built
        queries = rng.normal(size=(5, 6))
        # Full probe width (one block) and partial (a block per probe
        # group, most rows in several): a row's result never depends on
        # the batch it arrives in.
        for nprobe in (index.n_clusters, 2):
            batched = index.search(queries, k=5, nprobe=nprobe, stable=True)
            for row in range(5):
                single = index.search(
                    queries[row : row + 1], k=5, nprobe=nprobe, stable=True
                )
                np.testing.assert_array_equal(single.row(0)[0], batched.row(row)[0])
                np.testing.assert_array_equal(single.row(0)[1], batched.row(row)[1])

    def test_stable_ties_break_by_ascending_position(self):
        # Four identical vectors: every score ties; order must be 0,1,2.
        vectors = np.ones((4, 3))
        index = IVFIndex(n_clusters=1).train(vectors).add(vectors)
        found = index.search(np.ones((1, 3)), k=3, nprobe=1, stable=True)
        np.testing.assert_array_equal(found.row(0)[0], [0, 1, 2])
        # k past the population returns everything, still position order.
        found = index.search(np.ones((2, 3)), k=10, nprobe=1, stable=True)
        np.testing.assert_array_equal(found.row(1)[0], [0, 1, 2, 3])
        # Power-of-two multiples of one vector normalise to the same row,
        # so their cosine scores tie exactly, yet they sit in different
        # inverted lists: the scanned block's members are not in
        # position order, and the tie must still resolve by position.
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(60, 4))
        tied = [3, 7, 19, 33, 48, 52]
        vectors[tied] = vectors[3] * np.array([1, 8, 0.125, 4, 0.25, 2])[:, None]
        index = IVFIndex(n_clusters=6).train(vectors).add(vectors)
        assert len(set(index._assignments[tied])) > 2
        for k in (1, 2, 4):
            found = index.search(vectors[3:4], k=k, nprobe=6, stable=True)
            np.testing.assert_array_equal(found.row(0)[0], tied[:k])


class TestTombstonePersistence:
    def test_round_trip_preserves_tombstones(self, built, tmp_path, rng):
        index, _ = built
        index.append_to_list(rng.normal(size=6))
        index.tombstone(2)
        index.tombstone(40)
        path = tmp_path / "ivf.json"
        index.save(path)
        loaded = IVFIndex.load(path)
        assert loaded.ntotal == 41
        assert loaded.n_tombstoned == 2
        np.testing.assert_array_equal(loaded.alive_mask, index.alive_mask)

    def test_clean_index_document_has_no_tombstone_key(self, built, tmp_path):
        import json

        index, _ = built
        payload = json.loads(index.save(tmp_path / "ivf.json").read_text())
        assert "tombstones" not in payload


class TestStatsDefensive:
    """The `repro index stats` ZeroDivisionError regression pass."""

    def test_degenerate_identical_vectors(self):
        # 10 identical vectors, 4 requested clusters: 3 lists are empty.
        vectors = np.ones((10, 3))
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        stats = index.stats()
        assert stats["empty_lists"] == 3
        assert stats["list_min"] == 0
        assert stats["imbalance"] == 1.0

    def test_everything_tombstoned_reports_zeros(self):
        vectors = np.ones((6, 2))
        index = IVFIndex(n_clusters=2).train(vectors).add(vectors)
        for position in range(6):
            index.tombstone(position)
        stats = index.stats()
        assert stats["alive"] == 0
        assert stats["tombstones"] == 6
        assert stats["list_max"] == 0
        assert stats["imbalance"] == 0.0
        assert stats["empty_lists"] == index.n_clusters

    def test_untrained_index_reports_cleanly(self):
        stats = IVFIndex(n_clusters=4).stats()
        assert stats["trained"] is False
        assert stats["ntotal"] == 0
        assert stats["list_mean"] == 0.0
        assert stats["imbalance"] == 0.0

    def test_sizes_are_alive_aware(self):
        vectors = np.concatenate([np.zeros((4, 2)), np.ones((4, 2)) * 9])
        index = IVFIndex(n_clusters=2).train(vectors).add(vectors)
        before = index.stats()
        assert before["list_max"] == 4
        index.tombstone(0)
        after = index.stats()
        assert after["alive"] == 7
        assert sorted([after["list_min"], after["list_max"]]) == [3, 4]

    def test_cli_index_stats_on_degenerate_index(self, tmp_path, capsys):
        from repro.cli import main

        vectors = np.ones((10, 3))
        index = IVFIndex(n_clusters=4).train(vectors).add(vectors)
        path = tmp_path / "degenerate.ivf.json"
        index.save(path)
        assert main(["index", "stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "imbalance=1.000" in out
        assert "empty_lists=3" in out
