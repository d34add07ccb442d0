"""Cross-path oracle: every exact candidate path against one brute force.

The oracle scores every (query, live target) pair and orders each row by
the total order ``(-score, position asc)``.  Paths that claim exactness
at full probe width must reproduce it:

* pair-stable paths (``IVFIndex.search(stable=True)``, the serving
  delta layer) bitwise — ids, order and scores — against the row-wise
  oracle, which scores each query alone against every target;
* BLAS paths (``IVFIndex.search``, ``blocked_candidates`` under two
  memory budgets) with the same ids wherever the oracle's k-th and
  (k+1)-th scores differ by more than 1e-9 (closer than that, roundoff
  may legitimately swap them).

The inputs hold exact duplicate vectors, so ties at the cut span
inverted lists, and tombstoned positions.
"""

import numpy as np
import pytest

from repro.index import IVFIndex, blocked_candidates
from repro.serve.state import ServingState
from repro.similarity.metrics import prepare_stable_metric, similarity_matrix
from repro.storage import EmbeddingStore

K = 5
N_TARGETS = 60
N_BASE = 50  # serving: the rest arrive as inserts
CLUSTERS = 4
DELETED = (2, 17, 40, 55)
DUPLICATES = [11, 23, 37, 41, 52]  # copies of target 5

PATHS = ("ivf-stable", "ivf-blas", "blocked-small-budget", "blocked-no-budget", "serving")


def make_inputs(seed):
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(N_TARGETS, 6))
    targets[DUPLICATES] = targets[5]
    queries = np.concatenate([rng.normal(size=(10, 6)), targets[[5, 9]], -targets[[5]]])
    return queries, targets


def oracle(queries, targets, live, metric, stable):
    """Per row: live positions and scores under (-score, position asc)."""
    if stable:
        scores = np.stack([
            prepare_stable_metric(metric, query[None, :], targets)(slice(None))[0]
            for query in queries
        ])
    else:
        scores = similarity_matrix(queries, targets, metric=metric)
    positions = np.flatnonzero(live)
    scores = scores[:, positions]
    order = np.lexsort((np.broadcast_to(positions, scores.shape), -scores), axis=1)
    return positions[order], np.take_along_axis(scores, order, axis=1)


def serve(tmp_path, metric, queries, targets):
    store_path = tmp_path / "emb.store"
    store = EmbeddingStore.create(
        store_path, (N_BASE, targets.shape[1]), "float64", capacity=N_TARGETS
    )
    store[:] = targets[:N_BASE]
    store.update_checksum()
    store.close()
    index = IVFIndex(n_clusters=CLUSTERS, metric=metric)
    index.train(targets[:N_BASE]).add(targets[:N_BASE]).save(tmp_path / "ivf.json")
    state = ServingState.load(store_path, tmp_path / "ivf.json")
    for vector in targets[N_BASE:]:
        state.insert(vector)  # ids N_BASE.. follow position order
    for entity_id in DELETED:
        assert state.delete(entity_id)
    return [(r.entity_ids, r.scores) for r in state.query(queries, K)]


def run_path(path, metric, queries, targets, tmp_path):
    """``(rows, live mask, pair-stable?)`` for one path."""
    live = np.ones(N_TARGETS, dtype=bool)
    if path == "serving":
        live[list(DELETED)] = False
        return serve(tmp_path, metric, queries, targets), live, True
    if path.startswith("blocked"):
        budget = 2_000 if path == "blocked-small-budget" else None
        found = blocked_candidates(
            queries, targets, K, metric=metric, memory_budget=budget,
            n_clusters=CLUSTERS, nprobe=CLUSTERS,
        )
        return [found.row(i) for i in range(len(queries))], live, False
    index = IVFIndex(n_clusters=CLUSTERS, metric=metric).train(targets).add(targets)
    for position in DELETED:
        index.tombstone(position)
    live[list(DELETED)] = False
    stable = path == "ivf-stable"
    found = index.search(queries, K, nprobe=CLUSTERS, stable=stable)
    return [found.row(i) for i in range(len(queries))], live, stable


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
@pytest.mark.parametrize("path", PATHS)
def test_path_matches_oracle(path, metric, seed, tmp_path):
    queries, targets = make_inputs(seed)
    rows, live, stable = run_path(path, metric, queries, targets, tmp_path)
    want_ids, want_scores = oracle(queries, targets, live, metric, stable)
    assert len(rows) == len(queries)
    for row, (ids, scores) in enumerate(rows):
        if stable:
            np.testing.assert_array_equal(ids, want_ids[row, :K])
            np.testing.assert_array_equal(scores, want_scores[row, :K])
            continue
        kth, after = want_scores[row, K - 1], want_scores[row, K]
        if kth - after > 1e-9:
            assert set(ids) == set(want_ids[row, :K])
        np.testing.assert_allclose(scores, want_scores[row, :K], atol=1e-9)
