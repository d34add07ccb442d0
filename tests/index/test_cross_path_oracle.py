"""Cross-path oracle: every exact candidate path against one brute force.

The oracle scores every (query, live target) pair and orders each row by
the total order ``(-score, position asc)``.  Paths that claim exactness
at full probe width must reproduce it:

* pair-stable paths (``IVFIndex.search(stable=True)``, the serving
  delta layer) bitwise — ids, order and scores — against the row-wise
  oracle, which scores each query alone against every target;
* BLAS paths (``IVFIndex.search``, ``blocked_candidates`` under two
  memory budgets, the dense ``SimilarityEngine`` at its default grid
  and on forced 2-D grids, and ``chunked_top_k``)
  with the same ids wherever the oracle's k-th and (k+1)-th scores
  differ by more than 1e-9 (closer than that, roundoff may legitimately
  swap them).

The inputs hold exact duplicate vectors, so ties at the cut span
inverted lists, and tombstoned positions.
"""

import numpy as np
import pytest

from repro.index import IVFIndex, blocked_candidates
from repro.serve.state import ServingState
from repro.similarity import SimilarityEngine, chunked_top_k
from repro.similarity.metrics import prepare_stable_metric, similarity_matrix
from repro.storage import EmbeddingStore

K = 5
N_TARGETS = 60
N_BASE = 50  # serving: the rest arrive as inserts
CLUSTERS = 4
DELETED = (2, 17, 40, 55)
DUPLICATES = [11, 23, 37, 41, 52]  # copies of target 5

#: Dense engine paths: engine options per path.  The 2-D grids cut the
#: 13 x 60 problem into several row and column bands.
ENGINE_OPTIONS = {
    "engine-default": {},
    "engine-shard-cols": {"chunk_rows": 4, "shard_cols": 16},
    "engine-memory-budget": {"memory_budget": 1_000},
}

DENSE_PATHS = (*ENGINE_OPTIONS, "chunked-top-k")

PATHS = (
    "ivf-stable", "ivf-blas", "blocked-small-budget", "blocked-no-budget", "serving",
    *DENSE_PATHS,
)


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


def best_first(scores):
    """Per row: the top ``K`` positions and scores of a dense matrix under
    ``(-score, position asc)``."""
    positions = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    order = np.lexsort((positions, -scores), axis=1)[:, :K]
    return list(zip(order, np.take_along_axis(scores, order, axis=1)))


def run_path(path, metric, queries, targets, tmp_path):
    """``(rows, live mask, pair-stable?)`` for one path."""
    live = np.ones(N_TARGETS, dtype=bool)
    if path in ENGINE_OPTIONS:
        with SimilarityEngine(cache=False, **ENGINE_OPTIONS[path]) as engine:
            scores = engine.similarity(queries, targets, metric=metric)
        return best_first(scores), live, False
    if path == "chunked-top-k":
        indices, scores = chunked_top_k(queries, targets, K, chunk_size=4, metric=metric)
        return list(zip(indices, scores)), live, False
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
        want = want_scores[row, :K]
        if metric == "euclidean" and path in DENSE_PATHS:
            # The expanded |u|^2 + |v|^2 - 2u.v form rounds in the squared
            # distance; the square root magnifies that near zero distance
            # (a duplicate scores 0 or about -2e-8 depending on the grid).
            scores, want = np.square(scores), np.square(want)
        np.testing.assert_allclose(scores, want, atol=1e-9)


# -- the certified cosine scan -----------------------------------------
#
# ``search(stable=True)`` on cosine scores every probed pair with BLAS
# and rescores pair-stably only the pairs within a rounding bound of
# each row's k-th BLAS score.  These inputs aim at that bound: exact
# duplicates, near-ties that BLAS and the pair-stable formula order
# differently at the cut, zero rows, and blocks holding fewer than k
# live members.

CERTIFIED_CASES = ("duplicates", "near-ties", "zero-rows", "sparse-blocks")
CERTIFIED_DIM = 32
CERTIFIED_TARGETS = 120


def certified_inputs(case, batch):
    """``(queries, targets, dead positions, exclude mask, k)`` for a case."""
    rng = np.random.default_rng(CERTIFIED_CASES.index(case))
    targets = rng.normal(size=(CERTIFIED_TARGETS, CERTIFIED_DIM))
    queries = rng.normal(size=(batch, CERTIFIED_DIM))
    dead = rng.choice(CERTIFIED_TARGETS, 10, replace=False)
    exclude = rng.random(CERTIFIED_TARGETS) < 0.1
    k = K
    base = targets[0].copy()
    if case == "duplicates":
        targets[::3] = base
        queries[::2] = base
    elif case == "near-ties":
        # Copies of one vector a few ulps apart in every coordinate.
        targets[::2] = base + rng.integers(-4, 5, size=(60, CERTIFIED_DIM)) * np.spacing(base)
        queries = base + 1e-3 * rng.normal(size=(batch, CERTIFIED_DIM))
        queries[0] = base
    elif case == "zero-rows":
        targets[::4] = 0.0
        queries[-1] = 0.0
    else:  # sparse-blocks: k exceeds the live members of every block
        dead = np.flatnonzero(np.arange(CERTIFIED_TARGETS) % 6 != 0)
        k = 30
    return queries, targets, dead, exclude, k


def certified_oracle(index, queries, nprobe, exclude, k):
    """Per row: the pair-stable top ``k`` of the positions the probe
    scans, under ``(-score, position asc)``.  The scanned set comes from
    a BLAS search asked for every candidate."""
    scanned = index.search(queries, index.ntotal, nprobe=nprobe, exclude=exclude)
    rows = []
    for row, query in enumerate(queries):
        positions = np.sort(scanned.row(row)[0])
        scores = prepare_stable_metric(
            "cosine", query[None, :], index.reconstruct(positions)
        )(slice(None))[0]
        order = np.lexsort((positions, -scores))[:k]
        rows.append((positions[order], scores[order]))
    return rows


def test_near_tie_inputs_reorder_under_blas():
    """The near-tie case really puts BLAS and pair-stable at odds."""
    queries, targets, _, _, k = certified_inputs("near-ties", 64)
    blas = similarity_matrix(queries, targets)
    stable = prepare_stable_metric("cosine", queries, targets)(slice(None))
    positions = np.arange(CERTIFIED_TARGETS)
    differs = [
        set(np.lexsort((positions, -blas[row]))[:k])
        != set(np.lexsort((positions, -stable[row]))[:k])
        for row in range(len(queries))
    ]
    assert any(differs)


@pytest.mark.parametrize("nprobe", [CLUSTERS, 2])
@pytest.mark.parametrize("batch", [1, 2, 17, 64])
@pytest.mark.parametrize("case", CERTIFIED_CASES)
def test_certified_scan_matches_oracle(case, batch, nprobe):
    queries, targets, dead, exclude, k = certified_inputs(case, batch)
    index = IVFIndex(n_clusters=CLUSTERS).train(targets).add(targets)
    for position in dead:
        index.tombstone(int(position))
    for mask in (None, exclude):
        found = index.search(queries, k, nprobe=nprobe, exclude=mask, stable=True)
        want = certified_oracle(index, queries, nprobe, mask, k)
        assert found.n_sources == batch
        for row, (ids, scores) in enumerate(want):
            got_ids, got_scores = found.row(row)
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_scores, scores)
