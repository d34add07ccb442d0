"""Determinism matrix: every registered matcher, bitwise-repeatable.

The library's contract (utils/rng.py, similarity/engine.py) is that the
same seed yields byte-identical predictions — regardless of whether the
engine cache serves the score matrix and of how its shard grid carves
it into tiles.  Each cell of the matrix below runs a matcher
twice under one configuration and compares raw prediction bytes.
"""

import numpy as np
import pytest

from repro.core.registry import available_matchers, create_matcher
from repro.similarity.engine import SimilarityEngine
from repro.utils.rng import ensure_rng

SEED = 1234
N_SOURCE, N_TARGET, DIM = 40, 44, 16


def _embeddings():
    rng = ensure_rng(SEED)
    source = rng.standard_normal((N_SOURCE, DIM))
    target = np.vstack([
        source[: min(N_SOURCE, N_TARGET)] + 0.05 * rng.standard_normal((min(N_SOURCE, N_TARGET), DIM)),
        rng.standard_normal((max(0, N_TARGET - N_SOURCE), DIM)),
    ])
    seed_pairs = np.stack([np.arange(10), np.arange(10)], axis=1)
    return source, target, seed_pairs


def _run_once(name, engine):
    source, target, seed_pairs = _embeddings()
    matcher = create_matcher(name)
    matcher.engine = engine
    fit = getattr(matcher, "fit", None)
    if fit is not None:
        fit(source, target, seed_pairs)
    result = matcher.match(source, target)
    return result.pairs.tobytes(), result.scores.tobytes()


def _run_twice(name, **engine_kwargs):
    with SimilarityEngine(**engine_kwargs) as engine:
        first = _run_once(name, engine)
        second = _run_once(name, engine)
    return first, second


@pytest.mark.parametrize("name", available_matchers())
class TestDeterminismMatrix:
    def test_repeat_run_byte_identical(self, name):
        first, second = _run_twice(name)
        assert first == second

    def test_cache_does_not_change_bytes(self, name):
        # Cached vs recomputed score matrices must be the same array;
        # with the cache on, the second run inside each pair is a hit.
        cached, cached2 = _run_twice(name, cache=True)
        uncached, uncached2 = _run_twice(name, cache=False)
        assert cached == cached2 == uncached == uncached2

    def test_grid_does_not_change_bytes(self, name):
        # A forced row x column grid against the default single tile: at
        # this size every tile's dot products sum in the same order, so
        # tiling must not move a single prediction byte.
        default, default2 = _run_twice(name)
        tiled, tiled2 = _run_twice(name, chunk_rows=8, shard_cols=8)
        assert default == default2 == tiled == tiled2
