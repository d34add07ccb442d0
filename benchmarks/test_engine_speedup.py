"""Similarity-engine benchmark: the tile loop and the cache payoff.

Records wall-clock for one cold score-matrix computation (float64 and
float32) and for a cold versus cached seven-matcher sweep, into
``benchmarks/results/BENCH_engine.json``.  Timing is *recorded*, never
asserted — hardware varies; the assertions cover the structural
guarantees only: float32 scores stay within single-precision tolerance
of float64, and a cached sweep performs exactly one similarity
computation.
"""

import json
import time

import numpy as np

from repro.core.registry import PAPER_MATCHERS, create_matcher
from repro.similarity.engine import SimilarityEngine

from conftest import RESULTS_DIR

N_ENTITIES = 1500
DIM = 64
CHUNK_ROWS = 128


def _embeddings():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(N_ENTITIES, DIM))
    target = source + 0.3 * rng.normal(size=(N_ENTITIES, DIM))
    return source, target


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def test_engine_similarity_and_cache_payoff():
    source, target = _embeddings()
    record = {
        "n_entities": N_ENTITIES,
        "dim": DIM,
        "chunk_rows": CHUNK_ROWS,
        "similarity_seconds": None,
        "float32_seconds": None,
        "sweep": {},
    }

    # The cold similarity computation on a fixed chunk grid.
    with SimilarityEngine(cache=False, chunk_rows=CHUNK_ROWS) as engine:
        reference, seconds = _timed(lambda: engine.similarity(source, target))
    record["similarity_seconds"] = seconds

    with SimilarityEngine(dtype="float32", cache=False, chunk_rows=CHUNK_ROWS) as engine:
        scores32, seconds = _timed(lambda: engine.similarity(source, target))
    record["float32_seconds"] = seconds
    np.testing.assert_allclose(scores32, reference, atol=1e-4)

    # Cold versus cached sweep over the paper's seven matchers.  The RL
    # matcher's O(n^2) profile correlations dwarf everything at this n;
    # sweep the six closed-form matchers so S dominates the cold cost.
    matchers = tuple(name for name in PAPER_MATCHERS if name != "RL")

    def sweep(engine):
        for name in matchers:
            matcher = create_matcher(name)
            matcher.engine = engine
            matcher.match(source, target)

    with SimilarityEngine(cache=False, chunk_rows=CHUNK_ROWS) as engine:
        _, cold_seconds = _timed(lambda: sweep(engine))
        cold_computations = engine.stats.computations
    with SimilarityEngine(cache=True, chunk_rows=CHUNK_ROWS) as engine:
        _, cached_seconds = _timed(lambda: sweep(engine))
        cached_stats = engine.stats.as_dict()

    record["sweep"] = {
        "matchers": list(matchers),
        "cold_seconds": cold_seconds,
        "cold_computations": cold_computations,
        "cached_seconds": cached_seconds,
        **{f"cached_{key}": value for key, value in cached_stats.items()},
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"\nengine benchmark written to {path}:\n{json.dumps(record, indent=2)}")

    # Structural guarantees (timing-free).
    assert cold_computations == len(matchers)
    assert cached_stats["computations"] == 1
    assert cached_stats["hits"] == len(matchers) - 1
