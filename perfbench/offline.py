"""offline-scan: memmap stores -> IVF-blocked candidates -> sparse greedy.

The pair is large with a small k and the O(n k) greedy decoder, so
candidate generation — the ``index`` layer: k-means training, list
fill, the per-query scan, CSR assembly — does nearly all the work, and
the ``core`` matcher almost none.

How long the scan takes depends on how evenly k-means splits the
pair, which differs between draws by up to a fifth.  A run therefore
generates several pairs from its seed and its jobs cycle through them,
so the median job is a median over draws.
"""

from __future__ import annotations

import itertools
import shutil
from pathlib import Path

import numpy as np

from perfbench.common import RunRecord, check, fingerprint, median, peak_rss_mb
from perfbench.jobs import layer_table, repeat, repeat_setup, span_table
from perfbench.spans import Tracer

N = 20_000
K = 10
#: Embedding width of the synthetic pair (as in the scale benchmark).
DIM = 32
#: Noise of each side around the shared latent vectors.
NOISE = 0.3
#: Candidate-generation settings shared with benchmarks/test_scale.py.
NPROBE = 8
TRAIN_ITERATIONS = 4
MEMORY_BUDGET = 256 * 2**20
#: Aligned pairs per run; job j matches pair j mod this.
INSTANCES = 4
#: Set-ups (writing every pair's stores) timed per run; ``setup_s`` is
#: their median.
SETUP_REPS = 7

#: Span name -> per-layer metric.
LAYER_METRICS = {
    "index.blocked_candidates": "index.blocked_self_s",
    "index.train": "index.train_s",
    "index.add": "index.add_s",
    "index.search": "index.search_s",
    "candidates.from_rows": "candidates.from_rows_s",
    "candidates.vstack": "candidates.vstack_s",
    "core.match_candidates": "core.match_candidates_s",
    "storage.open": "storage.open_s",
}


def aligned_pair(
    seed: int, n: int, instance: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Source and target embeddings whose row i is the same entity."""
    rng = np.random.default_rng([seed, instance])
    latent = rng.normal(size=(n, DIM)).astype(np.float32)
    source = latent + NOISE * rng.normal(size=(n, DIM)).astype(np.float32)
    target = latent + NOISE * rng.normal(size=(n, DIM)).astype(np.float32)
    return source, target


def run(
    workload: str, seed: int, seconds: float, workdir: Path, trace: bool
) -> RunRecord:
    from repro.core.registry import create_matcher
    from repro.index import blocked as index_blocked
    from repro.obs.metrics import get_metrics
    from repro.storage import EmbeddingStore

    pairs = [aligned_pair(seed, N, instance) for instance in range(INSTANCES)]
    record = RunRecord()
    record.detail["input_fingerprint"] = fingerprint(
        workload, N, K, *(matrix for pair in pairs for matrix in pair)
    )

    def write_stores() -> list[tuple[Path, Path]]:
        shutil.rmtree(workdir / "stores", ignore_errors=True)
        paths = []
        for instance, pair in enumerate(pairs):
            stores = workdir / "stores" / str(instance)
            stores.mkdir(parents=True)
            paths.append((stores / "source.store", stores / "target.store"))
            for path, matrix in zip(paths[-1], pair):
                EmbeddingStore.write(path, matrix).close()
        return paths

    setup_s, store_paths = repeat_setup(write_stores, SETUP_REPS)
    jobs_started = itertools.count()
    #: Candidate count of every job run, warm-ups included.
    nnz_log: list[int] = []

    def job():
        instance = next(jobs_started) % INSTANCES
        source_path, target_path = store_paths[instance]
        source_store = EmbeddingStore.open(source_path)
        target_store = EmbeddingStore.open(target_path)
        try:
            candidates = index_blocked.blocked_candidates(
                source_store,
                target_store,
                K,
                nprobe=NPROBE,
                train_iterations=TRAIN_ITERATIONS,
                memory_budget=MEMORY_BUDGET,
            )
            result = create_matcher("Greedy").match_candidates(candidates)
        finally:
            source_store.close()
            target_store.close()
        nnz_log.append(candidates.nnz)
        return instance, candidates.nnz, result.pairs

    walls, cpus, outputs = repeat(job, seconds, min_jobs=INSTANCES)
    accuracy = _check_outputs(outputs)
    record.attempted = len(outputs)
    record.metrics = {
        "setup_s": setup_s,
        "entities_per_s": N / median(walls),
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": median(walls) * 1e3,
    }
    record.detail.update(
        jobs=len(walls),
        job_s=[round(wall, 4) for wall in walls],
        output_fingerprint=fingerprint(*_first_per_instance(outputs).values()),
    )
    if not trace:
        return record

    from repro.core.greedy import DInf
    from repro.index.candidates import CandidateSet
    from repro.index.ivf import IVFIndex

    registry = get_metrics()
    with Tracer() as tracer:
        tracer.wrap(index_blocked, "blocked_candidates", "index.blocked_candidates")
        tracer.wrap(IVFIndex, "train", "index.train")
        tracer.wrap(IVFIndex, "add", "index.add")
        tracer.wrap(IVFIndex, "search", "index.search")
        tracer.wrap(CandidateSet, "from_rows", "candidates.from_rows")
        tracer.wrap(CandidateSet, "vstack", "candidates.vstack")
        tracer.wrap(DInf, "match_candidates", "core.match_candidates")
        tracer.wrap(EmbeddingStore, "open", "storage.open")
        jobs_started = itertools.count()  # traced jobs start from pair 0
        scanned0 = registry.counter("index.search.scanned")
        queries0 = registry.counter("index.search.queries")
        jobs0 = len(nnz_log)
        traced_walls, traced_cpus, traced_outputs = repeat(
            job, seconds, tracer, min_jobs=INSTANCES
        )
        # The counters and nnz_log[jobs0:] both cover the warm-up job too.
        scanned = registry.counter("index.search.scanned") - scanned0
        queries = registry.counter("index.search.queries") - queries0
        kept = sum(nnz_log[jobs0:])
    _check_outputs(outputs + traced_outputs)
    with Tracer() as setup_tracer:
        setup_tracer.wrap(EmbeddingStore, "write", "storage.write")
        write_stores()
    layers = layer_table(
        tracer, LAYER_METRICS, len(traced_walls), traced_walls, traced_cpus
    )
    layers["storage.write_s"] = sum(span.duration for span in setup_tracer.spans)
    layers["index.scanned_per_query"] = scanned / queries
    layers["index.useful_ratio"] = kept / scanned
    layers["trace.overhead_ratio"] = median(traced_walls) / median(walls) - 1.0
    record.attempted += len(traced_outputs)
    record.metrics = layers
    record.detail["spans"] = span_table(tracer)
    record.detail["span_records"] = tracer.as_records()
    return record


def _first_per_instance(outputs: list) -> dict[int, np.ndarray]:
    first: dict[int, np.ndarray] = {}
    for instance, _, pairs in outputs:
        first.setdefault(instance, pairs)
    return dict(sorted(first.items()))


def _check_outputs(outputs: list) -> float:
    """Structural checks on every job; returns Hits@1 over the pairs."""
    first: dict[int, tuple[int, np.ndarray]] = {}
    for instance, nnz, pairs in outputs:
        check(nnz <= N * K, f"nnz {nnz} exceeds n*k {N * K}")
        check(len(pairs) == N, f"{len(pairs)} pairs for {N} source rows")
        check(len(np.unique(pairs[:, 0])) == N, "some source row has more than one pair")
        first_nnz, first_pairs = first.setdefault(instance, (nnz, pairs))
        check(
            nnz == first_nnz and np.array_equal(pairs, first_pairs),
            "repeated jobs on the same input disagree",
        )
    check(len(first) == INSTANCES, "some pair was never matched")
    return float(np.mean([
        np.mean(pairs[:, 0] == pairs[:, 1]) for _, pairs in first.values()
    ]))
