"""The paper's protocol: seven matchers on prebuilt unified embeddings.

One job is the paper's main comparison on one DBP15K-like preset: every
matcher in ``PAPER_MATCHERS`` matches the test queries against the
candidate targets through one shared :class:`SimilarityEngine` (so the
engine's score cache is exercised exactly as the experiment runner uses
it), and each result is scored against the gold links.

A run generates several presets from its seed and its jobs cycle
through them, so the reported F1 and job time are not those of one
draw of the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.common import RunRecord, check, fingerprint, mean, median, peak_rss_mb
from perfbench.jobs import layer_table, repeat, repeat_setup, span_table
from perfbench.spans import Tracer

PRESET = "dbp15k/zh_en"
#: Preset scale: 700 test links, a matcher sweep of a few seconds.
SCALE = 2.0
REGIME = "R"
#: Presets generated per run; job j sweeps preset j mod this.
INSTANCES = 4
#: Set-ups (all presets) timed per run; ``setup_s`` is their median.
SETUP_REPS = 7

LAYER_METRICS = {
    "core.greedy": "core.greedy_s",
    "core.csls": "core.csls_s",
    "core.rinf": "core.rinf_s",
    "core.sinkhorn": "core.sinkhorn_s",
    "core.hungarian": "core.hungarian_s",
    "core.stable": "core.stable_s",
    "core.rl": "core.rl_s",
    "similarity.similarity": "similarity.similarity_s",
    "eval.evaluate_pairs": "eval.evaluate_s",
}


@dataclass(frozen=True)
class Instance:
    """One preset's matching problem: sliced and full embeddings, gold."""

    source: np.ndarray
    target: np.ndarray
    gold: np.ndarray
    full_source: np.ndarray
    full_target: np.ndarray
    seed_pairs: np.ndarray

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.source, self.target, self.gold, self.full_source,
                self.full_target, self.seed_pairs)


def _matcher_span(args: tuple) -> str:
    """``core.<module>`` of the matcher whose method was called."""
    return "core." + type(args[0]).__module__.rsplit(".", 1)[-1]


def run(
    workload: str, seed: int, seconds: float, workdir: Path, trace: bool
) -> RunRecord:
    from repro.core.registry import PAPER_MATCHERS, create_matcher
    from repro.datasets import zoo
    from repro.eval import metrics as eval_metrics
    from repro.experiments import regimes
    from repro.similarity.engine import SimilarityEngine

    def build(instance: int) -> Instance:
        instance_seed = seed * INSTANCES + instance
        task = zoo.load_preset(PRESET, scale=SCALE, seed=instance_seed)
        embeddings = regimes.build_embeddings(
            task, REGIME, seed=instance_seed, preset_name=PRESET
        )
        queries = task.test_query_ids()
        candidate_ids = task.candidate_target_ids()
        return Instance(
            source=embeddings.source[queries],
            target=embeddings.target[candidate_ids],
            gold=_gold_rows(task, queries, candidate_ids),
            full_source=embeddings.source,
            full_target=embeddings.target,
            seed_pairs=task.seed_index_pairs(),
        )

    def setup() -> list[Instance]:
        return [build(instance) for instance in range(INSTANCES)]

    setup_s, instances = repeat_setup(setup, SETUP_REPS)
    record = RunRecord()
    record.detail["input_fingerprint"] = fingerprint(
        workload, PRESET, SCALE, REGIME,
        *(array for instance in instances for array in instance.arrays()),
    )
    engines: list[SimilarityEngine] = []
    jobs_started = itertools.count()

    def job():
        instance = next(jobs_started) % INSTANCES
        data = instances[instance]
        engine = SimilarityEngine()
        engines.append(engine)
        outputs = {}
        try:
            for name in PAPER_MATCHERS:
                matcher = create_matcher(name)
                matcher.engine = engine
                if hasattr(matcher, "fit") and len(data.seed_pairs):
                    matcher.fit(data.full_source, data.full_target, data.seed_pairs)
                result = matcher.match(data.source, data.target)
                f1 = eval_metrics.evaluate_pairs(result.pairs, data.gold).f1
                outputs[name] = (result.pairs, f1)
        finally:
            engine.close()
        return instance, outputs

    walls, cpus, outputs = repeat(job, seconds, min_jobs=INSTANCES)
    accuracy = _check_outputs(outputs, PAPER_MATCHERS, instances)
    entities = mean(len(data.source) for data in instances) * len(PAPER_MATCHERS)
    record.attempted = len(outputs) * len(PAPER_MATCHERS)
    record.metrics = {
        "setup_s": setup_s,
        "entities_per_s": entities / median(walls),
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": median(walls) * 1e3,
    }
    first: dict[int, dict] = {}
    for instance, job_outputs in outputs:
        first.setdefault(instance, job_outputs)
    first = dict(sorted(first.items()))
    record.detail.update(
        jobs=len(walls),
        job_s=[round(wall, 4) for wall in walls],
        test_links=[len(data.source) for data in instances],
        f1={
            name: round(mean(job[name][1] for job in first.values()), 6)
            for name in PAPER_MATCHERS
        },
        output_fingerprint=fingerprint(
            *(pairs for job in first.values() for pairs, _ in job.values())
        ),
    )
    if not trace:
        return record

    from repro.core.base import PipelineMatcher
    from repro.core.rl import RLMatcher

    with Tracer() as setup_tracer:
        setup_tracer.wrap(zoo, "load_preset", "experiments.embeddings")
        setup_tracer.wrap(regimes, "build_embeddings", "experiments.embeddings")
        build(0)
    engines.clear()
    jobs_started = itertools.count()  # traced jobs start from the first input
    with Tracer() as tracer:
        tracer.wrap(PipelineMatcher, "match", _matcher_span)
        tracer.wrap(RLMatcher, "fit", _matcher_span)
        tracer.wrap(SimilarityEngine, "similarity", "similarity.similarity")
        tracer.wrap(eval_metrics, "evaluate_pairs", "eval.evaluate_pairs")
        traced_walls, traced_cpus, traced_outputs = repeat(
            job, seconds, tracer, min_jobs=INSTANCES
        )
    _check_outputs(outputs + traced_outputs, PAPER_MATCHERS, instances)
    layers = layer_table(
        tracer, LAYER_METRICS, len(traced_walls), traced_walls, traced_cpus
    )
    caches = [engine.cache_info() for engine in engines[1:]]  # warm-up dropped
    hits = sum(cache["hits"] for cache in caches)
    misses = sum(cache["misses"] for cache in caches)
    layers["similarity.cache_hit_ratio"] = hits / (hits + misses)
    layers["experiments.embeddings_s"] = sum(
        span.duration for span in setup_tracer.spans
    )
    layers["trace.overhead_ratio"] = median(traced_walls) / median(walls) - 1.0
    record.attempted += len(traced_outputs) * len(PAPER_MATCHERS)
    record.metrics = layers
    record.detail["spans"] = span_table(tracer)
    record.detail["span_records"] = tracer.as_records()
    return record


def _gold_rows(task, queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Gold test links as (query row, candidate row) pairs."""
    query_row = {int(entity): row for row, entity in enumerate(queries)}
    candidate_row = {int(entity): row for row, entity in enumerate(candidates)}
    return np.array(
        [
            (query_row[int(source)], candidate_row[int(target)])
            for source, target in task.test_index_pairs()
        ],
        dtype=np.int64,
    )


def _check_outputs(outputs: list, matchers: tuple[str, ...], instances: list) -> float:
    """Every matcher answered every query, identically in every job on
    the same preset; returns the mean F1 over matchers and presets.

    No supervisor is attached, so a matcher cannot fall back to another:
    a failure raises and the run ends without a result.
    """
    first: dict[int, dict] = {}
    for instance, job_outputs in outputs:
        n = len(instances[instance].source)
        check(
            tuple(job_outputs) == tuple(matchers),
            f"matchers ran {tuple(job_outputs)}, expected {matchers}",
        )
        reference = first.setdefault(instance, job_outputs)
        for name, (pairs, f1) in job_outputs.items():
            check(len(pairs) == n, f"{name} returned {len(pairs)} pairs for {n} queries")
            check(len(np.unique(pairs[:, 0])) == n, f"{name} paired a query twice")
            check(
                np.array_equal(pairs, reference[name][0]) and f1 == reference[name][1],
                f"{name} gave different results on the same input",
            )
    check(len(first) == len(instances), "some preset was never swept")
    return mean(f1 for job in first.values() for _, f1 in job.values())
