"""Observability overhead micro-benchmark.

Times the two hottest instrumented paths — the engine's chunked
similarity computation and the per-iteration Sinkhorn loop — against
uninstrumented reference implementations of the *same* work, with the
default null recorder installed.  Records min-of-N wall-clock for the
disabled-tracing, enabled-tracing, and reference variants (disabled and
reference timed in alternation, one call of each per repeat) into
``benchmarks/results/BENCH_obs.json``, and asserts the disabled-tracing
overhead stays under the 5 % budget (DESIGN.md §7).

Min-of-N is deliberate: the minimum is the least noisy estimator of the
true cost on a shared machine, and the overhead being measured is a
constant few function calls per span site.

A second benchmark covers the run ledger and live event stream: with
neither opted in, a ``run_experiment`` sweep's only residue is the
early-out ``events.emit()`` calls and a handful of ``is None`` checks,
and their implied cost must stay under 2 % of the sweep's wall time.

A third covers the serving daemon's *always-on* telemetry: the latency
histogram observe, the SLO record, and the access-log emit every
completed request pays.  Their summed per-call price must stay under
5 % of the cheapest real request work the daemon does.
"""

import json
import time

import numpy as np
import pytest

from repro.core.sinkhorn import _EPS, sinkhorn_scores
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import events as obs_events
from repro.obs import trace
from repro.obs.ledger import RunLedger
from repro.similarity.engine import SimilarityEngine
from repro.similarity.metrics import prepare_metric
from repro.utils.parallel import plan_shards
from repro.utils.validation import check_embedding_matrix, check_shape_compatible

from conftest import RESULTS_DIR

pytestmark = pytest.mark.obs

OVERHEAD_BUDGET = 1.05  # disabled tracing must cost < 5 %
SWEEP_BUDGET = 1.02  # disabled ledger+events must cost < 2 % of a sweep
DURABLE_BUDGET = 1.05  # fsync'd ledger appends must cost < 5 % of a sweep
SERVE_BUDGET = 1.05  # always-on request telemetry must cost < 5 % of a request

ENGINE_N, ENGINE_DIM, ENGINE_CHUNK = 2000, 128, 128
SINKHORN_N, SINKHORN_ITERATIONS = 300, 100
REPEATS = 5
#: Repeats of the disabled/reference pairs the budgets are asserted on.
PAIRED_REPEATS = 15


def _merge_results(key, entry):
    """Merge one benchmark section into BENCH_obs.json (tests may run solo)."""
    path = RESULTS_DIR / "BENCH_obs.json"
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        document = {}
    document[key] = entry
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _min_of(func, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_min_of(first, second, repeats=PAIRED_REPEATS):
    """Min-of-N of two functions timed in alternation: one call of each
    per repeat, the order swapped every repeat, so a change in machine
    speed during the measurement lands on both sides alike."""
    best = [float("inf"), float("inf")]
    funcs = (first, second)
    for repeat in range(repeats):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            start = time.perf_counter()
            funcs[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def _engine_embeddings():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(ENGINE_N, ENGINE_DIM))
    target = source + 0.3 * rng.normal(size=(ENGINE_N, ENGINE_DIM))
    return source, target


def _reference_similarity(source, target):
    """``SimilarityEngine.similarity`` (cache off) with every obs call
    stripped: the same input validation, then the same tile loop."""
    source = check_embedding_matrix(source, "source")
    target = check_embedding_matrix(target, "target")
    check_shape_compatible(source, target)
    kernel = prepare_metric("cosine", source, target)
    out = np.empty((source.shape[0], target.shape[0]), dtype=np.float64)
    for shard in plan_shards(source.shape[0], target.shape[0], chunk_rows=ENGINE_CHUNK):
        out[shard.rows, shard.cols] = kernel(shard.rows, shard.cols)
    return out


def _reference_sinkhorn(scores, iterations, temperature):
    """sinkhorn_scores with the span/metric/guard-event calls stripped."""

    def logsumexp(matrix, axis):
        peak = matrix.max(axis=axis, keepdims=True)
        np.subtract(matrix, peak, out=work)
        np.exp(work, out=work)
        return peak + np.log(np.maximum(work.sum(axis=axis, keepdims=True), _EPS))

    log_kernel = scores / temperature
    assert np.all(np.isfinite(log_kernel))
    work = np.empty_like(log_kernel)
    for _ in range(iterations):
        log_kernel -= logsumexp(log_kernel, axis=1)
        log_kernel -= logsumexp(log_kernel, axis=0)
        assert np.all(np.isfinite(log_kernel))
    return np.exp(log_kernel, out=log_kernel)


def test_disabled_tracing_overhead_under_budget():
    assert not trace.tracing_enabled()  # the default the budget applies to

    source, target = _engine_embeddings()
    rng = np.random.default_rng(1)
    sinkhorn_input = rng.normal(size=(SINKHORN_N, SINKHORN_N))

    record = {
        "budget_ratio": OVERHEAD_BUDGET,
        "repeats": REPEATS,
        "paired_repeats": PAIRED_REPEATS,
        "paths": {},
    }

    # -- engine similarity: one span + N chunk spans per computation ----
    with SimilarityEngine(cache=False, chunk_rows=ENGINE_CHUNK) as engine:
        np.testing.assert_allclose(  # same work before timing it
            engine.similarity(source, target), _reference_similarity(source, target)
        )
        disabled, reference = _paired_min_of(
            lambda: engine.similarity(source, target),
            lambda: _reference_similarity(source, target),
        )
        with trace.recording():
            enabled = _min_of(lambda: engine.similarity(source, target))
    record["paths"]["engine.similarity"] = {
        "n": ENGINE_N, "dim": ENGINE_DIM, "chunk_rows": ENGINE_CHUNK,
        "reference_seconds": reference,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_ratio": disabled / reference,
    }

    # -- sinkhorn: one span per iteration -------------------------------
    np.testing.assert_allclose(
        sinkhorn_scores(sinkhorn_input, SINKHORN_ITERATIONS, 0.1),
        _reference_sinkhorn(sinkhorn_input, SINKHORN_ITERATIONS, 0.1),
    )
    disabled, reference = _paired_min_of(
        lambda: sinkhorn_scores(sinkhorn_input, SINKHORN_ITERATIONS, 0.1),
        lambda: _reference_sinkhorn(sinkhorn_input, SINKHORN_ITERATIONS, 0.1),
    )
    with trace.recording():
        enabled = _min_of(
            lambda: sinkhorn_scores(sinkhorn_input, SINKHORN_ITERATIONS, 0.1)
        )
    record["paths"]["sinkhorn"] = {
        "n": SINKHORN_N, "iterations": SINKHORN_ITERATIONS,
        "reference_seconds": reference,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_ratio": disabled / reference,
    }

    _merge_results("tracing", record)

    for path, entry in record["paths"].items():
        assert entry["disabled_ratio"] < OVERHEAD_BUDGET, (
            f"{path}: disabled-tracing overhead "
            f"{(entry['disabled_ratio'] - 1) * 100:.1f}% exceeds the "
            f"{(OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
        )


def test_disabled_ledger_and_events_overhead_under_budget(tmp_path):
    """Opting out of the ledger and event stream must stay ~free.

    With no sinks and no ledger, a sweep's instrumentation residue is
    exactly its early-out ``emit()`` calls (the ``ledger is None``
    branches are single pointer checks).  Count the events one enabled
    sweep produces, price a disabled ``emit()`` by timing a tight loop,
    and require the implied total under 2 % of the sweep's wall time.
    """
    assert not obs_events.enabled()
    config = ExperimentConfig(
        preset="dbp15k/zh_en", input_regime="R", scale=0.2, seed=0
    )

    run_experiment(config)  # warm dataset/embedding construction paths
    disabled = _min_of(lambda: run_experiment(config), repeats=3)

    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with obs_events.emitting() as sink:
        start = time.perf_counter()
        run_experiment(config, ledger=ledger)
        enabled = time.perf_counter() - start
    n_events = len(sink.events)
    n_records = len(ledger.records())
    assert n_events > 0 and n_records > 0

    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        obs_events.emit("bench.noop", value=1, other="x")
    per_call = (time.perf_counter() - start) / calls

    implied_overhead = n_events * per_call
    implied_ratio = 1.0 + implied_overhead / disabled
    _merge_results("sweep", {
        "budget_ratio": SWEEP_BUDGET,
        "preset": config.preset,
        "scale": config.scale,
        "disabled_seconds": disabled,
        "enabled_ledger_events_seconds": enabled,
        "events_per_sweep": n_events,
        "ledger_records_per_sweep": n_records,
        "disabled_emit_seconds_per_call": per_call,
        "implied_disabled_ratio": implied_ratio,
    })

    assert implied_ratio < SWEEP_BUDGET, (
        f"{n_events} disabled emit() calls at {per_call * 1e9:.0f}ns imply "
        f"{(implied_ratio - 1) * 100:.2f}% sweep overhead; budget is "
        f"{(SWEEP_BUDGET - 1) * 100:.0f}%"
    )


def test_durable_append_overhead_under_budget(tmp_path):
    """``--durable`` fsync'd ledger appends must stay under 5 % of a sweep.

    A sweep appends one record per matcher cell, so the durable surcharge
    is ``cells x (durable_append - plain_append)``.  Price both append
    variants over repeated real appends (min-of-N over batches, so each
    sample amortises the open/seek cost the same way the sweep does) and
    require the implied surcharge under 5 % of the sweep's wall time.
    """
    from repro.obs.ledger import build_record

    config = ExperimentConfig(
        preset="dbp15k/zh_en", input_regime="R", scale=0.2, seed=0
    )
    run_experiment(config)  # warm dataset/embedding construction paths
    sweep_seconds = _min_of(lambda: run_experiment(config), repeats=3)
    n_records = len(config.matchers)

    record = build_record(
        fingerprint="bench", preset=config.preset, regime="R",
        task=config.preset, matcher="CSLS", seed=0, scale=config.scale,
        metric="cosine", status="ok",
        metrics={"precision": 0.5, "recall": 0.5, "f1": 0.5},
        ranking={"hits@1": 0.5},
    )
    batch = 50

    def _append_batch(durable):
        ledger = RunLedger(tmp_path / f"bench-{durable}.jsonl", durable=durable)
        ledger.path.unlink(missing_ok=True)
        for _ in range(batch):
            ledger.append(record)

    plain = _min_of(lambda: _append_batch(False)) / batch
    durable = _min_of(lambda: _append_batch(True)) / batch

    implied_overhead = n_records * max(durable - plain, 0.0)
    implied_ratio = 1.0 + implied_overhead / sweep_seconds
    _merge_results("durable_append", {
        "budget_ratio": DURABLE_BUDGET,
        "preset": config.preset,
        "scale": config.scale,
        "sweep_seconds": sweep_seconds,
        "ledger_records_per_sweep": n_records,
        "plain_append_seconds": plain,
        "durable_append_seconds": durable,
        "implied_durable_ratio": implied_ratio,
    })

    assert implied_ratio < DURABLE_BUDGET, (
        f"{n_records} durable appends at {durable * 1e3:.2f}ms "
        f"(vs {plain * 1e3:.2f}ms plain) imply "
        f"{(implied_ratio - 1) * 100:.2f}% sweep overhead; budget is "
        f"{(DURABLE_BUDGET - 1) * 100:.0f}%"
    )


def test_serve_request_telemetry_overhead_under_budget(tmp_path):
    """The daemon's always-on per-request telemetry must cost < 5 %.

    Every completed request pays exactly three instrument calls: one
    latency-histogram ``observe``, one SLO ``record``, and one sinkless
    ``serve.access`` emit.  Price each with a tight loop, then require
    their sum under 5 % of the *cheapest* real request work the daemon
    does — a single-vector :meth:`ServingState.query` against a small
    snapshot.  Heavier requests only dilute a fixed surcharge, so the
    ratio measured here is the worst case.
    """
    from repro.index import IVFIndex
    from repro.obs.histogram import Histogram
    from repro.obs.slo import SLOTracker
    from repro.serve.state import ServingState
    from repro.storage import EmbeddingStore

    assert not obs_events.enabled()

    rng = np.random.default_rng(2)
    base = rng.normal(size=(512, 32)).astype(np.float64)
    store = EmbeddingStore.create(
        tmp_path / "emb.store", base.shape, "float64", capacity=520
    )
    store[:] = base
    store.update_checksum()
    store.close()
    IVFIndex(n_clusters=8).train(base).add(base).save(tmp_path / "ivf.json")
    state = ServingState.load(tmp_path / "emb.store", tmp_path / "ivf.json")
    probe_vector = base[0]

    state.query(probe_vector, 10)  # warm the snapshot path
    query_seconds = _min_of(lambda: state.query(probe_vector, 10))
    state.store.close()

    calls = 100_000
    histogram = Histogram()
    start = time.perf_counter()
    for _ in range(calls):
        histogram.observe(0.004)
    observe_per_call = (time.perf_counter() - start) / calls

    tracker = SLOTracker(objective=0.999, latency_threshold=0.25)
    start = time.perf_counter()
    for _ in range(calls):
        tracker.record(True, latency=0.004)
    record_per_call = (time.perf_counter() - start) / calls

    start = time.perf_counter()
    for _ in range(calls):
        obs_events.emit(
            "serve.access", request_id="bench", method="GET",
            path="/healthz", status=200, seconds=0.004,
        )
    emit_per_call = (time.perf_counter() - start) / calls

    per_request = observe_per_call + record_per_call + emit_per_call
    implied_ratio = 1.0 + per_request / query_seconds
    _merge_results("serve_histogram", {
        "budget_ratio": SERVE_BUDGET,
        "query_seconds": query_seconds,
        "histogram_observe_seconds_per_call": observe_per_call,
        "slo_record_seconds_per_call": record_per_call,
        "access_emit_seconds_per_call": emit_per_call,
        "telemetry_seconds_per_request": per_request,
        "implied_request_ratio": implied_ratio,
    })

    assert implied_ratio < SERVE_BUDGET, (
        f"per-request telemetry at {per_request * 1e6:.1f}us against a "
        f"{query_seconds * 1e6:.1f}us floor-cost query implies "
        f"{(implied_ratio - 1) * 100:.2f}% overhead; budget is "
        f"{(SERVE_BUDGET - 1) * 100:.0f}%"
    )
