"""serve-mixed: a real ``repro serve`` daemon under mixed traffic.

Set-up builds pristine artifacts (a memmap store of base vectors with
room for every insert, and an IVF index over them) and boots the daemon
several times; ``setup_s`` is the median spawn-to-healthy time of the
boots after the first, so the page cache is warm.  The last boot
serves:

1. **Closed loop, query only.**  ``nproc`` clients each send the next
   probe query as soon as the last one returns.  The completed rate is
   the daemon's capacity (``entities_per_s``: one query matches one
   entity).  Every answer must equal, bit for bit, what an in-process
   :class:`ServingState` loaded from the same pristine artifacts
   returns, and its top hit is scored against the probe's gold entity
   (``accuracy``).
2. **Open loop, mixed.**  The seeded :class:`WorkloadSpec` stream —
   Zipf-popular queries, inserts, deletes and explains with Poisson
   arrivals at a fixed rate well below capacity — is replayed on
   schedule by ``nproc`` sender threads.  Latency runs from each
   request's scheduled send time, so a stall also charges the requests
   queued behind it.  ``p50_ms`` is the median query latency.

The traced run hosts :class:`AlignmentServer` in this process instead,
so the wrappers see its calls; its numbers feed only the per-layer table.
"""

from __future__ import annotations

import http.client
import json
import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.common import (
    RunRecord,
    check,
    cpu_count,
    finite_ms,
    fingerprint,
    mean,
    median,
    tail,
)
from perfbench.jobs import span_table
from perfbench.offline import aligned_pair
from perfbench.spans import Tracer, covered, self_times

N_BASE = 10_000
DIM = 32
K = 10
N_CLUSTERS = 100
#: Probe queries (source vectors whose gold answer is a known base id).
N_PROBES = 256
#: Open-loop offered rate, requests/s: about half the closed-loop
#: capacity of a 2-CPU machine in its slow periods (80/s), so queueing
#: behind writes still shows in the query tail without saturating the
#: daemon.  Fixed, so the same seed always yields the same stream.
OPEN_LOOP_QPS = 40.0
#: Daemon boots in set-up; the first only warms the page cache.
BOOTS = 5
#: Closed-loop warm-up before capacity is measured, seconds.
WARMUP_S = 1.0
REQUEST_TIMEOUT_S = 10.0


class Client:
    """HTTP calls to one daemon; failures come back as status 0.

    Each call opens its own connection and closes it, as the repository's
    soak client does.  (Over a kept-alive connection the daemon's
    separate header and body writes meet delayed ACKs, which adds a
    timer-bound ~40 ms to every answer and hides the work being done.)
    """

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            return 0, None
        finally:
            connection.close()
        if response.status != 200:
            return response.status, None
        if response.headers.get_content_type() == "application/json":
            return 200, json.loads(raw)
        return 200, raw.decode()


@dataclass
class Outcome:
    kind: str
    ok: bool
    #: Seconds from the scheduled send to the answer; inf when failed.
    latency: float
    #: Seconds the sender started late.
    lag: float


@dataclass
class Phases:
    capacity: float = 0.0
    closed_sent: int = 0
    closed_failed: int = 0
    mismatches: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    open_wall: float = 0.0
    stats: dict = field(default_factory=dict)
    metrics_text: str = ""


def _artifacts(seed: int, root: Path, inserts: int):
    from repro.index.ivf import IVFIndex
    from repro.storage import EmbeddingStore

    source, target = aligned_pair(seed, N_BASE)
    base = target.astype(np.float64)
    probe_ids = np.sort(
        np.random.default_rng(seed).choice(N_BASE, N_PROBES, replace=False)
    )
    probes = source[probe_ids].astype(np.float64)
    root.mkdir(parents=True)
    store = EmbeddingStore.create(
        root / "emb.store", base.shape, "float64", capacity=N_BASE + inserts + 8
    )
    store[:] = base
    store.update_checksum()
    store.close()
    IVFIndex(n_clusters=N_CLUSTERS).train(base).add(base).save(root / "ivf.json")
    return probe_ids, probes, fingerprint(base, probe_ids, probes)


def _copy(pristine: Path, target: Path) -> tuple[Path, Path]:
    shutil.copytree(pristine, target)
    return target / "emb.store", target / "ivf.json"


def _await_healthy(port: int, deadline_s: float = 60.0) -> None:
    client = Client(port)
    deadline = time.perf_counter() + deadline_s
    while client.call("GET", "/healthz")[0] != 200:
        if time.perf_counter() > deadline:
            raise RuntimeError("daemon never became healthy")
        time.sleep(0.005)


def _closed_loop(port, probes, reference, seconds, workers, phases) -> None:
    """Query-only closed loop; every answer is checked against ``reference``.

    The measured part runs for ``seconds`` and at least one full pass
    over the probes, so every probe's answer is checked however short
    the run.
    """
    lock = threading.Lock()
    counts = {"sent": 0, "failed": 0, "mismatches": 0}
    answered: set[int] = set()

    def client_loop(first: int, until: float, counted: bool) -> None:
        client = Client(port)
        index = first
        while time.perf_counter() < until or (counted and index < len(probes)):
            probe = index % len(probes)
            index += workers
            status, payload = client.call(
                "POST", "/query", {"vector": probes[probe].tolist(), "k": K}
            )
            mismatch = status == 200 and not _same(payload, reference[probe])
            if counted:
                with lock:
                    counts["sent"] += 1
                    counts["failed"] += status != 200
                    counts["mismatches"] += mismatch
                    if status == 200 and not mismatch:
                        answered.add(probe)

    for counted, length in ((False, WARMUP_S), (True, seconds)):
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=client_loop, args=(worker, start + length, counted)
            )
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    if not counts["failed"] and not counts["mismatches"]:  # else already failed
        check(
            len(answered) == len(probes),
            f"only {len(answered)} of {len(probes)} probes were answered",
        )
    phases.closed_sent = counts["sent"]
    phases.closed_failed = counts["failed"]
    phases.mismatches = counts["mismatches"]
    phases.capacity = (counts["sent"] - counts["failed"]) / elapsed


def _same(payload: dict, expected) -> bool:
    ids = [match["entity_id"] for match in payload["matches"]]
    scores = [match["score"] for match in payload["matches"]]
    return ids == expected.entity_ids.tolist() and scores == expected.scores.tolist()


def _call_for(request) -> tuple[str, str, dict | None]:
    if request.kind == "query":
        return "POST", "/query", {"entity_id": request.entity_id, "k": request.k}
    if request.kind == "insert":
        return "POST", "/insert", {
            "entity_id": request.entity_id, "vector": list(request.vector),
        }
    if request.kind == "delete":
        return "POST", "/delete", {"entity_id": request.entity_id}
    return "GET", f"/entity/{request.entity_id}/explain", None


def _open_loop(port, requests, workers, phases) -> None:
    """Replay ``requests`` on schedule from ``workers`` sender threads.

    Each sender takes the next unsent request, waits for its scheduled
    time and sends it; with all senders busy, later requests start late
    and their latency (from the scheduled time) includes the wait.
    """
    lock = threading.Lock()
    cursor = iter(requests)
    outcomes: list[Outcome] = []
    start = time.perf_counter() + 0.05

    def sender() -> None:
        client = Client(port)
        while True:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            due = start + request.arrival
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, _ = client.call(*_call_for(request))
            done = time.perf_counter()
            ok = status == 200
            with lock:
                outcomes.append(Outcome(
                    request.kind, ok, done - due if ok else math.inf,
                    max(0.0, sent - due),
                ))

    threads = [threading.Thread(target=sender) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phases.open_wall = time.perf_counter() - start
    phases.outcomes = outcomes


def _drive(port, probes, reference, requests, seconds, workers) -> Phases:
    phases = Phases()
    _closed_loop(port, probes, reference, seconds / 3.0, workers, phases)
    _open_loop(port, requests, workers, phases)
    client = Client(port)
    status, phases.stats = client.call("GET", "/stats")
    check(status == 200, f"/stats answered {status}")
    status, phases.metrics_text = client.call("GET", "/metrics")
    check(status == 200, f"/metrics answered {status}")
    return phases


def _latencies(outcomes: list[Outcome], kinds: tuple[str, ...]) -> list[float]:
    return [outcome.latency for outcome in outcomes if outcome.kind in kinds]


def _client_summary(phases: Phases) -> dict[str, float]:
    """Client-side latency points of the open loop, in ms."""
    summary: dict[str, float] = {}
    for label, kinds in (
        ("query", ("query",)),
        ("write", ("insert", "delete")),
        ("explain", ("explain",)),
    ):
        samples = _latencies(phases.outcomes, kinds)
        summary[f"{label}_count"] = len(samples)
        if not samples:
            continue
        summary[f"{label}_p50_ms"] = finite_ms(median(samples))
        point = tail(samples)
        if point is not None:
            summary[f"{label}_tail_pct"] = point[0]
            summary[f"{label}_tail_ms"] = finite_ms(point[1])
    lags = sorted(outcome.lag for outcome in phases.outcomes)
    summary["dispatch_lag_p99_ms"] = lags[max(0, math.ceil(0.99 * len(lags)) - 1)] * 1e3
    return summary


def run(
    workload: str, seed: int, seconds: float, workdir: Path, trace: bool
) -> RunRecord:
    from repro.loadgen import ServeDaemon, WorkloadSpec, stream_fingerprint
    from repro.loadgen.report import server_latency_summary
    from repro.serve.state import ServingState

    workers = cpu_count()
    spec = WorkloadSpec(
        seed=seed, qps=OPEN_LOOP_QPS, duration_seconds=seconds * 2.0 / 3.0, k=K
    )
    requests = spec.generate(N_BASE, DIM)
    stream = stream_fingerprint(requests)
    check(
        stream == stream_fingerprint(spec.generate(N_BASE, DIM)),
        "the same seed expanded to two different request streams",
    )
    inserts = sum(1 for request in requests if request.kind == "insert")
    pristine = workdir / "pristine"
    probe_ids, probes, input_fingerprint = _artifacts(seed, pristine, inserts)
    reference_state = ServingState.load(*_copy(pristine, workdir / "reference"))
    reference = reference_state.query(probes, K)
    reference_state.store.close()
    accuracy = float(np.mean([
        result.entity_ids[0] == gold for result, gold in zip(reference, probe_ids)
    ]))

    boots = []
    daemon = None
    try:
        for boot in range(BOOTS):
            store, index = _copy(pristine, workdir / f"boot{boot}")
            start = time.perf_counter()
            daemon = ServeDaemon(store, index)
            _await_healthy(daemon.port)
            boots.append(time.perf_counter() - start)
            if boot < BOOTS - 1:
                daemon.terminate()
                daemon = None
        phases = _drive(daemon.port, probes, reference, requests, seconds, workers)
        check(daemon.alive(), "the daemon died under load")
    finally:
        if daemon is not None:
            check(daemon.terminate() == 0, "the daemon did not shut down cleanly")

    record = RunRecord()
    _account(record, phases)
    client = _client_summary(phases)
    server = server_latency_summary(phases.metrics_text) or {}
    record.metrics = {
        "setup_s": median(boots[1:]),
        "entities_per_s": phases.capacity,
        "accuracy": accuracy,
        "peak_rss_mb": phases.stats["peak_rss_bytes"] / 2**20,
        "p50_ms": client["query_p50_ms"],
    }
    record.detail.update(
        input_fingerprint=input_fingerprint,
        stream_fingerprint=stream,
        boots_s=[round(boot, 4) for boot in boots],
        workers=workers,
        open_loop_qps=OPEN_LOOP_QPS,
        open_loop_wall_s=round(phases.open_wall, 3),
        closed_loop_queries=phases.closed_sent,
        client=client,
        server_p99_ms=server.get("p99_seconds", 0.0) * 1e3,
        batcher=phases.stats.get("batcher"),
        compactions=phases.stats.get("compactions"),
    )
    if not trace:
        return record

    traced, tracer, boot_tracer = _traced_phases(
        pristine, workdir, probes, reference, requests, seconds, workers
    )
    _account(record, traced)
    record.metrics = _layers(tracer, boot_tracer, traced, client, server, record)
    record.detail["spans"] = _span_rows(tracer, boot_tracer)
    record.detail["span_records"] = tracer.as_records()
    return record


def _account(record: RunRecord, phases: Phases) -> None:
    """Add a drive's requests to the run's tally.

    Errors, timeouts and probe answers that differ from the in-process
    state all count as failed; any failure makes the run incorrect.
    """
    failed = sum(1 for outcome in phases.outcomes if not outcome.ok)
    record.attempted += phases.closed_sent + len(phases.outcomes)
    record.failed += phases.closed_failed + failed + phases.mismatches
    record.detail["probe_mismatches"] = (
        record.detail.get("probe_mismatches", 0) + phases.mismatches
    )


def _traced_phases(pristine, workdir, probes, reference, requests, seconds, workers):
    """The same drive against an in-process server with every layer wrapped."""
    from repro.index.ivf import IVFIndex
    from repro.obs.metrics import get_metrics
    from repro.serve import http as serve_http
    from repro.serve.batching import MicroBatcher
    from repro.serve.state import ServingState
    from repro.similarity.engine import SimilarityEngine
    from repro.storage import EmbeddingStore

    registry = get_metrics()
    compactions0 = _compactions(registry)
    with Tracer() as boot_tracer:
        boot_tracer.wrap(ServingState, "load", "serve.state.load")
        boot_tracer.wrap(EmbeddingStore, "open", "storage.open")
        boot_tracer.wrap(IVFIndex, "load", "index.load")
        state = ServingState.load(*_copy(pristine, workdir / "traced"))
    server = serve_http.AlignmentServer(
        ("127.0.0.1", 0), state, engine=SimilarityEngine()
    )
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        with Tracer() as tracer:
            tracer.wrap(serve_http._Handler, "do_GET", "serve.request")
            tracer.wrap(serve_http._Handler, "do_POST", "serve.request")
            for kind in ("query", "insert", "delete"):
                tracer.wrap(
                    serve_http.AlignmentServer, f"handle_{kind}", f"serve.handle.{kind}"
                )
            tracer.wrap(serve_http.AlignmentServer, "handle_explain", "serve.explain")
            tracer.wrap(MicroBatcher, "submit", "serve.batcher.submit")
            tracer.wrap(ServingState, "query", "serve.state.query")
            tracer.wrap(ServingState, "insert", "serve.state.insert")
            tracer.wrap(ServingState, "delete", "serve.state.delete")
            tracer.wrap(IVFIndex, "search", "index.search")
            tracer.wrap(SimilarityEngine, "similarity", "similarity.similarity")
            cpu0 = time.process_time()
            phases = _drive(server.server_address[1], probes, reference, requests,
                            seconds, workers)
            phases.stats["cpu_s"] = time.process_time() - cpu0
            phases.stats["compactions_delta"] = _compactions(registry) - compactions0
    finally:
        server.shutdown()
        thread.join()
        server.close()
        state.store.close()
    return phases, tracer, boot_tracer


def _compactions(registry) -> float:
    return registry.counter("serve.compactions.migrate") + registry.counter(
        "serve.compactions.recluster"
    )


def _layers(tracer, boot_tracer, traced, client, server, record) -> dict[str, float]:
    own = self_times(tracer.spans)

    def durations(name):
        return [span.duration for span in tracer.spans if span.name == name]

    def selfs(name):
        return [own[i] for i, span in enumerate(tracer.spans) if span.name == name]

    def ms(values):
        return mean(values) * 1e3

    boot = {span.name: span.duration for span in boot_tracer.spans}
    traced_client = _client_summary(traced)
    window = (
        min(span.start for span in tracer.spans),
        max(span.end for span in tracer.spans),
    )
    busy = covered([(span.start, span.end) for span in tracer.spans], *window)
    wall = window[1] - window[0]
    return {
        "storage.open_s": boot.get("storage.open", 0.0),
        "index.load_s": boot.get("index.load", 0.0),
        "serve.http_self_ms": ms(selfs("serve.request")),
        "serve.queue_wait_ms": ms(durations("serve.batcher.submit"))
        - ms(durations("serve.state.query")),
        "serve.batch_size_mean": traced.stats["batcher"]["mean_batch"],
        "serve.state.query_ms": ms(selfs("serve.state.query")),
        "index.search_stable_ms": ms(durations("index.search")),
        "serve.state.insert_ms": ms(durations("serve.state.insert")),
        "serve.state.delete_ms": ms(durations("serve.state.delete")),
        "serve.compactions": traced.stats["compactions_delta"],
        "serve.explain_ms": ms(durations("serve.explain")),
        "similarity.similarity_s": sum(durations("similarity.similarity")),
        "similarity.cache_hit_ratio": _hit_ratio(traced.stats["cache"]),
        "serve.server_p99_ms": server.get("p99_seconds", 0.0) * 1e3,
        "serve.client.query_tail_ms": client.get("query_tail_ms", 0.0),
        "serve.client.write_p50_ms": client.get("write_p50_ms", 0.0),
        "serve.client.write_tail_ms": client.get("write_tail_ms", 0.0),
        "serve.client.explain_p50_ms": client.get("explain_p50_ms", 0.0),
        "loadgen.dispatch_lag_p99_ms": client["dispatch_lag_p99_ms"],
        "job.wall_s": wall,
        "job.cpu_s": traced.stats["cpu_s"],
        "job.unattributed_s": wall - busy,
        "job.unattributed_ratio": (wall - busy) / wall,
        "trace.overhead_ratio": traced_client["query_p50_ms"]
        / record.metrics["p50_ms"] - 1.0,
    }


def _hit_ratio(cache: dict) -> float:
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


def _span_rows(tracer, boot_tracer):
    return span_table(tracer) + span_table(boot_tracer)
