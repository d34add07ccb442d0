"""Stdlib HTTP daemon for the online alignment service.

A :class:`~http.server.ThreadingHTTPServer` (one thread per connection,
no third-party framework) over a :class:`~repro.serve.state.ServingState`
and a :class:`~repro.serve.batching.MicroBatcher`:

- ``POST /query``    — ``{"vector": [...], "k": 5}`` (or ``"entity_id"``
  to query by a stored entity) → top-k matches with scores.
- ``POST /insert``   — ``{"vector": [...]}`` → assigned entity id.
- ``POST /delete``   — ``{"entity_id": 7}`` → tombstone.
- ``GET /entity/<id>/explain`` — the matching decision report for one
  entity (:func:`repro.eval.explain.explain_decision` over a probe set).
- ``GET /healthz``   — liveness + state version.
- ``GET /stats``     — index balance, delta depth, cache and batcher
  counters, process context (uptime, peak RSS), live SLO burn rates.
- ``GET /metrics``   — the full metrics registry in Prometheus text
  exposition format (:mod:`repro.obs.exposition`).

Every JSON response body is *canonical JSON* (sorted keys, no
whitespace, trailing newline), so identical state yields byte-identical
responses — the golden e2e suite and the kill-and-restart contract
depend on this.  ``/metrics`` is the one text/plain endpoint, and its
rendering is deterministic for the same reason.

Telemetry per request (:mod:`repro.serve.context`): each request gets
an id (``X-Request-Id`` in, echoed out), its handler latency lands in
the always-on ``serve.request.seconds`` histogram and the SLO tracker,
a ``serve.access`` event is emitted per completed request, and requests
over the slow threshold emit ``serve.slow`` carrying the request's
captured span tree.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.eval.explain import explain_decision
from repro.obs import events as obs_events
from repro.obs import exposition as obs_exposition
from repro.obs import metrics as obs_metrics
from repro.obs.ledger import RunLedger, build_record, fingerprint_payload
from repro.obs.slo import SLOTracker
from repro.serve import context as serve_context
from repro.serve.batching import MicroBatcher
from repro.serve.state import ServingState
from repro.similarity.engine import SimilarityEngine
from repro.utils.memory import peak_rss_bytes

#: Cap on the probe set an explain request scores (the report needs a
#: dense probe x probe matrix; this bounds it to ~EXPLAIN_LIMIT^2 pairs).
EXPLAIN_LIMIT = 64

#: Cap on a request body, bytes.  A larger ``Content-Length`` gets 413
#: before any of the body is read (a query batch of a thousand 300-dim
#: vectors is about 6 MiB of JSON).
MAX_BODY_BYTES = 16 * 2**20

#: Socket timeout, seconds, for each read from (or write to) a client.
#: A client that stalls mid-request, or idles on a kept-alive
#: connection, for longer is disconnected, so it cannot pin a handler
#: thread forever.
READ_TIMEOUT_S = 30.0

#: Bound, seconds, on a query's wait for the micro-batcher's answer.  A
#: dispatcher stuck past it gets the query a 503 with ``Retry-After``
#: (counted as ``serve.query.timeouts``), so it cannot pin every handler
#: thread.  The abandoned query is cancelled: a batch dispatched after
#: the timeout drops it unscored.
QUERY_TIMEOUT_S = 5.0

#: ``Retry-After`` seconds sent with a timed-out query's 503.
RETRY_AFTER_S = 1

#: Default slow-query threshold, seconds: requests over it emit a
#: ``serve.slow`` event carrying their captured span tree.
SLOW_THRESHOLD = 0.1


def canonical_json(payload: Any) -> bytes:
    """Canonical wire rendering: sorted keys, compact, one trailing LF."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def _is_integer(value: Any) -> bool:
    """A JSON integer: ``true``/``false`` decode to Python bools, which
    are ints, and must not pass as 1/0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, float) or _is_integer(value)


class ServeError(Exception):
    """An HTTP-mappable request failure; ``retry_after`` (seconds) is
    sent as a ``Retry-After`` header."""

    def __init__(
        self, status: int, message: str, retry_after: int | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class AlignmentServer(ThreadingHTTPServer):
    """The daemon: serving state + engine + batcher + optional ledger."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        state: ServingState,
        engine: SimilarityEngine | None = None,
        ledger: RunLedger | None = None,
        max_batch: int = 32,
        slow_threshold: float = SLOW_THRESHOLD,
        slo_objective: float = 0.999,
        slo_latency_threshold: float | None = None,
        access_log: Path | str | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.state = state
        self.engine = engine if engine is not None else SimilarityEngine()
        self.ledger = ledger
        self.started = time.time()
        self.started_clock = time.perf_counter()
        self.slow_threshold = slow_threshold
        self.slo = SLOTracker(
            objective=slo_objective, latency_threshold=slo_latency_threshold
        )
        # Held directly so the hot path observes without a registry lookup.
        self.request_latency = obs_metrics.get_metrics().histogram(
            "serve.request.seconds"
        )
        self._access_sink: serve_context.AccessLogSink | None = None
        if access_log is not None:
            self._access_sink = serve_context.AccessLogSink(access_log)
            obs_events.add_sink(self._access_sink)
        self.batcher = MicroBatcher(self._handle_batch, max_batch=max_batch)

    def _handle_batch(self, vectors: np.ndarray, ks: list[int]) -> list:
        # Pair-stable scoring makes one batched call bitwise-equal to n
        # single calls; per-query k is honoured by slicing each row's
        # result (state.query scores once at max(k), ranks totally).
        results = self.state.query(vectors, max(ks))
        return [
            type(result)(
                entity_ids=result.entity_ids[:k],
                scores=result.scores[:k],
                version=result.version,
            )
            for result, k in zip(results, ks)
        ]

    def close(self) -> None:
        self.batcher.close()
        self.engine.close()
        if self._access_sink is not None:
            obs_events.remove_sink(self._access_sink)
            self._access_sink = None
        self.server_close()

    # -- per-request telemetry -----------------------------------------

    def observe_request(self, context: serve_context.RequestContext, status: int) -> None:
        """Account one finished request: histogram, SLO, access/slow log.

        ``/metrics`` scrapes are access-logged but kept out of the
        latency histogram and SLO accounting — they are telemetry about
        serving traffic, not serving traffic.
        """
        elapsed = time.perf_counter() - context.started
        scrape = context.path == "/metrics"
        if not scrape:
            self.request_latency.observe(elapsed)
            self.slo.record(status < 500, latency=elapsed)
        obs_events.emit(
            "serve.access",
            request_id=context.request_id,
            method=context.method,
            path=context.path,
            status=status,
            seconds=round(elapsed, 6),
        )
        if not scrape and elapsed >= self.slow_threshold:
            obs_metrics.get_metrics().inc("serve.slow_requests")
            obs_events.emit(
                "serve.slow",
                request_id=context.request_id,
                method=context.method,
                path=context.path,
                status=status,
                seconds=round(elapsed, 6),
                span=context.span_tree(),
            )

    # -- request logic (handler methods live here for testability) -----

    def handle_query(self, body: dict) -> dict:
        k = body.get("k", 5)
        if not _is_integer(k) or k < 1:
            raise ServeError(400, f"k must be a positive integer, got {k!r}")
        vector = self._request_vector(body)
        try:
            result = self.batcher.submit(vector, k, timeout=QUERY_TIMEOUT_S)
        except FutureTimeoutError:
            obs_metrics.get_metrics().inc("serve.query.timeouts")
            raise ServeError(
                503,
                f"query not answered within {QUERY_TIMEOUT_S} s",
                retry_after=RETRY_AFTER_S,
            ) from None
        payload = {
            "matches": [
                {"entity_id": int(eid), "score": float(score)}
                for eid, score in zip(result.entity_ids, result.scores)
            ],
            "k": k,
            "version": result.version,
        }
        self._record_query(k, len(payload["matches"]))
        return payload

    def handle_insert(self, body: dict) -> dict:
        vector = body.get("vector")
        if not isinstance(vector, list):
            raise ServeError(400, "insert body must carry a 'vector' list")
        entity_id = body.get("entity_id")
        if entity_id is not None and not _is_integer(entity_id):
            raise ServeError(400, "entity_id must be an integer")
        try:
            assigned = self.state.insert(
                self._checked_vector(vector), entity_id=entity_id
            )
        except ValueError as error:
            status = 507 if "full" in str(error) else 400
            raise ServeError(status, str(error)) from error
        return {"entity_id": assigned, "version": self.state.snapshot.version}

    def handle_delete(self, body: dict) -> dict:
        entity_id = body.get("entity_id")
        if not _is_integer(entity_id):
            raise ServeError(400, "delete body must carry an integer 'entity_id'")
        deleted = self.state.delete(entity_id)
        return {
            "deleted": deleted,
            "entity_id": entity_id,
            "version": self.state.snapshot.version,
        }

    def handle_explain(self, entity_id: int) -> dict:
        snap = self.state.snapshot
        if entity_id not in snap.id_pos:
            raise ServeError(404, f"entity {entity_id} is not live")
        probe_ids = self.state.live_entity_ids()
        if len(probe_ids) > EXPLAIN_LIMIT:
            probe_ids = probe_ids[:EXPLAIN_LIMIT]
            if entity_id not in probe_ids:
                probe_ids = np.concatenate(
                    [probe_ids[:-1], np.array([entity_id], dtype=np.int64)]
                )
        positions = np.array([snap.id_pos[int(eid)] for eid in probe_ids])
        vectors = snap.index.reconstruct(positions)
        with serve_context.traced(
            "serve.explain.similarity", probes=len(probe_ids)
        ):
            scores = self.engine.similarity(
                vectors, vectors, metric=snap.index.metric
            )
        query_row = int(np.flatnonzero(probe_ids == entity_id)[0])
        report = explain_decision(scores, query_row)
        document = asdict(report)
        # Report indexes are probe-set rows; translate them to entity ids.
        translate = {i: int(eid) for i, eid in enumerate(probe_ids)}
        document["query"] = entity_id
        for key in ("greedy_choice", "csls_choice", "reciprocal_choice"):
            document[key] = translate[document[key]]
        for candidate in document["candidates"]:
            candidate["candidate"] = translate[candidate["candidate"]]
        document["candidates"] = list(document["candidates"])
        document["notes"] = list(document["notes"])
        document["probe_size"] = int(len(probe_ids))
        document["version"] = snap.version
        return document

    def handle_healthz(self) -> dict:
        return {"status": "ok", "version": self.state.snapshot.version}

    def handle_stats(self) -> dict:
        payload = dict(self.state.stats())
        payload["cache"] = {
            key: value
            for key, value in self.engine.cache_info().items()
            if isinstance(value, (int, float))
        }
        payload["batcher"] = self.batcher.stats()
        # Process-level context: how long this daemon has been up, its
        # lifetime memory high-water mark, and the serving snapshot
        # version at scrape time ("version" above, from state.stats()).
        payload["uptime_seconds"] = round(
            time.perf_counter() - self.started_clock, 3
        )
        payload["peak_rss_bytes"] = peak_rss_bytes()
        payload["slo"] = self.slo.snapshot()
        return payload

    def render_metrics(self) -> str:
        """The Prometheus exposition document for ``GET /metrics``.

        Live gauges (uptime, peak RSS, snapshot version, SLO burn
        rates) are refreshed into the registry immediately before
        rendering, so one scrape carries both the cumulative series and
        the instantaneous state.
        """
        registry = obs_metrics.get_metrics()
        registry.gauge(
            "serve.uptime_seconds", time.perf_counter() - self.started_clock
        )
        registry.gauge("process.peak_rss_bytes", peak_rss_bytes())
        registry.gauge("serve.version", self.state.snapshot.version)
        slo = self.slo.snapshot()
        for window_key, window in slo["windows"].items():
            registry.gauge(
                f"serve.slo.burn_rate.{window_key}", window["burn_rate"]
            )
        registry.gauge("serve.slo.breaching", 1.0 if slo["breaching"] else 0.0)
        return obs_exposition.render(registry)

    def _checked_vector(self, vector: list) -> np.ndarray:
        """A request's vector, answered with 400 unless it is ``dim``
        finite numbers: a malformed one must never reach a batch."""
        dim = self.state.snapshot.index.dim
        if len(vector) != dim or not all(map(_is_number, vector)):
            raise ServeError(400, f"'vector' must be a list of {dim} numbers")
        try:
            array = np.asarray(vector, dtype=np.float64)
            finite = bool(np.isfinite(array).all())
        except OverflowError:  # a JSON integer beyond the float range
            finite = False
        if not finite:
            raise ServeError(400, "'vector' must hold finite numbers only")
        return array

    def _request_vector(self, body: dict) -> np.ndarray:
        vector = body.get("vector")
        if vector is not None:
            if not isinstance(vector, list):
                raise ServeError(400, "'vector' must be a JSON list of numbers")
            return self._checked_vector(vector)
        entity_id = body.get("entity_id")
        if entity_id is None:
            raise ServeError(400, "query body must carry 'vector' or 'entity_id'")
        if not _is_integer(entity_id):
            raise ServeError(400, "'entity_id' must be an integer")
        stored = self.state.get_vector(entity_id)
        if stored is None:
            raise ServeError(404, f"entity {entity_id} is not live")
        return stored

    def _record_query(self, k: int, returned: int) -> None:
        if self.ledger is None:
            return
        snap = self.state.snapshot
        self.ledger.append(
            build_record(
                fingerprint=fingerprint_payload(
                    {"k": k, "version": snap.version, "ntotal": snap.index.ntotal}
                ),
                preset="serve",
                regime="online",
                task="serve",
                matcher="serve.query",
                seed=0,
                scale=float(snap.index.ntotal),
                metric=snap.index.metric,
                status="ok",
                metrics={"k": float(k), "returned": float(returned)},
            )
        )


class _Handler(BaseHTTPRequestHandler):
    server: AlignmentServer
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S

    # -- plumbing ------------------------------------------------------

    def log_request(self, code: int | str = "-", size: int | str = "-") -> None:
        # Completed requests are covered by the richer ``serve.access``
        # event; suppressing the stdlib line avoids double-logging.
        return None

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Connection-level stdlib logging (malformed request lines,
        # early disconnects, log_error) routed into the structured
        # access log stream instead of being swallowed.
        context = serve_context.current_request()
        obs_events.emit(
            "serve.http",
            line=format % args,
            request_id=context.request_id if context is not None else None,
        )

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        context = serve_context.current_request()
        if context is not None:
            self.send_header(serve_context.REQUEST_ID_HEADER, context.request_id)
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        obs_metrics.get_metrics().inc("serve.http.responses")

    def _reply(
        self, status: int, payload: Any, headers: dict[str, str] | None = None
    ) -> None:
        self._send(status, canonical_json(payload), "application/json", headers)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            if length < 0:
                raise ServeError(400, f"negative Content-Length {length}")
            raise ServeError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True
            raise ServeError(408, f"request body not received within {self.timeout} s")
        if not raw:
            raise ServeError(400, "request body is empty")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(400, f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object")
        return body

    def _request_context(self) -> serve_context.RequestContext:
        raw = self.headers.get(serve_context.REQUEST_ID_HEADER, "")
        request_id = raw.strip()[: serve_context.MAX_REQUEST_ID_LEN]
        return serve_context.RequestContext(
            request_id=request_id or serve_context.new_request_id(),
            method=self.command,
            path=self.path,
        )

    def _dispatch(
        self, worker: Callable[[], Any], text_content_type: str | None = None
    ) -> None:
        context = self._request_context()
        self._status = 500  # overwritten by _send; sticks if the write dies
        with serve_context.request_scope(context):
            try:
                payload = worker()
            except ServeError as error:
                headers = None
                if error.retry_after is not None:
                    headers = {"Retry-After": str(error.retry_after)}
                self._reply(error.status, {"error": str(error)}, headers)
            except ValueError as error:
                # Includes DataIntegrityError (a ValueError subclass).
                self._reply(400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - last-resort 500
                self._reply(500, {"error": f"{type(error).__name__}: {error}"})
            else:
                if text_content_type is not None:
                    self._reply_text(200, payload, text_content_type)
                else:
                    self._reply(200, payload)
            finally:
                self.server.observe_request(context, self._status)

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler convention
        if self.path == "/healthz":
            self._dispatch(self.server.handle_healthz)
        elif self.path == "/stats":
            self._dispatch(self.server.handle_stats)
        elif self.path == "/metrics":
            self._dispatch(
                self.server.render_metrics,
                text_content_type=obs_exposition.CONTENT_TYPE,
            )
        elif self.path.startswith("/entity/") and self.path.endswith("/explain"):
            middle = self.path[len("/entity/") : -len("/explain")]
            try:
                entity_id = int(middle)
            except ValueError:
                self._dispatch(self._bad_entity_id)
                return
            self._dispatch(lambda: self.server.handle_explain(entity_id))
        else:
            self._dispatch(self._unknown_path)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler convention
        routes = {
            "/query": self.server.handle_query,
            "/insert": self.server.handle_insert,
            "/delete": self.server.handle_delete,
        }
        worker = routes.get(self.path)
        if worker is None:
            self._dispatch(self._unknown_path)
            return
        self._dispatch(lambda: worker(self._read_body()))

    def _unknown_path(self) -> dict:
        raise ServeError(404, f"unknown path {self.path}")

    def _bad_entity_id(self) -> dict:
        middle = self.path[len("/entity/") : -len("/explain")]
        raise ServeError(400, f"bad entity id {middle!r}")
