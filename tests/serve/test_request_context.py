"""Request-scoped telemetry: ids, span capture, access and slow logs.

Two layers of coverage: unit tests over :mod:`repro.serve.context`
(scopes, batch propagation across the dispatcher thread, the JSONL
access-log sink), and e2e tests against an in-process
:class:`~repro.serve.http.AlignmentServer` (so event sinks installed by
the test observe the daemon's emissions — a subprocess daemon would
swallow them).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.obs import events as obs_events
from repro.serve import context as serve_context
from repro.serve.batching import MicroBatcher

from .conftest import FirstBatchGate

pytestmark = pytest.mark.serve


class TestScopes:
    def test_no_scope_by_default(self):
        assert serve_context.current_request() is None
        assert serve_context.current_batch() == ()

    def test_request_scope_installs_and_restores(self):
        context = serve_context.RequestContext(request_id="abc")
        with serve_context.request_scope(context) as installed:
            assert installed is context
            assert serve_context.current_request() is context
        assert serve_context.current_request() is None

    def test_generated_ids_are_unique_hex(self):
        ids = {serve_context.new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(rid) == 16 for rid in ids)
        assert all(int(rid, 16) >= 0 for rid in ids)

    def test_traced_without_scope_is_a_cheap_no_op(self):
        with serve_context.traced("phase") as span:
            assert span is None

    def test_traced_appends_a_timed_child_span(self):
        context = serve_context.RequestContext(request_id="abc")
        with serve_context.request_scope(context):
            with serve_context.traced("phase", k=5) as span:
                assert span is not None
        assert [child.name for child in context.span.children] == ["phase"]
        child = context.span.children[0]
        assert child.attrs == {"k": 5}
        assert child.wall_seconds >= 0.0
        tree = context.span_tree()
        assert tree["children"][0]["name"] == "phase"


class TestBatchPropagation:
    def test_batcher_carries_contexts_to_the_dispatcher_thread(self):
        seen: list[tuple[serve_context.RequestContext, ...]] = []

        def handler(vectors, ks):
            seen.append(serve_context.current_batch())
            with serve_context.traced("score"):
                pass
            return [int(k) for k in ks]

        release = threading.Barrier(3)
        contexts = [
            serve_context.RequestContext(request_id=f"req-{i}")
            for i in range(3)
        ]

        gate = FirstBatchGate(handler, in_flight=3)
        with gate.batcher_for(max_batch=3) as batcher:

            def worker(context) -> None:
                release.wait()
                with serve_context.request_scope(context):
                    batcher.submit([0.0], 1)

            threads = [
                threading.Thread(target=worker, args=(c,)) for c in contexts
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        observed = {c.request_id for batch in seen for c in batch}
        assert observed == {"req-0", "req-1", "req-2"}
        # traced() inside the handler reached every member's span tree,
        # nested under the batch span the dispatcher opened.
        for context in contexts:
            names = [span.name for span in context.span.walk()]
            assert "serve.batch" in names
            assert "score" in names
        # The scope was restored after dispatch.
        assert serve_context.current_batch() == ()

    def test_contextless_submitters_are_fine(self):
        with MicroBatcher(lambda v, ks: [0 for _ in ks]) as batcher:
            assert batcher.submit([0.0], 1) == 0


class TestAccessLogSink:
    def test_selects_serving_events_and_writes_canonical_json(self, tmp_path):
        path = tmp_path / "access.jsonl"
        sink = serve_context.AccessLogSink(path)
        with obs_events.emitting(sink):
            obs_events.emit("serve.access", request_id="r1", status=200)
            obs_events.emit("engine.similarity", rows=10)  # filtered out
            obs_events.emit("serve.slow", request_id="r1", span={"name": "x"})
            obs_events.emit("serve.http", line="bad request")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "serve.access", "serve.slow", "serve.http",
        ]
        for line in lines:
            record = json.loads(line)
            canonical = json.dumps(record, sort_keys=True,
                                   separators=(",", ":"))
            assert line == canonical


def wait_for(predicate, timeout=5.0):
    """Poll until the server's post-response bookkeeping lands.

    The daemon records telemetry (histogram observe, SLO record, access
    events) in the handler's ``finally`` — *after* the response bytes
    reach the client — so a client-side assertion can race the server
    thread by a scheduling quantum.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def call(server, method, path, body=None, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestHttpRequestIds:
    def test_supplied_request_id_is_echoed(self, live_server):
        status, headers, _ = call(
            live_server, "GET", "/healthz",
            headers={"X-Request-Id": "my-trace-7"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "my-trace-7"

    def test_missing_request_id_is_generated(self, live_server):
        _, headers, _ = call(live_server, "GET", "/healthz")
        generated = headers["X-Request-Id"]
        assert len(generated) == 16
        int(generated, 16)

    def test_access_events_carry_id_status_and_latency(self, live_server):
        sink = obs_events.MemorySink()
        with obs_events.emitting(sink):
            call(live_server, "GET", "/healthz",
                 headers={"X-Request-Id": "probe-1"})
            assert wait_for(lambda: any(
                e.name == "serve.access" for e in sink.events
            ))
        access = [e for e in sink.events if e.name == "serve.access"]
        assert len(access) == 1
        attrs = access[0].attrs
        assert attrs["request_id"] == "probe-1"
        assert attrs["method"] == "GET"
        assert attrs["path"] == "/healthz"
        assert attrs["status"] == 200
        assert attrs["seconds"] >= 0.0

    def test_error_responses_are_access_logged_too(self, live_server):
        sink = obs_events.MemorySink()
        with obs_events.emitting(sink):
            try:
                call(live_server, "GET", "/no-such-path")
            except urllib.error.HTTPError as error:
                assert error.code == 404
                error.read()
            assert wait_for(lambda: any(
                e.name == "serve.access" for e in sink.events
            ))
        access = [e for e in sink.events if e.name == "serve.access"]
        assert access and access[0].attrs["status"] == 404

    def test_slow_requests_emit_their_span_tree(self, live_server):
        live_server.slow_threshold = 0.0  # every request is "slow"
        sink = obs_events.MemorySink()
        try:
            with obs_events.emitting(sink):
                body = json.dumps({"entity_id": 0, "k": 3}).encode("utf-8")
                call(live_server, "POST", "/query", body=body,
                     headers={"X-Request-Id": "slow-1"})
                assert wait_for(lambda: any(
                    e.name == "serve.slow" for e in sink.events
                ))
        finally:
            live_server.slow_threshold = 3600.0
        slow = [e for e in sink.events if e.name == "serve.slow"]
        assert len(slow) == 1
        attrs = slow[0].attrs
        assert attrs["request_id"] == "slow-1"
        span = attrs["span"]
        assert span["name"] == "serve.request"
        names = {child["name"] for child in span["children"]}
        assert "serve.batch" in names
        nested = {
            grandchild["name"]
            for child in span["children"]
            for grandchild in child["children"]
        }
        assert "serve.query" in nested


class TestMetricsEndpoint:
    def test_metrics_is_prometheus_text(self, live_server):
        call(live_server, "GET", "/healthz")
        status, headers, body = call(live_server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode("utf-8")
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert "repro_serve_slo_breaching" in text
        assert "repro_serve_uptime_seconds" in text
        assert "repro_process_peak_rss_bytes" in text

    def test_scrapes_stay_out_of_the_latency_histogram(self, live_server):
        before = live_server.request_latency.count
        sink = obs_events.MemorySink()
        with obs_events.emitting(sink):
            call(live_server, "GET", "/metrics")
            call(live_server, "GET", "/metrics")
            call(live_server, "GET", "/healthz")
            # All three requests are access-logged in the same finally
            # block that does (or skips) the histogram observe, so three
            # serve.access events mean the bookkeeping has fully landed.
            assert wait_for(lambda: len([
                e for e in sink.events if e.name == "serve.access"
            ]) == 3)
        assert live_server.request_latency.count == before + 1

    def test_requests_feed_the_slo_tracker(self, live_server):
        def window_requests():
            return live_server.slo.snapshot()["windows"]["300s"]["requests"]

        before = window_requests()
        call(live_server, "GET", "/healthz")
        assert wait_for(lambda: window_requests() == before + 1)
