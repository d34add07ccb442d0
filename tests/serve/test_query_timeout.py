"""A query whose batch never comes back is answered 503 within
``QUERY_TIMEOUT_S``, with ``Retry-After``, counted on ``/metrics`` and
charged to the SLO; it does not pin the handler thread, and a query
abandoned before its batch is dispatched is never scored."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.serve import http as serve_http
from repro.testing.faults import KernelStall

pytestmark = pytest.mark.serve

TIMEOUT_S = 0.3
#: Long enough to outlast the bound several times over; finite, so the
#: dispatcher drains before the fixture closes the server.
STALL_S = 2.0


def _post_query(
    port: int, vector: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
) -> tuple[int, dict, float]:
    body = json.dumps({"vector": list(vector), "k": 2}).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    started = time.monotonic()
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            status, headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        status, headers = error.code, dict(error.headers)
    return status, headers, time.monotonic() - started


def _get(port: int, path: str) -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as r:
        return r.read().decode()


def _timeouts_counted(port: int) -> int:
    """``serve.query.timeouts`` as ``/metrics`` reports it (the metrics
    registry is process-wide, so compare against a reading taken first)."""
    prefix = "repro_serve_query_timeouts_total "
    for line in _get(port, "/metrics").splitlines():
        if line.startswith(prefix):
            return int(line[len(prefix):])
    return 0


def _slo_bad(server) -> int:
    """Bad requests in the SLO tracker's fast (first) window."""
    return next(iter(server.slo.snapshot()["windows"].values()))["bad"]


def test_wedged_dispatcher_answers_503_within_the_bound(live_server, monkeypatch):
    monkeypatch.setattr(serve_http, "QUERY_TIMEOUT_S", TIMEOUT_S)
    # Wedge the dispatcher: every batch it scores now stalls first.
    kernel = SimpleNamespace(match=live_server.state.query)
    KernelStall(seconds=STALL_S).install(kernel)
    monkeypatch.setattr(live_server.state, "query", kernel.match)
    port = live_server.server_address[1]
    before = _timeouts_counted(port)

    status, headers, elapsed = _post_query(port)

    assert status == 503
    assert headers["Retry-After"] == str(serve_http.RETRY_AFTER_S)
    assert TIMEOUT_S <= elapsed < STALL_S
    assert _timeouts_counted(port) == before + 1
    # The SLO is charged after the reply is written: give it a moment.
    deadline = time.monotonic() + 5.0
    while _slo_bad(live_server) < 1:
        assert time.monotonic() < deadline, live_server.slo.snapshot()
        time.sleep(0.01)


def test_abandoned_query_is_never_scored(live_server, monkeypatch):
    monkeypatch.setattr(serve_http, "QUERY_TIMEOUT_S", TIMEOUT_S)
    busy, abandoned, later = (
        (0.1, 0.2, 0.3, 0.4), (0.9, 0.8, 0.7, 0.6), (0.5, 0.5, 0.5, 0.4)
    )
    scored: list[tuple[float, ...]] = []
    entered, release = threading.Event(), threading.Event()
    query = live_server.state.query

    def held_query(vectors, k):
        # Hold the dispatcher in the first batch until the test lets go.
        scored.extend(tuple(row) for row in vectors)
        if not entered.is_set():
            entered.set()
            release.wait(10.0)
        return query(vectors, k)

    monkeypatch.setattr(live_server.state, "query", held_query)
    port = live_server.server_address[1]

    with ThreadPoolExecutor(1) as pool:
        first = pool.submit(_post_query, port, busy)
        assert entered.wait(5.0)
        # Queued behind the held batch, this one times out unscored.
        assert _post_query(port, abandoned)[0] == 503
        release.set()
        first.result()
    # FIFO: once a later query is answered, the abandoned one's batch
    # has been dispatched.
    assert _post_query(port, later)[0] == 200

    assert busy in scored and later in scored
    assert abandoned not in scored


def test_default_query_timeout_is_bounded_and_below_the_read_timeout():
    assert 0 < serve_http.QUERY_TIMEOUT_S < serve_http.READ_TIMEOUT_S
