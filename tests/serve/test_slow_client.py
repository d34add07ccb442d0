"""A client that stalls mid-request is disconnected after the socket
timeout (``READ_TIMEOUT_S``), and other clients are served meanwhile."""

from __future__ import annotations

import json
import socket
import time
import urllib.request

import pytest

from repro.serve import http as serve_http

pytestmark = pytest.mark.serve

TIMEOUT_S = 0.5


def _stall(port: int, half_of: str) -> tuple[bytes, float]:
    """Send half of a request's headers or body, then wait for the
    daemon to close; return what it sent and the seconds it took."""
    body = json.dumps({"vector": [0.1, 0.2, 0.3, 0.4], "k": 2}).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    partial = head[: len(head) // 2] if half_of == "headers" else head + body[: len(body) // 2]
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(partial)
        started = time.monotonic()
        # Another client is answered while this one stalls.
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=10) as r:
            assert r.status == 200
        received = b""
        while chunk := sock.recv(4096):
            received += chunk
        return received, time.monotonic() - started


@pytest.mark.parametrize("half_of", ["headers", "body"])
def test_stalled_client_is_disconnected_within_the_timeout(live_server, monkeypatch, half_of):
    monkeypatch.setattr(serve_http._Handler, "timeout", TIMEOUT_S)
    received, elapsed = _stall(live_server.server_address[1], half_of)
    assert elapsed < TIMEOUT_S + 3.0
    if half_of == "body":
        assert received.startswith(b"HTTP/1.1 408 ")
        assert b"request body not received" in received
    else:
        assert received == b""  # the headers never completed: nothing to answer


def test_default_timeout_is_the_module_constant():
    assert serve_http._Handler.timeout == serve_http.READ_TIMEOUT_S > 0
