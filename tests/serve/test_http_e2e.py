"""Golden end-to-end tests for the ``repro serve`` daemon.

The daemon is the real CLI in a real subprocess on an ephemeral port,
driven with stdlib ``urllib``.  Response bodies are asserted *byte-equal*
against committed golden files — the canonical-JSON wire format plus the
deterministic fixture make every run (and every machine) produce the
same bytes.  The kill-and-restart tests pin the PR 7 durability
contract at the serving layer: SIGTERM, restart from the same artifacts,
bitwise-identical responses, and zero index rebuild (no ``index.train``
event in the restart's event log).

Regenerate goldens after an intentional wire-format change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/serve/test_http_e2e.py
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path

import pytest

from repro.serve.http import MAX_BODY_BYTES

from .conftest import Daemon

pytestmark = pytest.mark.serve

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: One fixed query vector (values chosen by hand, not drawn — the
#: golden bytes embed its exact scores).
QUERY_VECTOR = [0.5, -1.25, 0.75, 2.0, -0.5, 1.5]


def check_golden(name: str, payload: bytes) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(payload)
        return
    assert path.exists(), (
        f"missing golden {path}; run with REPRO_UPDATE_GOLDENS=1 to create it"
    )
    assert payload == path.read_bytes(), (
        f"response bytes diverged from {path.name}:\n"
        f"  got:    {payload!r}\n"
        f"  golden: {path.read_bytes()!r}"
    )


def post(daemon, path, obj):
    return daemon.request("POST", path, json.dumps(obj).encode("utf-8"))


class TestGoldenResponses:
    def test_healthz(self, daemon):
        status, body = daemon.request("GET", "/healthz")
        assert status == 200
        check_golden("healthz.json", body)

    def test_query_by_vector(self, daemon):
        status, body = post(daemon, "/query", {"vector": QUERY_VECTOR, "k": 5})
        assert status == 200
        check_golden("query_vector_k5.json", body)

    def test_query_by_entity(self, daemon):
        status, body = post(daemon, "/query", {"entity_id": 7, "k": 3})
        assert status == 200
        check_golden("query_entity7_k3.json", body)
        # The entity matches itself first at score 1 (cosine).
        matches = json.loads(body)["matches"]
        assert matches[0]["entity_id"] == 7
        assert matches[0]["score"] == pytest.approx(1.0)

    def test_explain(self, daemon):
        status, body = daemon.request("GET", "/entity/3/explain")
        assert status == 200
        check_golden("explain_entity3.json", body)
        report = json.loads(body)
        assert report["query"] == 3
        assert report["candidates"][0]["candidate"] == 3  # raw top-1 is itself

    def test_stats_shape(self, daemon):
        status, body = daemon.request("GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["ntotal"] == 48
        assert stats["alive"] == 48
        assert stats["delta_depth"] == 0
        assert stats["version"] == 0
        assert stats["trained"] is True
        assert set(stats) >= {"imbalance", "cache", "batcher", "nprobe"}

    def test_error_paths(self, daemon):
        assert daemon.request("GET", "/nope")[0] == 404
        assert daemon.request("GET", "/entity/999/explain")[0] == 404
        assert post(daemon, "/query", {"k": 2})[0] == 400
        assert post(daemon, "/query", {"vector": QUERY_VECTOR, "k": 0})[0] == 400
        assert post(daemon, "/delete", {"entity_id": "x"})[0] == 400
        status, body = daemon.request("POST", "/query", b"not json")
        assert status == 400
        # A bad Content-Length is answered before any body is read: a
        # negative one would otherwise block the handler in read(-1).
        for content_length, want in (
            ("-1", 400), (str(MAX_BODY_BYTES + 1), 413), ("12abc", 400)
        ):
            assert raw_status(daemon, content_length) == want
        assert daemon.request("GET", "/healthz")[0] == 200


def raw_status(daemon, content_length: str) -> int:
    """Status of a raw POST whose Content-Length header is sent verbatim."""
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
        sock.sendall(
            f"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        )
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


class TestKillAndRestart:
    PROBES = (
        ("GET", "/healthz", None),
        ("POST", "/query", {"vector": QUERY_VECTOR, "k": 5}),
        ("POST", "/query", {"entity_id": 7, "k": 3}),
        ("GET", "/entity/3/explain", None),
    )

    def collect(self, daemon):
        responses = []
        for method, path, obj in self.PROBES:
            body = json.dumps(obj).encode("utf-8") if obj is not None else None
            responses.append(daemon.request(method, path, body))
        return responses

    def test_sigterm_then_restart_is_bitwise_identical(
        self, served_artifacts, tmp_path
    ):
        first = Daemon(served_artifacts, tmp_path)
        before = self.collect(first)
        assert first.terminate() == 0  # clean SIGTERM exit

        with Daemon(served_artifacts, tmp_path) as second:
            after = self.collect(second)
            events = second.events_path.read_text().splitlines()
        assert before == after
        # Zero rebuild: the restart loaded persisted artifacts; the
        # quantizer was never retrained.
        names = [json.loads(line)["name"] for line in events]
        assert "serve.start" in names
        assert not any(name.startswith("index.train") for name in names)

    def test_inserts_survive_the_kill(self, writable_artifacts, tmp_path):
        inserted = [9.0, -3.0, 1.0, 4.0, -2.0, 0.5]
        probe = {"vector": inserted, "k": 2}
        first = Daemon(writable_artifacts, tmp_path)
        status, body = post(first, "/insert", {"vector": inserted})
        assert status == 200
        entity_id = json.loads(body)["entity_id"]
        status, before = post(first, "/query", probe)
        assert status == 200
        assert json.loads(before)["matches"][0]["entity_id"] == entity_id
        assert first.terminate() == 0

        # The store grew durably; the restart recovers the row into the
        # delta layer (no index re-save, no rebuild) and the top match
        # is the same entity with the same score bytes.
        with Daemon(writable_artifacts, tmp_path) as second:
            status, after = post(second, "/query", probe)
            assert status == 200
            assert json.loads(after)["matches"] == json.loads(before)["matches"]
            events = second.events_path.read_text().splitlines()
        payloads = [json.loads(line) for line in events]
        assert any(event["name"] == "serve.recovered" for event in payloads)
        assert not any(event["name"].startswith("index.train") for event in payloads)
