"""Shared fixtures for the serving test pass.

``served_artifacts`` builds one deterministic store + index pair per
session (seeded PCG64 → identical bytes on every run and machine — the
golden files depend on this); ``daemon`` boots the real ``repro serve``
CLI in a subprocess on an ephemeral port and tears it down with SIGTERM.
:class:`FirstBatchGate` makes a micro-batcher coalesce queries
deterministically, with no timing window.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.index import IVFIndex
from repro.obs import metrics as obs_metrics
from repro.serve.batching import MicroBatcher
from repro.serve.http import AlignmentServer
from repro.serve.state import ServingState
from repro.storage import EmbeddingStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Fixture geometry — small enough for millisecond queries, big enough
#: that every inverted list is populated.
N_ROWS, DIM, N_CLUSTERS, CAPACITY = 48, 6, 4, 96


@pytest.fixture(autouse=True)
def fresh_metrics():
    """A metrics registry per test: a batcher records its batches in the
    registry active when it is built, and ``stats()`` reads them back."""
    with obs_metrics.scoped() as registry:
        yield registry


class FirstBatchGate:
    """A batch handler whose first call holds until ``in_flight`` items
    are in that batch or queued behind it.

    Drain-then-dispatch hands everything queued to the next batch, so
    the queries held behind the gate coalesce with no timing window.
    ``entered`` is set once the first call has started, which lets a
    test queue its other queries strictly behind the first batch.
    """

    def __init__(self, handler, in_flight: int, timeout: float = 10.0) -> None:
        self._handler = handler
        self.in_flight = in_flight
        self.timeout = timeout
        self.entered = threading.Event()
        self.batcher: MicroBatcher | None = None

    def batcher_for(self, **kwargs) -> MicroBatcher:
        """A :class:`MicroBatcher` whose handler is this gate."""
        self.batcher = MicroBatcher(self, **kwargs)
        return self.batcher

    def __call__(self, vectors, ks):
        if not self.entered.is_set():
            self.entered.set()
            deadline = time.monotonic() + self.timeout
            while len(ks) + self.batcher._queue.qsize() < self.in_flight:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"{self.in_flight} items never queued behind the gate"
                    )
                time.sleep(0.001)
        return self._handler(vectors, ks)


@dataclass
class Artifacts:
    store: Path
    index: Path
    vectors: np.ndarray


@pytest.fixture(scope="session")
def served_artifacts(tmp_path_factory) -> Artifacts:
    root = tmp_path_factory.mktemp("serve-artifacts")
    rng = np.random.default_rng(20240807)
    vectors = rng.normal(size=(N_ROWS, DIM)).astype(np.float64)
    store_path = root / "entities.store"
    store = EmbeddingStore.create(
        store_path, vectors.shape, "float64", capacity=CAPACITY
    )
    store[:] = vectors
    store.update_checksum()
    store.close()
    index_path = root / "entities.ivf.json"
    IVFIndex(n_clusters=N_CLUSTERS).train(vectors).add(vectors).save(index_path)
    return Artifacts(store=store_path, index=index_path, vectors=vectors)


class Daemon:
    """One ``repro serve`` subprocess plus a tiny urllib client."""

    def __init__(self, artifacts: Artifacts, tmp_path: Path, extra_args=()):
        self.events_path = tmp_path / f"events-{os.getpid()}-{time.monotonic_ns()}.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(artifacts.store),
                "--index", str(artifacts.index),
                "--port", "0",
                "--events", str(self.events_path),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = self.process.stdout.readline().strip()
        if "serving on" not in banner:
            err = self.process.stderr.read()
            raise RuntimeError(f"daemon failed to boot: {banner!r} / {err}")
        self.port = int(banner.rsplit(":", 1)[1])

    def request(self, method: str, path: str, body: bytes | None = None):
        """(status, raw bytes) for one request; HTTP errors are returned."""
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def terminate(self) -> int:
        """SIGTERM and wait; returns the exit code (0 = clean)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            self.process.kill()
            self.process.communicate()
        return self.process.returncode

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


@pytest.fixture
def daemon(served_artifacts, tmp_path):
    with Daemon(served_artifacts, tmp_path) as running:
        yield running


@pytest.fixture
def writable_artifacts(served_artifacts, tmp_path) -> Artifacts:
    """A private copy of the artifacts for tests that mutate the store."""
    import shutil

    store = tmp_path / served_artifacts.store.name
    index = tmp_path / served_artifacts.index.name
    shutil.copy(served_artifacts.store, store)
    shutil.copy(served_artifacts.index, index)
    return Artifacts(store=store, index=index, vectors=served_artifacts.vectors)


@pytest.fixture
def live_server(tmp_path):
    """An in-process daemon: events observable, ephemeral port."""
    rng = np.random.default_rng(13)
    base = rng.normal(size=(16, 4)).astype(np.float64)
    store_path = tmp_path / "emb.store"
    store = EmbeddingStore.create(store_path, base.shape, "float64",
                                  capacity=32)
    store[:] = base
    store.update_checksum()
    store.close()
    IVFIndex(n_clusters=2).train(base).add(base).save(tmp_path / "ivf.json")
    state = ServingState.load(store_path, tmp_path / "ivf.json")
    server = AlignmentServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=5)
