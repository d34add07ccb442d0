"""Import contracts: the lazy package init and the daemon's boot imports.

``import repro`` loads no submodule; ``from repro import X`` still works
for every public name.  ``repro serve`` boots through ``repro.cli.main``
on the matching side only (no KG layer, dataset generators, experiment
harness, embedding models or ``scipy.sparse``), and imports at boot
everything a request can reach, so no request pays for an import.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.index import IVFIndex
from repro.storage import EmbeddingStore

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The public names of ``repro``; a removal or rename breaks callers.
PUBLIC_NAMES = [
    "AlignmentMetrics",
    "AlignmentPipeline",
    "AlignmentPrediction",
    "AlignmentTask",
    "ConvergenceError",
    "DataIntegrityError",
    "DeadlineExceeded",
    "KnowledgeGraph",
    "MatchResult",
    "Matcher",
    "MatcherError",
    "ResourceBudgetExceeded",
    "RunSupervisor",
    "SimilarityEngine",
    "SupervisorPolicy",
    "UnifiedEmbeddings",
    "__version__",
    "available_matchers",
    "create_matcher",
    "evaluate_pairs",
    "list_presets",
    "load_preset",
]

#: Modules no request of the daemon can reach.
OFFLINE_MODULES = (
    "scipy.sparse",
    "repro.kg",
    "repro.datasets",
    "repro.experiments",
    "repro.embedding",
)

#: What ``np.percentile`` imports on its first call.  Neither the boot
#: nor any request loads it: the batcher's ``/stats`` reads histograms.
MASKED_ARRAYS = "numpy.ma"


def _run(code: str, *args: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a fresh interpreter (this process has imported
    everything already); return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestLazyPackageInit:
    def test_all_is_unchanged(self):
        assert repro.__all__ == PUBLIC_NAMES
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", [n for n in PUBLIC_NAMES if n != "__version__"])
    def test_name_is_its_home_modules_object(self, name):
        value = getattr(repro, name)
        assert value is getattr(importlib.import_module(repro._EXPORTS[name]), name)
        # ... and the very object its defining module holds.
        assert value is getattr(sys.modules[value.__module__], name)

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(repro))

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
            repro.NoSuchName  # noqa: B018
        assert not hasattr(repro, "_not_exported")

    def test_import_repro_loads_no_submodule(self):
        loaded = _run(
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.') or m in ('numpy', 'scipy')))\n"
        )
        assert loaded == "[]"

    def test_star_import_binds_every_public_name(self):
        names = _run(
            "from repro import *\n"
            "import repro\n"
            "print(all(globals()[n] is getattr(repro, n) for n in repro.__all__))\n"
        )
        assert names == "True"


#: Boots ``repro serve`` through ``repro.cli.main`` as far as its imports:
#: the subcommand imports everything before it opens the store, so a
#: store that does not exist stops it right after the boot imports.
_BOOT = """
import json, sys
from repro.cli import main

code = main(["serve", "--store", "no-such.store", "--index", "no-such.json"])
"""

_BOOT_MODULES = _BOOT + """
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: After the boot imports, serve one request of every kind in-process
#: and print the modules the requests imported.
_REQUESTS = _BOOT + """
import threading, urllib.request
from repro.serve.http import AlignmentServer
from repro.serve.state import ServingState

state = ServingState.load(sys.argv[1], sys.argv[2])
server = AlignmentServer(("127.0.0.1", 0), state)
threading.Thread(target=server.serve_forever, daemon=True).start()
url = f"http://127.0.0.1:{server.server_address[1]}"
booted = set(sys.modules)
for method, path, body in [
    ("GET", "/healthz", None),
    ("POST", "/query", {"vector": [0.1, 0.2, 0.3, 0.4], "k": 3}),
    ("POST", "/query", {"entity_id": 2, "k": 3}),
    ("POST", "/insert", {"vector": [0.4, 0.3, 0.2, 0.1]}),
    ("POST", "/delete", {"entity_id": 5}),
    ("GET", "/entity/1/explain", None),
    ("GET", "/stats", None),
    ("GET", "/metrics", None),
]:
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200, (path, response.status)
server.shutdown()
server.close()
print(json.dumps({"imported": sorted(set(sys.modules) - booted),
                  "modules": sorted(sys.modules)}))
"""


@pytest.fixture
def artifacts(tmp_path) -> tuple[Path, Path]:
    base = np.random.default_rng(13).normal(size=(16, 4))
    store_path = tmp_path / "emb.store"
    store = EmbeddingStore.create(store_path, base.shape, "float64", capacity=32)
    store[:] = base
    store.update_checksum()
    store.close()
    index_path = tmp_path / "ivf.json"
    IVFIndex(n_clusters=2).train(base).add(base).save(index_path)
    return store_path, index_path


class TestServeBootImports:
    def test_boot_loads_no_offline_module(self, tmp_path):
        booted = json.loads(_run(_BOOT_MODULES, cwd=tmp_path))
        assert booted["code"] == 1  # "cannot load serving state"
        assert [m for m in OFFLINE_MODULES if m in booted["modules"]] == []
        # A request's reach is loaded at boot: /explain needs repro.core.
        assert {"repro.eval.explain", "repro.core"} <= set(booted["modules"])
        assert MASKED_ARRAYS not in booted["modules"]

    def test_no_request_imports_a_module(self, artifacts):
        store, index = artifacts
        served = _run(_REQUESTS, str(store), str(index), cwd=store.parent)
        served = json.loads(served.splitlines()[-1])
        assert served["imported"] == []
        assert MASKED_ARRAYS not in served["modules"]  # not even /stats
