"""Boot and manage one real ``repro serve`` subprocess for a soak run.

Soak results are only trustworthy when the whole stack is in the loop —
HTTP parsing, the micro-batcher's queue, snapshot
publication, durable appends — so the runner drives a genuine daemon
process, never an in-process :class:`~repro.serve.state.ServingState`
shortcut.  :class:`ServeDaemon` wraps the subprocess lifecycle: spawn
with the right ``PYTHONPATH``, parse the ``serving on http://host:port``
banner for the (possibly ephemeral) port, SIGTERM + wait on exit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import TracebackType

import repro

#: Directory that makes ``import repro`` work in the child.
_PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])


class ServeDaemon:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(
        self,
        store: str | Path,
        index: str | Path,
        port: int = 0,
        extra_args: tuple[str, ...] = (),
        boot_timeout: float = 30.0,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = _PACKAGE_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store),
                "--index", str(index),
                "--port", str(port),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port = self._await_banner(boot_timeout)

    def _await_banner(self, timeout: float) -> int:
        """Block for the boot banner; raise with stderr on failure."""
        assert self.process.stdout is not None
        deadline = time.monotonic() + timeout
        banner = self.process.stdout.readline().strip()
        if "serving on" not in banner or time.monotonic() > deadline:
            stderr = ""
            try:
                _, stderr = self.process.communicate(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
            raise RuntimeError(
                f"repro serve failed to boot: banner {banner!r}; "
                f"stderr: {stderr.strip()}"
            )
        return int(banner.rsplit(":", 1)[1])

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM and reap; returns the exit code (0 = clean)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            self.process.kill()
            self.process.communicate()
        return self.process.returncode

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.terminate()
