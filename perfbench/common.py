"""Statistics, fingerprints, environment facts and the run record.

Everything here is plain Python/numpy so the helper tests can exercise
it without the program under test.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np

#: Percentiles a tail may be reported at, highest first.  A fixed ladder
#: keeps the reported point comparable between runs whose sample counts
#: differ slightly.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A tail point is only trusted with at least this many samples above it.
MIN_BEYOND = 10

#: Stand-in for an infinite latency in JSON output (JSON has no inf).
#: A failed request counts as missing every latency limit.
FAILED_LATENCY_MS = 1e9


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The nearest-rank ``pct`` percentile and how many samples lie above it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(samples, min_beyond: int = MIN_BEYOND) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder percentile with at
    least ``min_beyond`` samples beyond it, or None if even the median
    has too few.

    Pass failed requests as ``math.inf``: they sort last, so they count
    towards the samples beyond every percentile and, when there are
    many, become the tail value themselves.
    """
    ordered = sorted(samples)
    if not ordered:
        return None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= min_beyond:
            return pct, value
    return None


def finite_ms(seconds: float) -> float:
    """Seconds to milliseconds, with a failure (inf) mapped to a sentinel."""
    return FAILED_LATENCY_MS if math.isinf(seconds) else seconds * 1e3


def fingerprint(*parts) -> str:
    """blake2b digest of arrays, numbers and strings, in order.

    Arrays contribute their dtype, shape and bytes, so two inputs with
    the same fingerprint are bitwise identical.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_count() -> int:
    """CPUs this process may run on (what the load generator is capped at)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def blas_threads() -> str:
    """The thread count the loaded OpenBLAS reports, or the environment's."""
    import ctypes

    libs = [
        path for path in _loaded_libraries()
        if "openblas" in os.path.basename(path).lower()
    ]
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return f"openblas={getter()}"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name):
            return f"{name}={os.environ[name]}"
    return "unknown"


def _loaded_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if ".so" in line}
    except OSError:
        return []
    return sorted(paths)


def environment(seed: int) -> dict[str, object]:
    """Facts a reader needs to compare two runs."""
    return {
        "seed": seed,
        "nproc": cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": sys.platform,
        "malloc": {
            name: value for name, value in sorted(os.environ.items())
            if name.startswith("MALLOC_")
        },
    }


@dataclass
class RunRecord:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Everything else worth printing: fingerprints, tails, counts.
    detail: dict[str, object] = field(default_factory=dict)
