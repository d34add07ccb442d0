"""Bench-regression gate: re-run the timed benchmarks and diff the numbers.

The engine-speedup, obs-overhead, out-of-core-scale, serving-latency,
and soak benchmarks write their measurements to
``benchmarks/results/BENCH_engine.json`` / ``BENCH_obs.json`` /
``BENCH_scale.json`` / ``BENCH_serve.json`` / ``BENCH_soak.json``;
those committed files are the performance baseline.  This script

1. snapshots the committed baselines,
2. re-runs the benchmark modules (which overwrite the files),
3. compares every gated leaf of the fresh run against the baseline,
   failing on a regression beyond its tolerance band,
4. restores the committed baselines so the working tree stays clean
   (pass ``--update`` to keep the fresh numbers as the new baseline).

Four families of leaves are gated.  Every leaf belongs to at most one
family — classification is by key name, most specific first — and every
failure line names the family that tripped, so a violated key is
diagnosable without re-deriving which band applied:

* ``latency`` (``*p99*`` / ``*p999*``) — tail-latency percentiles from
  the soak and serving benchmarks, lower is better.  Fails only when
  **both** more than ``--latency-tolerance`` (default 40%) above the
  baseline **and** more than ``--latency-floor`` (default 0.02 s = 20 ms)
  above it absolutely — tails are noisier than medians, so both bands
  are wider than the timing family's.  Checked before the generic
  timing family so ``p99_seconds`` never double-matches.
* ``timing`` (``*seconds*``) — wall-clock timings, lower is better.
  Fails only when **both** more than ``--tolerance`` (default 25%)
  slower than the baseline **and** more than ``--floor`` (default
  0.05 s) slower in absolute terms — the floor keeps millisecond-scale
  timings from tripping the gate on scheduler noise.
* ``rate`` (``*per_second*``) — throughput, higher is better.  Fails
  when the fresh rate drops below ``1 - --rate-tolerance`` (default
  60%) of the baseline; hardware varies far more than a single box's
  run-to-run noise, so the band is wide.
* ``rss`` (``*rss_bytes*``) — measured peak RSS, lower is better.
  Fails only when **both** more than ``--rss-tolerance`` (default 50%)
  above baseline **and** more than ``--rss-floor`` (default 256 MiB)
  above it in absolute terms — the pair catches an accidental n x n
  materialisation (gigabytes) while ignoring allocator jitter.

Faster / leaner-than-baseline numbers never fail.

Usage (or ``make bench-check``)::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --update
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES = (
    "BENCH_engine.json",
    "BENCH_obs.json",
    "BENCH_scale.json",
    "BENCH_serve.json",
    "BENCH_soak.json",
)
BENCH_MODULES = (
    "test_engine_speedup.py",
    "test_obs_overhead.py",
    "test_scale.py",
    "test_serve_latency.py",
    "test_soak.py",
)

#: BLAS thread counts for the benchmark process; the same values as
#: ``perfbench/run.py``'s ``SINGLE_THREAD_ENV``.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Gate families in classification order (most specific key match first).
FAMILIES = ("latency", "timing", "rate", "rss")


def flatten(document: object, prefix: str = "") -> dict[str, float]:
    """Dotted-path -> value for every numeric leaf of a JSON document."""
    leaves: dict[str, float] = {}
    if isinstance(document, dict):
        for key, value in document.items():
            leaves.update(flatten(value, f"{prefix}{key}." if prefix or key else key))
    elif isinstance(document, (int, float)) and not isinstance(document, bool):
        leaves[prefix.rstrip(".")] = float(document)
    return leaves


def family_of(path: str) -> str | None:
    """Which gate family a leaf belongs to (None = ungated).

    Order matters: ``p99_seconds`` / ``p999_seconds`` are *latency*
    leaves, not timing leaves, even though they also contain "seconds"
    — the latency test runs first so each key matches exactly one band.
    """
    leaf = path.rsplit(".", 1)[-1]
    if "p99" in leaf:  # catches both p99_* and p999_*
        return "latency"
    if "seconds" in path:
        return "timing"
    if "per_second" in path:
        return "rate"
    if "rss_bytes" in path:
        return "rss"
    return None


def family_paths(leaves: dict[str, float], family: str) -> dict[str, float]:
    """Only the leaves gated by ``family``."""
    return {
        path: value for path, value in leaves.items() if family_of(path) == family
    }


def compare_lower_better(
    family: str,
    baseline: dict[str, float],
    fresh: dict[str, float],
    tolerance: float,
    floor: float,
    unit: str = "s",
) -> list[str]:
    """Gate for lower-is-better leaves with a relative + absolute band."""
    failures = []
    for path, old in sorted(baseline.items()):
        new = fresh.get(path)
        if new is None:
            failures.append(
                f"MISSING  [{family}] {path}: baseline {old:.4f}{unit} "
                f"has no fresh value"
            )
            continue
        if new > old * (1.0 + tolerance) and new - old > floor:
            failures.append(
                f"SLOWER   [{family}] {path}: {old:.4f}{unit} -> {new:.4f}{unit} "
                f"(+{(new / old - 1.0) * 100.0:.0f}%, band is +{tolerance * 100:.0f}% "
                f"and +{floor:.3f}{unit})"
            )
    return failures


def compare_rates(
    baseline: dict[str, float],
    fresh: dict[str, float],
    tolerance: float,
) -> list[str]:
    """Throughput gate: fresh rate must stay within the band below baseline."""
    failures = []
    for path, old in sorted(baseline.items()):
        new = fresh.get(path)
        if new is None:
            failures.append(
                f"MISSING  [rate] {path}: baseline {old:.1f}/s has no fresh value"
            )
            continue
        if new < old * (1.0 - tolerance):
            failures.append(
                f"SLOWER   [rate] {path}: {old:.1f}/s -> {new:.1f}/s "
                f"({(new / old - 1.0) * 100.0:.0f}%, band is -{tolerance * 100:.0f}%)"
            )
    return failures


def compare_rss(
    baseline: dict[str, float],
    fresh: dict[str, float],
    tolerance: float,
    floor_bytes: float,
) -> list[str]:
    """Peak-RSS gate: flags growth that smells like an n x n allocation."""
    failures = []
    for path, old in sorted(baseline.items()):
        new = fresh.get(path)
        if new is None:
            failures.append(
                f"MISSING  [rss] {path}: baseline {old / 2**20:.0f}MiB "
                f"has no fresh value"
            )
            continue
        if new > old * (1.0 + tolerance) and new - old > floor_bytes:
            failures.append(
                f"BIGGER   [rss] {path}: {old / 2**20:.0f}MiB -> {new / 2**20:.0f}MiB "
                f"(+{(new / old - 1.0) * 100.0:.0f}%, band is +{tolerance * 100:.0f}%)"
            )
    return failures


def evaluate(
    baseline: dict[str, float],
    fresh: dict[str, float],
    *,
    tolerance: float = 0.25,
    floor: float = 0.05,
    rate_tolerance: float = 0.6,
    rss_tolerance: float = 0.5,
    rss_floor: float = 256 * 2**20,
    latency_tolerance: float = 0.40,
    latency_floor: float = 0.020,
) -> list[str]:
    """All gate families over one (baseline, fresh) leaf pair.

    The pure core of the gate — ``main`` calls it per baseline file and
    the unit tests call it with synthetic documents.
    """
    failures: list[str] = []
    failures.extend(
        compare_lower_better(
            "latency",
            family_paths(baseline, "latency"), family_paths(fresh, "latency"),
            latency_tolerance, latency_floor,
        )
    )
    failures.extend(
        compare_lower_better(
            "timing",
            family_paths(baseline, "timing"), family_paths(fresh, "timing"),
            tolerance, floor,
        )
    )
    failures.extend(
        compare_rates(
            family_paths(baseline, "rate"), family_paths(fresh, "rate"),
            rate_tolerance,
        )
    )
    failures.extend(
        compare_rss(
            family_paths(baseline, "rss"), family_paths(fresh, "rss"),
            rss_tolerance, rss_floor,
        )
    )
    return failures


def run_benchmarks() -> int:
    """Re-run the timed benchmark modules; returns the pytest exit code."""
    command = [
        sys.executable, "-m", "pytest", "-q", *BENCH_MODULES,
    ]
    env = dict(os.environ)
    # One BLAS thread, as perfbench runs: on a small shared machine a
    # default-threaded process can run every BLAS call ~10x slower when
    # the other CPUs are busy, which reads as a regression of the code.
    env.update(SINGLE_THREAD_ENV)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(command, cwd=BENCH_DIR, env=env)
    return completed.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative slowdown band for *seconds* leaves "
             "(0.25 = fail beyond +25%%)",
    )
    parser.add_argument(
        "--floor", type=float, default=0.05,
        help="absolute slowdown floor in seconds (noise guard)",
    )
    parser.add_argument(
        "--rate-tolerance", type=float, default=0.6,
        help="allowed throughput drop for *per_second* leaves "
             "(0.6 = fail below 40%% of baseline)",
    )
    parser.add_argument(
        "--rss-tolerance", type=float, default=0.5,
        help="relative peak-RSS growth band (0.5 = fail beyond +50%%)",
    )
    parser.add_argument(
        "--rss-floor", type=float, default=256 * 2**20,
        help="absolute peak-RSS growth floor in bytes (noise guard)",
    )
    parser.add_argument(
        "--latency-tolerance", type=float, default=0.40,
        help="relative band for tail-latency *p99*/*p999* leaves "
             "(0.40 = fail beyond +40%%)",
    )
    parser.add_argument(
        "--latency-floor", type=float, default=0.020,
        help="absolute tail-latency floor in seconds (default 20 ms; "
             "tails jitter more than medians)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="keep the fresh numbers as the new committed baseline",
    )
    args = parser.parse_args(argv)

    missing = [name for name in BASELINES if not (RESULTS_DIR / name).exists()]
    if missing:
        print(f"no committed baseline for {', '.join(missing)}; run `make bench` first")
        return 2

    with tempfile.TemporaryDirectory(prefix="bench-baseline-") as checkpoint:
        for name in BASELINES:
            shutil.copy2(RESULTS_DIR / name, Path(checkpoint) / name)
        exit_code = run_benchmarks()
        if exit_code != 0:
            print(f"benchmark run failed (pytest exit {exit_code}); gate not evaluated")
            for name in BASELINES:
                shutil.copy2(Path(checkpoint) / name, RESULTS_DIR / name)
            return exit_code

        failures: list[str] = []
        for name in BASELINES:
            baseline = flatten(
                json.loads((Path(checkpoint) / name).read_text("utf-8"))
            )
            fresh = flatten(json.loads((RESULTS_DIR / name).read_text("utf-8")))
            failures.extend(
                f"{name}: {line}"
                for line in evaluate(
                    baseline, fresh,
                    tolerance=args.tolerance,
                    floor=args.floor,
                    rate_tolerance=args.rate_tolerance,
                    rss_tolerance=args.rss_tolerance,
                    rss_floor=args.rss_floor,
                    latency_tolerance=args.latency_tolerance,
                    latency_floor=args.latency_floor,
                )
            )

        if not args.update:
            for name in BASELINES:
                shutil.copy2(Path(checkpoint) / name, RESULTS_DIR / name)

    if args.update:
        # Rebaselining: the fresh numbers are the new truth by definition.
        print("bench-check rebaselined; review and commit the BENCH_*.json diffs")
        for line in failures:
            print(f"  was outside band: {line}")
        return 0
    if failures:
        print("bench-check FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("bench-check passed (baselines restored)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
