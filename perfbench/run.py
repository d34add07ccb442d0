"""The benchmark's one command.

    python3 perfbench/run.py --workload offline-scan --seed 1 --seconds 15 --trace 0

Runs one workload from ``--seed`` for about ``--seconds`` of measured
work, checks the program's outputs, prints a readable report and, as
the last line of standard output, one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a traced run that wraps each layer's public calls (a layer the
workload never calls reads 0).  The traced run also writes its spans to
``.perfbench_out/`` in the checkout.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("offline-scan", "dense-paper", "serve-mixed")

#: BLAS runs one thread, in this process and in the daemon it spawns.
#: On a small shared machine a second BLAS thread helps only when the
#: other CPU happens to be idle, which made the same job vary by up to
#: 1.6x between runs; one thread measures the work done per core.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: glibc malloc keeps the memory it frees, in this process and in the
#: daemon it spawns.  By default every large temporary array is a fresh
#: mmap whose pages fault in on first touch; on a virtual machine those
#: faults took about a third of a dense job's time and made the same job
#: vary by 1.3x between back-to-back runs.  Kept memory is re-used
#: without faults, so a run measures the computation.  The catch: a
#: change that only cuts allocation churn shows less here than it would
#: under default settings.
#: Each entry: (environment variable, mallopt(3) parameter number, value).
MALLOC_SETTINGS = (
    ("MALLOC_MMAP_THRESHOLD_", -3, 8 * 2**20),
    ("MALLOC_TRIM_THRESHOLD_", -1, 2**30),
    ("MALLOC_TOP_PAD_", -2, 64 * 2**20),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed makes the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds per run (set-up and warm-up excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    return parser.parse_args(argv)


def _program_available() -> str | None:
    """Put the checkout's ``src`` on the path; an error message if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program to measure: {src / 'repro'} is missing"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def _keep_freed_memory() -> None:
    """Apply :data:`MALLOC_SETTINGS` here (mallopt) and to child processes (env)."""
    os.environ.update({name: str(value) for name, _, value in MALLOC_SETTINGS})
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to tune
        return
    for _, parameter, value in MALLOC_SETTINGS:
        libc.mallopt(parameter, value)


def _metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str]) -> int:
    args = _parse(argv)
    os.environ.update(SINGLE_THREAD_ENV)  # before numpy is first imported
    _keep_freed_memory()
    # A stop request unwinds like an error, so the daemon and the
    # scratch directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    problem = _program_available()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import common

    specs = _metric_specs(bool(args.trace))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        record = _run_workload(args, workdir)
    except common.CheckFailed as failure:
        print(f"CORRECTNESS CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for spec in specs:
        value = record.metrics.get(spec["name"])
        if value is None:
            if not args.trace:
                raise KeyError(f"{args.workload} did not measure {spec['name']}")
            value = 0.0  # a layer this workload never calls
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}

    _report(args, common.environment(args.seed), record, specs, metrics)
    if record.failed:
        print(f"{record.failed} of {record.attempted} operations failed",
              file=sys.stderr)
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0 if record.failed == 0 else 1


def _run_workload(args: argparse.Namespace, workdir: Path):
    if args.workload == "offline-scan":
        from perfbench import offline as module
    elif args.workload == "dense-paper":
        from perfbench import dense as module
    else:
        from perfbench import serve as module
    return module.run(
        args.workload, args.seed, args.seconds, workdir, bool(args.trace)
    )


def _report(args, env, record, specs, metrics) -> None:
    """Readable lines and a detail JSON line, all before the result line."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    spans = record.detail.pop("spans", None)
    span_records = record.detail.pop("span_records", None)
    if span_records is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(span_records), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
    if spans:
        print(f"{'span':<34}{'calls':>8}{'total_s':>11}{'self_s':>11}")
        for row in spans:
            print(f"{row['span']:<34}{row['calls']:>8}{row['total_s']:>11.4f}"
                  f"{row['self_s']:>11.4f}")
    for spec in specs:
        direction = spec.get("better", "")
        print(f"  {spec['name']:<32}{metrics[spec['name']]['value']:>14.6g} "
              f"{spec['unit']:<6} {direction}")
    print("detail " + json.dumps(record.detail, sort_keys=True, default=str))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
