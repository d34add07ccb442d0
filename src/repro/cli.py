"""Command-line interface: regenerate paper artifacts and run matchers.

Usage (after ``pip install -e .``)::

    python -m repro tables 4              # print Table 4
    python -m repro tables all -o out/    # regenerate every table to out/
    python -m repro figures 7             # print Figure 7's series
    python -m repro datasets list         # preset catalogue
    python -m repro datasets export dbp15k/zh_en -o data/dz   # OpenEA files
    python -m repro match dbp15k/zh_en --regime R --matcher CSLS
    python -m repro match dbp15k/zh_en --matcher Hun. \
        --timeout 30 --memory-budget 512 --retries 2 --on-error fallback
    python -m repro match dbp15k/zh_en --matcher Sink. --profile out.json
    python -m repro match dbp15k/zh_en --matcher CSLS --index ivf --k 50 --nprobe 4
    python -m repro match dbp15k/zh_en --matcher Hun. --ledger runs.jsonl --events -
    python -m repro index build dbp15k/zh_en --regime R -o out/zh_en.ivf.json
    python -m repro index stats out/zh_en.ivf.json
    python -m repro profile summarize out.json
    python -m repro explain dbp15k/zh_en --query 3        # Appendix D case study
    python -m repro runs list --ledger runs.jsonl
    python -m repro runs record --ledger runs.jsonl       # canonical seeded sweep
    python -m repro runs drift                            # gate vs committed bands
    python -m repro runs fsck --ledger runs.jsonl --repair  # truncate a torn tail
    python -m repro store verify out/embeddings.npy.store # checksum an embedding store
    python -m repro serve --store out/emb.store --index out/zh_en.ivf.json --port 8080
    python -m repro soak --store out/emb.store --index out/zh_en.ivf.json \
        --duration 30 --qps 100 --seed 0 --report soak.json
    python -m repro match dbp15k/zh_en --matcher Hun. --ledger runs.jsonl --resume
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# The parser's own needs, and nothing more: a subcommand's modules are
# imported inside the function that runs it, so ``repro serve`` boots
# without the KG layer, the dataset generators or ``scipy.sparse``.
from repro.core.registry import available_matchers
from repro.index import INDEX_KINDS
from repro.obs.drift import DEFAULT_LEDGER_PATH, DEFAULT_REFERENCE_PATH

if TYPE_CHECKING:
    from repro.index import IndexConfig, IVFIndex
    from repro.runtime.supervisor import SupervisorPolicy
    from repro.similarity.engine import SimilarityEngine

#: Table key -> builder in :mod:`repro.experiments.tables`.
_TABLES = {
    "3": "table3_dataset_statistics",
    "4": "table4_structure_only",
    "5": "table5_auxiliary_information",
    "6": "table6_large_scale",
    "7": "table7_unmatchable",
    "8": "table8_non_one_to_one",
}

#: Figure key -> builder in :mod:`repro.experiments.figures`.
_FIGURES = {
    "4": "figure4_top5_std",
    "5": "figure5_efficiency",
    "6": "figure6_csls_k",
    "7": "figure7_sinkhorn_l",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EntMatcher reproduction: regenerate the paper's artifacts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="regenerate a paper table")
    tables.add_argument("which", choices=[*_TABLES, "all"])
    tables.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier")
    tables.add_argument("--output", "-o", type=Path, default=None,
                        help="directory to also write the rendered tables to")

    figures = subparsers.add_parser("figures", help="regenerate a paper figure")
    figures.add_argument("which", choices=[*_FIGURES, "all"])
    figures.add_argument("--scale", type=float, default=1.0)

    datasets = subparsers.add_parser("datasets", help="dataset preset utilities")
    dataset_sub = datasets.add_subparsers(dest="dataset_command", required=True)
    dataset_sub.add_parser("list", help="list available presets")
    export = dataset_sub.add_parser("export", help="export a preset in OpenEA format")
    export.add_argument("preset")
    export.add_argument("--output", "-o", type=Path, required=True)
    export.add_argument("--scale", type=float, default=1.0)

    report = subparsers.add_parser(
        "report", help="regenerate every table and figure into one report"
    )
    report.add_argument("--output", "-o", type=Path, required=True)
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument("--seed", type=int, default=0)

    match = subparsers.add_parser("match", help="run one matcher on one preset")
    match.add_argument("preset")
    match.add_argument("--regime", default="R",
                       help="embedding regime (R/G/N/NR/gcn/rrea)")
    match.add_argument("--matcher", default="DInf", choices=available_matchers())
    match.add_argument("--scale", type=float, default=1.0)
    match.add_argument("--shard-rows", type=int, default=None, metavar="ROWS",
                       help="rows per similarity shard (default: sized from "
                            "the chunk/memory budget)")
    match.add_argument("--dtype", choices=["float32", "float64"], default="float64",
                       help="similarity compute precision (float32 halves "
                            "memory bandwidth on the score matrix)")
    match.add_argument("--no-cache", action="store_true",
                       help="disable the engine's score-matrix cache")
    match.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="wall-clock deadline per matcher attempt")
    match.add_argument("--memory-budget", type=float, default=None, metavar="MIB",
                       help="peak declared working-set budget in MiB")
    match.add_argument("--on-error", choices=["raise", "skip", "fallback"],
                       default="raise",
                       help="terminal-failure handling: raise exits non-zero, "
                            "skip reports the failure, fallback walks the "
                            "degradation ladder (Hun.->Greedy, Sink.->CSLS)")
    match.add_argument("--retries", type=int, default=0,
                       help="extra attempts for retryable failures "
                            "(e.g. Sinkhorn divergence, retried at a higher "
                            "temperature with deterministic backoff)")
    match.add_argument("--sparse-k", type=int, default=None, metavar="K",
                       help="with --on-error fallback: on a memory-budget "
                            "breach, retry the same matcher sparsely on its "
                            "top-K candidate lists before any ladder hop")
    match.add_argument("--profile", type=Path, default=None, metavar="PATH",
                       help="record the run under the tracing layer and "
                            "write a schema-versioned JSON profile (spans, "
                            "events, metric counters) to PATH")
    match.add_argument("--ledger", type=Path, default=None, metavar="PATH",
                       help="append one provenance-stamped record for this "
                            "run to the JSONL run ledger at PATH "
                            "(see 'repro runs')")
    match.add_argument("--resume", action="store_true",
                       help="with --ledger: skip the run if the ledger already "
                            "holds an 'ok' record for this exact cell "
                            "(preset/regime/matcher/scale/metric); failed and "
                            "degraded cells re-run.  Reads the ledger "
                            "tolerantly, so a crash-torn tail does not block "
                            "resuming")
    match.add_argument("--durable", action="store_true",
                       help="fsync every ledger append (WAL durability): an "
                            "acknowledged record survives a crash or power "
                            "cut")
    match.add_argument("--events", default=None, metavar="PATH",
                       help="stream live telemetry events: '-' renders "
                            "human-readable lines on stderr, anything else "
                            "appends JSONL to that path")
    match.add_argument("--index", choices=INDEX_KINDS, default=None,
                       help="run the sparse matching path on candidate "
                            "lists: 'exact' streams the true top-k, 'ivf' "
                            "probes an inverted-file index — no dense n x n "
                            "matrix for sparse-aware matchers")
    match.add_argument("--k", type=int, default=50,
                       help="candidates kept per source row (with --index)")
    match.add_argument("--nprobe", type=int, default=4,
                       help="inverted lists scanned per query (--index ivf)")
    match.add_argument("--clusters", type=int, default=16,
                       help="coarse-quantizer clusters (--index ivf)")

    index = subparsers.add_parser(
        "index", help="build and inspect ANN candidate indexes"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser(
        "build", help="train an IVF index on a preset's target embeddings"
    )
    build.add_argument("preset")
    build.add_argument("--regime", default="R",
                       help="embedding regime (R/G/N/NR/gcn/rrea)")
    build.add_argument("--output", "-o", type=Path, required=True)
    build.add_argument("--scale", type=float, default=1.0)
    build.add_argument("--clusters", type=int, default=16)
    build.add_argument("--metric", default="cosine")
    build.add_argument("--events", default=None, metavar="PATH",
                       help="stream build progress events (k-means rounds, "
                            "list fill): '-' renders human-readable lines on "
                            "stderr, anything else appends JSONL to that path")
    stats = index_sub.add_parser(
        "stats", help="print a saved index's structure statistics"
    )
    stats.add_argument("path", type=Path)

    profile = subparsers.add_parser(
        "profile", help="inspect observability profiles"
    )
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)
    summ = profile_sub.add_parser(
        "summarize", help="render a profile JSON as a flame-style text summary"
    )
    summ.add_argument("path", type=Path)

    explain = subparsers.add_parser(
        "explain",
        help="explain one query's matching decision (paper Appendix D)",
    )
    explain.add_argument("preset")
    explain.add_argument("--query", type=int, required=True, metavar="ID",
                         help="test-query row to explain (0-based position "
                              "in the preset's test split)")
    explain.add_argument("--regime", default="R",
                         help="embedding regime (R/G/N/NR/gcn/rrea)")
    explain.add_argument("--scale", type=float, default=1.0)
    explain.add_argument("--top-k", type=int, default=5,
                         help="candidates listed in the report")
    explain.add_argument("--csls-k", type=int, default=2,
                         help="CSLS neighbourhood size for the rescaled view")

    runs = subparsers.add_parser(
        "runs", help="inspect run-ledger files and watch for accuracy drift"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="one line per ledger record, oldest first"
    )
    runs_list.add_argument("--ledger", type=Path, default=DEFAULT_LEDGER_PATH)
    runs_list.add_argument("--status", choices=["ok", "degraded", "failed"],
                           default=None, help="only records with this status")
    runs_show = runs_sub.add_parser(
        "show", help="full JSON of one record, by run id (or unique prefix)"
    )
    runs_show.add_argument("run_id")
    runs_show.add_argument("--ledger", type=Path, default=DEFAULT_LEDGER_PATH)
    runs_diff = runs_sub.add_parser(
        "diff", help="per-cell metric deltas between two ledgers' latest records"
    )
    runs_diff.add_argument("old", type=Path)
    runs_diff.add_argument("new", type=Path)
    runs_record = runs_sub.add_parser(
        "record",
        help="run the canonical seeded reference sweep, appending to a ledger",
    )
    runs_record.add_argument("--ledger", type=Path, required=True)
    runs_drift = runs_sub.add_parser(
        "drift",
        help="check a ledger's latest records against committed reference "
             "bands; exits nonzero on violation",
    )
    runs_drift.add_argument("--ledger", type=Path, default=DEFAULT_LEDGER_PATH)
    runs_drift.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE_PATH)
    runs_fsck = runs_sub.add_parser(
        "fsck",
        help="check a ledger for corruption; --repair truncates a torn tail "
             "(preserved in a .bak sidecar).  Exit 0 clean/repaired, 1 torn "
             "tail unrepaired, 2 mid-file corruption",
    )
    runs_fsck.add_argument("--ledger", type=Path, default=DEFAULT_LEDGER_PATH)
    runs_fsck.add_argument("--repair", action="store_true",
                           help="truncate a torn tail after copying it to "
                                "<ledger>.bak")

    store = subparsers.add_parser(
        "store", help="inspect memmap embedding stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="recompute an embedding store's payload checksum against its "
             "header; exits nonzero on corruption",
    )
    store_verify.add_argument("path", type=Path)

    serve = subparsers.add_parser(
        "serve",
        help="run the online alignment service over a store + index",
    )
    serve.add_argument("--store", type=Path, required=True,
                       help="sealed embedding store (see EmbeddingStore)")
    serve.add_argument("--index", type=Path, required=True,
                       help="persisted IVF index built over the store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks an ephemeral one)")
    serve.add_argument("--nprobe", type=int, default=None,
                       help="lists probed per query (default: all, exact)")
    serve.add_argument("--max-delta", type=int, default=64,
                       help="delta depth that triggers append compaction")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batcher coalescing cap")
    serve.add_argument("--events", default=None, metavar="PATH",
                       help="stream per-request events: '-' for human-readable "
                            "stderr, anything else appends JSONL to that path")
    serve.add_argument("--ledger", type=Path, default=None,
                       help="record served queries in this run ledger")
    serve.add_argument("--access-log", type=Path, default=None, metavar="PATH",
                       help="append one canonical-JSON line per request "
                            "(serve.access / serve.slow / serve.http) here")
    serve.add_argument("--slow-ms", type=float, default=100.0,
                       help="slow-query threshold in milliseconds: requests "
                            "over it log their captured span tree")
    serve.add_argument("--slo-objective", type=float, default=0.999,
                       help="SLO good-fraction objective for the burn-rate "
                            "tracker (default: three nines)")
    serve.add_argument("--slo-latency-ms", type=float, default=None,
                       help="count ok-but-slower-than-this requests as SLO "
                            "budget spend (default: errors only)")

    soak = subparsers.add_parser(
        "soak",
        help="replay a seeded open-loop traffic mix against the serving "
             "daemon and report tail latency + sustained QPS",
    )
    soak.add_argument("--store", type=Path, default=None,
                      help="embedding store to boot a daemon over "
                           "(with --index; omit both when using --url)")
    soak.add_argument("--index", type=Path, default=None,
                      help="persisted IVF index matching --store")
    soak.add_argument("--url", default=None,
                      help="drive an already-running daemon at this base URL "
                           "instead of booting a subprocess")
    soak.add_argument("--spec", type=Path, default=None,
                      help="WorkloadSpec JSON (CLI flags below override "
                           "its duration/qps/seed)")
    soak.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                      help="scheduled stream length (default 10s)")
    soak.add_argument("--qps", type=float, default=None,
                      help="target offered rate, open-loop (default 50)")
    soak.add_argument("--seed", type=int, default=None,
                      help="stream seed: same seed, same artifacts => "
                           "identical request stream (default 0)")
    soak.add_argument("--workers", type=int, default=16,
                      help="client threads firing the schedule")
    soak.add_argument("--report", type=Path, default=None, metavar="PATH",
                      help="write the schema-versioned SoakReport JSON here")
    soak.add_argument("--slo-p99-ms", type=float, default=None, metavar="MS",
                      help="gate mode: exit nonzero when p99 exceeds this "
                           "or any request errored/timed out")
    soak.add_argument("--events", default=None, metavar="PATH",
                      help="stream soak.* events: '-' for human-readable "
                           "stderr, anything else appends JSONL to that path")
    soak.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                      help="snapshot the daemon's post-run /metrics "
                           "exposition to this file")
    soak.add_argument("--no-scrape", action="store_true",
                      help="skip the post-run /metrics scrape (drops the "
                           "report's server-side cross-check block)")

    obs = subparsers.add_parser(
        "obs", help="live telemetry utilities for a running daemon"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_scrape = obs_sub.add_parser(
        "scrape",
        help="snapshot a daemon's /metrics Prometheus exposition to a "
             "file (or stdout)",
    )
    obs_scrape.add_argument("--url", required=True,
                            help="daemon base URL, e.g. http://127.0.0.1:8080")
    obs_scrape.add_argument("--output", type=Path, default=None, metavar="PATH",
                            help="write the exposition document here "
                                 "(default: stdout)")
    return parser


def _run_tables(args: argparse.Namespace) -> int:
    from repro.experiments import tables
    from repro.experiments.reporting import format_table

    for name in list(_TABLES) if args.which == "all" else [args.which]:
        table = getattr(tables, _TABLES[name])(scale=args.scale)
        text = format_table(table.rows, title=table.title)
        print(text)
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            (args.output / f"table{name}.txt").write_text(
                text + "\n", encoding="utf-8"
            )
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    for name in list(_FIGURES) if args.which == "all" else [args.which]:
        figure = getattr(figures, _FIGURES[name])(scale=args.scale)
        print(figure.title)
        for series, points in figure.series.items():
            rendered = "  ".join(f"{x}:{y:.3f}" for x, y in points)
            print(f"  {series}: {rendered}")
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    from repro.datasets.zoo import list_presets, load_preset
    from repro.kg.io import save_alignment_task

    if args.dataset_command == "list":
        for preset in list_presets():
            print(preset)
        return 0
    task = load_preset(args.preset, scale=args.scale)
    directory = save_alignment_task(task, args.output)
    print(f"exported {args.preset} to {directory}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    path = generate_report(args.output, scale=args.scale, seed=args.seed)
    print(f"report written to {path}")
    return 0


def _run_match_command(args: argparse.Namespace) -> int:
    from repro.errors import MatcherError

    try:
        return _run_match(
            args.preset, args.regime, args.matcher, args.scale,
            dtype=args.dtype, no_cache=args.no_cache,
            policy=_match_policy(args), profile_path=args.profile,
            index_config=_match_index_config(args),
            ledger_path=args.ledger, events_spec=args.events,
            shard_rows=args.shard_rows,
            resume=args.resume, durable=args.durable,
        )
    except MatcherError as err:
        # --on-error raise tripped: one-line summary, non-zero exit.
        print(f"match failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def _run_match(
    preset: str,
    regime: str,
    matcher_name: str,
    scale: float,
    dtype: str = "float64",
    no_cache: bool = False,
    policy: SupervisorPolicy | None = None,
    profile_path: Path | None = None,
    index_config: IndexConfig | None = None,
    ledger_path: Path | None = None,
    events_spec: str | None = None,
    shard_rows: int | None = None,
    resume: bool = False,
    durable: bool = False,
) -> int:
    from repro.core.registry import create_matcher
    from repro.datasets.zoo import load_preset
    from repro.eval.metrics import evaluate_pairs
    from repro.experiments.regimes import build_embeddings
    from repro.experiments.runner import _gold_local_pairs
    from repro.index import build_candidates
    from repro.obs import events as obs_events
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.ledger import RunLedger
    from repro.obs.profile import build_profile, write_profile
    from repro.runtime.supervisor import RunSupervisor, SupervisorPolicy
    from repro.similarity.engine import SimilarityEngine

    matcher = create_matcher(matcher_name)
    metric = getattr(matcher, "metric", "cosine")
    if not isinstance(metric, str):
        metric = "cosine"
    if resume:
        if ledger_path is None:
            print("--resume requires --ledger", file=sys.stderr)
            return 2
        try:
            prior = _match_resume_record(
                ledger_path, preset, regime, matcher_name, scale, metric
            )
        except ValueError as err:
            print(f"corrupt ledger: {err}", file=sys.stderr)
            print("run 'repro runs fsck' to diagnose", file=sys.stderr)
            return 1
        if prior is not None:
            print(
                f"{matcher_name} on {preset} ({regime} regime): skipped — "
                f"ledger already holds an '{prior['status']}' record "
                f"(run {prior['run_id'][:12]}, {prior['created_at']})"
            )
            return 0
    task = load_preset(preset, scale=scale)
    embeddings = build_embeddings(task, regime, preset_name=preset)
    queries = task.test_query_ids()
    candidates = task.candidate_target_ids()
    policy = policy or SupervisorPolicy()
    supervisor = RunSupervisor(policy)
    run_ledger = (
        RunLedger(ledger_path, durable=durable) if ledger_path is not None else None
    )
    with SimilarityEngine(
        dtype=dtype,
        cache=not no_cache,
        memory_budget=policy.memory_budget,
        chunk_rows=shard_rows,
    ) as engine:
        matcher.engine = engine
        recorder = registry = None
        with ExitStack() as stack:
            if events_spec is not None:
                sink = (
                    obs_events.HumanSink() if events_spec == "-"
                    else obs_events.JsonlSink(events_spec)
                )
                stack.enter_context(obs_events.emitting(sink))
            if profile_path is not None:
                recorder = stack.enter_context(obs_trace.recording())
                registry = stack.enter_context(obs_metrics.scoped())
            fit = getattr(matcher, "fit", None)
            if fit is not None and len(task.seed_index_pairs()):
                fit(embeddings.source, embeddings.target, task.seed_index_pairs())
            candidate_set = None
            if index_config is not None:
                candidate_set = build_candidates(
                    embeddings.source[queries],
                    embeddings.target[candidates],
                    index_config,
                    engine=engine,
                    metric=getattr(matcher, "metric", "cosine"),
                )
            run = supervisor.run(
                matcher,
                embeddings.source[queries],
                embeddings.target[candidates],
                name=matcher_name,
                context={"preset": preset, "regime": regime},
                candidates=candidate_set,
            )
        if not run.ok:
            # on_error="skip" (raise propagates before we get here).
            print(f"match failed: {run.describe()}", file=sys.stderr)
            if run_ledger is not None:
                run_ledger.append(_match_record(
                    preset=preset, regime=regime, matcher_name=matcher_name,
                    scale=scale, metric=metric, run=run, engine=engine,
                ))
            return 1
        result = run.result
        metrics = evaluate_pairs(
            result.pairs, _gold_local_pairs(task, queries, candidates)
        )
        executed = run.executed
        print(f"{matcher_name} on {preset} ({regime} regime)")
        if run.degraded:
            print(f"  DEGRADED: {run.describe()}")
        elif len(run.attempts) > 1:
            print(f"  retried: {len(run.attempts)} attempts")
        print(f"  precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
              f"F1={metrics.f1:.3f}" + (f" (by {executed})" if run.degraded else ""))
        print(f"  time={result.seconds:.3f}s peak={result.peak_bytes / 2**20:.1f}MiB")
        if candidate_set is not None:
            gold_pairs = _gold_local_pairs(task, queries, candidates)
            print(f"  index: kind={index_config.kind} k={index_config.k} "
                  f"nnz={candidate_set.nnz} "
                  f"recall={candidate_set.recall(gold_pairs):.3f}")
        print(f"  engine: dtype={engine.dtype.name} "
              f"cache={engine.cache_info()}")
        profile_written: Path | None = None
        if profile_path is not None:
            document = build_profile(
                recorder,
                registry,
                meta={
                    "preset": preset,
                    "regime": regime,
                    "matcher": matcher_name,
                    "executed": executed,
                    "scale": scale,
                    "dtype": engine.dtype.name,
                },
            )
            profile_written = write_profile(profile_path, document)
            print(f"  profile written to {profile_written}")
        if run_ledger is not None:
            run_ledger.append(_match_record(
                preset=preset, regime=regime, matcher_name=matcher_name,
                scale=scale, metric=metric, run=run, metrics=metrics,
                engine=engine, profile_path=profile_written,
            ))
    return 0


def _match_record(
    *,
    preset: str,
    regime: str,
    matcher_name: str,
    scale: float,
    metric: str,
    run,
    metrics=None,
    engine: SimilarityEngine | None = None,
    profile_path: Path | None = None,
) -> dict:
    """One ledger record for a ``repro match`` invocation."""
    from repro.obs.ledger import build_record, fingerprint_payload

    status = "failed" if not run.ok else ("degraded" if run.degraded else "ok")
    error = None
    if run.error is not None:
        error = {"type": type(run.error).__name__, "message": str(run.error)}
    result = run.result
    return build_record(
        fingerprint=fingerprint_payload({
            "preset": preset, "regime": regime, "matcher": matcher_name,
            "scale": scale, "metric": metric,
        }),
        preset=preset,
        regime=regime,
        task=preset,
        matcher=matcher_name,
        # `repro match` builds embeddings at the regime default seed.
        seed=0,
        scale=scale,
        metric=metric,
        status=status,
        metrics=None if metrics is None else {
            "precision": metrics.precision,
            "recall": metrics.recall,
            "f1": metrics.f1,
        },
        seconds=result.seconds if result is not None else 0.0,
        peak_bytes=result.peak_bytes if result is not None else 0,
        attempts=len(run.attempts),
        fallback=run.executed if run.degraded else None,
        chain=list(run.chain),
        error=error,
        engine=engine.cache_info() if engine is not None else None,
        profile_path=str(profile_path) if profile_path is not None else None,
        resources=engine.resource_info() if engine is not None else None,
    )


def _match_resume_record(
    ledger_path: Path,
    preset: str,
    regime: str,
    matcher_name: str,
    scale: float,
    metric: str,
) -> dict | None:
    """The prior ledger record that lets ``--resume`` skip this run, or None.

    Same keying as the resumable sweep: the cell's config fingerprint
    (here ``repro match``'s identity payload) plus the matcher name;
    the latest record wins and the default :class:`ResumePolicy`
    decides (skip ``ok``, re-run ``failed``/``degraded``).  The ledger
    is read tolerantly — resuming after a crash is the whole point.
    """
    from repro.experiments.resume import ResumePolicy
    from repro.obs.ledger import RunLedger, fingerprint_payload

    ledger = RunLedger(ledger_path)
    if not ledger.path.exists():
        return None
    fingerprint = fingerprint_payload({
        "preset": preset, "regime": regime, "matcher": matcher_name,
        "scale": scale, "metric": metric,
    })
    policy = ResumePolicy()
    latest: dict | None = None
    for record in ledger.records(strict=False):
        if record["fingerprint"] != fingerprint or record["matcher"] != matcher_name:
            continue
        latest = record if policy.satisfied_by(record["status"]) else None
    return latest


def _run_index(args: argparse.Namespace) -> int:
    if args.index_command == "build":
        return _run_index_build(args)
    return _run_index_stats(args.path)


def _run_index_build(args: argparse.Namespace) -> int:
    """Train an IVF index on a preset's candidate-target embeddings."""
    from repro.datasets.zoo import load_preset
    from repro.experiments.regimes import build_embeddings
    from repro.index import IVFIndex
    from repro.obs import events as obs_events

    task = load_preset(args.preset, scale=args.scale)
    embeddings = build_embeddings(task, args.regime, preset_name=args.preset)
    targets = embeddings.target[task.candidate_target_ids()]
    index = IVFIndex(
        n_clusters=min(args.clusters, targets.shape[0]), metric=args.metric
    )
    with ExitStack() as stack:
        events_spec = getattr(args, "events", None)
        if events_spec is not None:
            sink = (
                obs_events.HumanSink() if events_spec == "-"
                else obs_events.JsonlSink(events_spec)
            )
            stack.enter_context(obs_events.emitting(sink))
        index.train(targets).add(targets)
    written = index.save(args.output)
    print(f"index written to {written}")
    _print_index_stats(index)
    return 0


def _run_index_stats(path: Path) -> int:
    from repro.index import IVFIndex

    try:
        index = IVFIndex.load(path)
    except (OSError, ValueError, KeyError) as err:
        print(f"cannot load index {path}: {err}", file=sys.stderr)
        return 1
    _print_index_stats(index)
    return 0


def _print_index_stats(index: IVFIndex) -> None:
    for key, value in index.stats().items():
        rendered = f"{value:.3f}" if isinstance(value, float) else value
        print(f"  {key}={rendered}")


def _run_serve(args: argparse.Namespace) -> int:
    """Boot the online alignment daemon and block until SIGTERM/SIGINT."""
    import signal
    import threading

    from repro.obs import events as obs_events
    from repro.obs.ledger import RunLedger
    from repro.serve.http import AlignmentServer
    from repro.serve.state import ServingState
    from repro.similarity.engine import SimilarityEngine

    with ExitStack() as stack:
        if args.events is not None:
            sink = (
                obs_events.HumanSink() if args.events == "-"
                else obs_events.JsonlSink(args.events)
            )
            stack.enter_context(obs_events.emitting(sink))
        try:
            state = ServingState.load(
                args.store, args.index, nprobe=args.nprobe, max_delta=args.max_delta
            )
        except (OSError, ValueError) as err:
            print(f"cannot load serving state: {err}", file=sys.stderr)
            return 1
        ledger = RunLedger(args.ledger) if args.ledger is not None else None
        server = AlignmentServer(
            (args.host, args.port),
            state,
            engine=SimilarityEngine(),
            ledger=ledger,
            max_batch=args.max_batch,
            slow_threshold=args.slow_ms / 1000.0,
            slo_objective=args.slo_objective,
            slo_latency_threshold=(
                args.slo_latency_ms / 1000.0
                if args.slo_latency_ms is not None else None
            ),
            access_log=args.access_log,
        )
        stack.callback(server.close)
        host, port = server.server_address[:2]

        def _shutdown(signum: int, frame: object) -> None:
            # shutdown() must run off the serve_forever thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
        print(f"serving on http://{host}:{port}", flush=True)
        obs_events.emit("serve.start", host=host, port=port)
        server.serve_forever()
        obs_events.emit("serve.stop")
        print("serve: shut down cleanly", flush=True)
    return 0


def _run_soak(args: argparse.Namespace) -> int:
    """Replay a seeded traffic mix and print/persist the soak report."""
    import dataclasses

    from repro.loadgen import ServeDaemon, SoakRunner, WorkloadSpec
    from repro.loadgen.report import server_latency_summary
    from repro.obs import events as obs_events
    from repro.obs.histogram import DEFAULT_LATENCY_BOUNDS, bucket_width_at

    if args.url is None and (args.store is None or args.index is None):
        print("soak needs either --url or both --store and --index",
              file=sys.stderr)
        return 2
    try:
        spec = (
            WorkloadSpec.load(args.spec) if args.spec is not None
            else WorkloadSpec()
        )
        overrides = {
            name: value
            for name, value in (
                ("duration_seconds", args.duration),
                ("qps", args.qps),
                ("seed", args.seed),
            )
            if value is not None
        }
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
    except (OSError, ValueError, TypeError) as err:
        print(f"bad workload spec: {err}", file=sys.stderr)
        return 2

    with ExitStack() as stack:
        if args.events is not None:
            sink = (
                obs_events.HumanSink() if args.events == "-"
                else obs_events.JsonlSink(args.events)
            )
            stack.enter_context(obs_events.emitting(sink))
        if args.url is not None:
            url = args.url
        else:
            try:
                daemon = stack.enter_context(
                    ServeDaemon(args.store, args.index)
                )
            except (OSError, RuntimeError, ValueError) as err:
                print(f"cannot boot daemon for soak: {err}", file=sys.stderr)
                return 1
            url = daemon.url
        runner = SoakRunner(url, workers=args.workers)
        try:
            report = runner.run(spec)
        except (OSError, ValueError) as err:
            print(f"soak run failed: {err}", file=sys.stderr)
            return 1
        # Server-side accounting: scrape the daemon's /metrics while it
        # is still up, so the report carries both sides of the story.
        if not args.no_scrape:
            try:
                metrics_text = runner.scrape_metrics()
            except (OSError, ValueError) as err:
                print(f"soak: /metrics scrape failed: {err}", file=sys.stderr)
            else:
                server: dict[str, object] = {}
                latency = server_latency_summary(metrics_text)
                if latency is not None:
                    server["latency"] = latency
                try:
                    server["slo"] = runner.probe().get("slo")
                except (OSError, ValueError):
                    pass
                if server:
                    report = dataclasses.replace(report, server=server)
                if args.metrics_out is not None:
                    args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
                    args.metrics_out.write_text(metrics_text, encoding="utf-8")
                    print(f"metrics snapshot written to {args.metrics_out}")

    print(f"soak: seed={spec.seed} stream={report.stream_fingerprint}")
    for line in report.summary_lines():
        print(line)
    if args.report is not None:
        report.save(args.report)
        print(f"report written to {args.report}")
    if args.slo_p99_ms is not None:
        p99_ms = report.latency.get("p99_seconds", 0.0) * 1e3
        breaches = []
        if p99_ms > args.slo_p99_ms:
            breaches.append(
                f"p99 {p99_ms:.2f}ms exceeds SLO {args.slo_p99_ms:.2f}ms"
            )
        if report.errors:
            breaches.append(f"{report.errors} requests errored")
        if report.timeouts:
            breaches.append(f"{report.timeouts} requests timed out")
        server_latency = (report.server or {}).get("latency") or {}
        if server_latency:
            # Cross-check: the daemon's own histogram must agree with
            # the client's stopwatch.  The client p99 includes connect
            # and scheduling overhead the server never sees, so the
            # honest tolerance is one histogram bucket width at the
            # observed tail (DESIGN.md §14) — a larger gap means one
            # side is mismeasuring.
            server_p99_ms = server_latency.get("p99_seconds", 0.0) * 1e3
            if server_p99_ms > args.slo_p99_ms:
                breaches.append(
                    f"server-side p99 {server_p99_ms:.2f}ms exceeds SLO "
                    f"{args.slo_p99_ms:.2f}ms"
                )
            width_ms = bucket_width_at(
                DEFAULT_LATENCY_BOUNDS, max(p99_ms, server_p99_ms) / 1e3
            ) * 1e3
            if abs(p99_ms - server_p99_ms) > width_ms:
                breaches.append(
                    f"client p99 {p99_ms:.2f}ms and server p99 "
                    f"{server_p99_ms:.2f}ms disagree by more than one "
                    f"bucket width ({width_ms:.2f}ms)"
                )
        if breaches:
            print("soak SLO FAILED: " + "; ".join(breaches), file=sys.stderr)
            return 1
        print("soak SLO passed")
    return 0


def _run_obs_scrape(args: argparse.Namespace) -> int:
    """Snapshot a daemon's /metrics exposition to a file or stdout."""
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as err:
        print(f"cannot scrape {url}: {err}", file=sys.stderr)
        return 1
    if args.output is None:
        print(text, end="")
    else:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text, encoding="utf-8")
        print(f"metrics snapshot written to {args.output}")
    return 0


def _match_index_config(args: argparse.Namespace) -> IndexConfig | None:
    """Candidate-generation config from the ``match`` subcommand's flags."""
    from repro.index import IndexConfig

    if args.index is None:
        return None
    return IndexConfig(
        kind=args.index, k=args.k, nprobe=args.nprobe, n_clusters=args.clusters
    )


def _match_policy(args: argparse.Namespace) -> SupervisorPolicy:
    """Supervisor policy from the ``match`` subcommand's flags."""
    from repro.runtime.supervisor import SupervisorPolicy

    budget = args.memory_budget
    return SupervisorPolicy(
        timeout=args.timeout,
        memory_budget=int(budget * 2**20) if budget is not None else None,
        retries=args.retries,
        on_error=args.on_error,
        sparse_k=args.sparse_k,
    )


def _run_explain(args: argparse.Namespace) -> int:
    """Render one query's decision report (the paper's Appendix D view)."""
    from repro.datasets.zoo import load_preset
    from repro.eval.explain import explain_decision, format_report
    from repro.experiments.regimes import build_embeddings
    from repro.similarity.engine import SimilarityEngine

    task = load_preset(args.preset, scale=args.scale)
    embeddings = build_embeddings(task, args.regime, preset_name=args.preset)
    queries = task.test_query_ids()
    candidates = task.candidate_target_ids()
    if not 0 <= args.query < len(queries):
        print(
            f"--query must be in [0, {len(queries)}) for {args.preset} "
            f"at scale {args.scale}",
            file=sys.stderr,
        )
        return 1
    with SimilarityEngine() as engine:
        scores = engine.similarity(
            embeddings.source[queries], embeddings.target[candidates]
        )
    try:
        report = explain_decision(
            scores, args.query, top_k=args.top_k, csls_k=args.csls_k
        )
    except ValueError as err:
        print(f"cannot explain query {args.query}: {err}", file=sys.stderr)
        return 1
    candidate_names = {
        pos: task.target.entities[int(entity)]
        for pos, entity in enumerate(candidates)
    }
    query_name = task.source.entities[int(queries[args.query])]
    print(format_report(
        report, query_name=query_name, candidate_names=candidate_names
    ))
    return 0


def _read_ledger(path: Path) -> list[dict] | None:
    """Load and validate a ledger file; report problems on stderr.

    Tolerant of a torn tail (an interrupted final append): the complete
    records are used and the tear is reported as a warning with the
    repair command — so a crash mid-sweep never takes ``runs
    list/show/diff/drift`` down with it.  Mid-file corruption still
    fails hard.
    """
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(path)
    if not ledger.path.exists():
        print(f"no ledger at {path}", file=sys.stderr)
        return None
    try:
        scan = ledger.scan()
    except ValueError as err:
        print(f"corrupt ledger: {err}", file=sys.stderr)
        return None
    if scan.torn is not None:
        print(
            f"warning: {path}:{scan.torn.lineno}: {scan.torn.reason}; "
            f"using {len(scan.records)} complete record"
            f"{'s' if len(scan.records) != 1 else ''} "
            f"(run 'repro runs fsck --repair' to clean up)",
            file=sys.stderr,
        )
    return scan.records


def _record_line(record: dict) -> str:
    """One ``runs list`` line: identity, status, accuracy, cost."""
    metrics = record["metrics"] or {}
    f1 = metrics.get("f1")
    f1_text = f"f1={f1:.3f}" if f1 is not None else "f1=  -  "
    cell = f"{record['preset']}/{record['regime']}"
    return (
        f"{record['run_id'][:12]}  {record['created_at']}  "
        f"{record['status']:<8s} {cell:<24s} {record['matcher']:<8s} "
        f"{f1_text}  {record['seconds']:7.3f}s"
    )


def _runs_list(args: argparse.Namespace) -> int:
    records = _read_ledger(args.ledger)
    if records is None:
        return 1
    for record in records:
        if args.status is not None and record["status"] != args.status:
            continue
        print(_record_line(record))
    return 0


def _runs_show(args: argparse.Namespace) -> int:
    records = _read_ledger(args.ledger)
    if records is None:
        return 1
    matches = [r for r in records if r["run_id"].startswith(args.run_id)]
    if not matches:
        print(f"no record with run id {args.run_id!r}", file=sys.stderr)
        return 1
    if len(matches) > 1 and any(r["run_id"] != matches[0]["run_id"] for r in matches):
        print(f"run id prefix {args.run_id!r} is ambiguous "
              f"({len(matches)} records)", file=sys.stderr)
        return 1
    print(json.dumps(matches[-1], indent=2, sort_keys=False))
    return 0


def _cell_f1(record: dict) -> float | None:
    return (record["metrics"] or {}).get("f1")


def _runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger

    old_records = _read_ledger(args.old)
    new_records = _read_ledger(args.new)
    if old_records is None or new_records is None:
        return 1
    old = RunLedger(args.old).latest_cells(strict=False)
    new = RunLedger(args.new).latest_cells(strict=False)
    for key in sorted(set(old) | set(new)):
        label = "/".join(key)
        if key not in old:
            f1 = _cell_f1(new[key])
            value = f"{f1:.3f}" if f1 is not None else new[key]["status"]
            print(f"+ {label}: only in {args.new} (f1={value})")
        elif key not in new:
            print(f"- {label}: only in {args.old}")
        else:
            f1_old, f1_new = _cell_f1(old[key]), _cell_f1(new[key])
            if f1_old is None or f1_new is None:
                print(f"! {label}: {old[key]['status']} -> {new[key]['status']}")
            else:
                delta = f1_new - f1_old
                marker = "=" if abs(delta) < 1e-9 else "!"
                print(f"{marker} {label}: f1 {f1_old:.3f} -> {f1_new:.3f} "
                      f"({delta:+.3f})")
    return 0


def _runs_record(args: argparse.Namespace) -> int:
    """Run the canonical seeded sweep, appending one record per cell."""
    from repro.experiments.runner import run_experiment
    from repro.obs.drift import reference_configs
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    for config in reference_configs():
        result = run_experiment(config, ledger=ledger)
        print(
            f"recorded {config.preset} ({config.input_regime} regime, "
            f"seed={config.seed}, scale={config.scale}): "
            f"{len(result.runs)} ok, {len(result.failures)} failed"
        )
    print(f"ledger at {args.ledger}")
    return 0


def _runs_fsck(args: argparse.Namespace) -> int:
    """Check a ledger for torn/corrupt lines; optionally repair the tail."""
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    if not ledger.path.exists():
        print(f"no ledger at {args.ledger}", file=sys.stderr)
        return 1
    report = ledger.fsck(repair=args.repair)
    if report.error is not None:
        print(f"UNREPAIRABLE: {report.error}", file=sys.stderr)
        print(
            "mid-file corruption cannot be truncated away without losing "
            "good records; restore the ledger from backup",
            file=sys.stderr,
        )
        return 2
    if report.torn is None:
        print(f"{args.ledger}: clean ({report.n_records} records)")
        return 0
    if report.repaired:
        print(
            f"{args.ledger}: repaired — truncated {report.torn.nbytes} torn "
            f"bytes at line {report.torn.lineno} "
            f"(preserved in {report.backup}); {report.n_records} records remain"
        )
        return 0
    print(
        f"{args.ledger}:{report.torn.lineno}: {report.torn.reason}; "
        f"{report.n_records} complete records; re-run with --repair to "
        f"truncate the tail into {args.ledger}.bak",
        file=sys.stderr,
    )
    return 1


def _store_verify(args: argparse.Namespace) -> int:
    """Recompute an embedding store's checksum against its header."""
    from repro.errors import DataIntegrityError
    from repro.storage import EmbeddingStore

    try:
        with EmbeddingStore.open(args.path) as store:
            if store.seal_state == "unsealed":
                print(
                    f"UNSEALED: {args.path} was created but never sealed "
                    f"(interrupted mid-fill, or missing update_checksum()); "
                    f"contents cannot be trusted — rebuild the store",
                    file=sys.stderr,
                )
                return 1
            report = store.verify()
    except OSError as err:
        print(f"cannot open store {args.path}: {err}", file=sys.stderr)
        return 1
    except DataIntegrityError as err:
        print(f"CORRUPT: {err}", file=sys.stderr)
        return 1
    if not report["verified"]:
        print(
            f"{args.path}: no checksum recorded (written before the "
            f"durability layer); payload hashes to "
            f"{report['algorithm']}:{report['computed']}"
        )
        return 0
    print(
        f"{args.path}: ok — {report['nbytes']} payload bytes match "
        f"{report['algorithm']}:{report['computed']}"
    )
    return 0


def _runs_drift(args: argparse.Namespace) -> int:
    from repro.obs.drift import check_drift, load_reference

    try:
        reference = load_reference(args.reference)
    except (OSError, ValueError) as err:
        print(f"cannot load reference {args.reference}: {err}", file=sys.stderr)
        return 1
    records = _read_ledger(args.ledger)
    if records is None:
        return 1
    report = check_drift(records, reference)
    print(report.describe())
    return 0 if report.ok else 1


def _run_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import load_profile, summarize

    try:
        print(summarize(load_profile(args.path)))
    except (OSError, ValueError) as err:
        print(f"cannot summarize {args.path}: {err}", file=sys.stderr)
        return 1
    return 0


def _run_runs(args: argparse.Namespace) -> int:
    handlers = {
        "list": _runs_list,
        "show": _runs_show,
        "diff": _runs_diff,
        "record": _runs_record,
        "drift": _runs_drift,
        "fsck": _runs_fsck,
    }
    return handlers[args.runs_command](args)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": _run_tables,
        "figures": _run_figures,
        "datasets": _run_datasets,
        "report": _run_report,
        "match": _run_match_command,
        "index": _run_index,
        "profile": _run_profile,
        "explain": _run_explain,
        "serve": _run_serve,
        "soak": _run_soak,
        "runs": _run_runs,
        "store": _store_verify,
        "obs": _run_obs_scrape,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
