"""Append-only, schema-versioned JSONL run ledger.

The paper's campaign is comparative — seven matchers judged by who wins
and by how much — and comparisons are only trustworthy when every number
survives its process.  A :class:`RunLedger` is the durable record: one
JSON line per matcher run, carrying the experiment coordinates (preset,
regime, matcher, seed, scale, metric), a config fingerprint (the
ledger's analogue of the similarity engine's content-hash cache key),
full provenance (git SHA + dirty flag, python/numpy/scipy versions),
accuracy (precision/recall/F1 plus the space-level Hits@k/MRR
diagnostics), cost (wall/CPU seconds, peak declared bytes), the engine's
cache counters, and — for supervised runs — the retry/degradation chain
and typed error.  Failed runs are first-class records (status
``"failed"``/``"degraded"``), so ``repro runs list`` surfaces what broke
alongside what worked.

Appending is *opt-in* (``run_experiment(..., ledger=...)``,
``AlignmentPipeline(..., ledger=...)``, ``repro match --ledger PATH``)
and append-only: records are never rewritten, so a ledger file is a
time-ordered history that ``repro runs list/show/diff/drift`` and the
drift gate (:mod:`repro.obs.drift`) consume directly.

Schema policy mirrors the profile document's (DESIGN.md §7): ``version``
bumps only when a required key is removed or retyped; additive keys do
not bump it.  :func:`validate_record` is the structural contract every
reader and writer runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.obs.provenance import provenance
from repro.storage.durable import fsync_dir, fsync_file
from repro.utils.memory import peak_rss_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

#: Document identifier; readers reject anything else.
LEDGER_SCHEMA = "repro.run_ledger"
#: Bumped on breaking changes only (removed/retyped required keys).
#: v2 adds the required ``resources`` block (measured peak RSS plus the
#: backend/worker/shard configuration).  Records written by builds with a
#: process pool carry ``"backend": "process"`` and must keep reading.
LEDGER_VERSION = 2
#: Versions this build reads.  v1 records (no ``resources``) stay
#: readable — the same back-compat posture as the profiles v1 -> v2 bump.
_READABLE_VERSIONS = (1, LEDGER_VERSION)

#: Every record's required keys and their JSON types.
_RECORD_KEYS: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "version": int,
    "run_id": str,
    "created_at": str,
    "fingerprint": str,
    "preset": str,
    "regime": str,
    "task": str,
    "matcher": str,
    "seed": int,
    "scale": (int, float),
    "metric": str,
    "status": str,
    "metrics": (dict, type(None)),
    "ranking": dict,
    "top5_std": (int, float),
    "seconds": (int, float),
    "cpu_seconds": (int, float, type(None)),
    "peak_bytes": int,
    "attempts": int,
    "fallback": (str, type(None)),
    "chain": list,
    "error": (dict, type(None)),
    "engine": (dict, type(None)),
    "profile_path": (str, type(None)),
    "provenance": dict,
    "resources": dict,
}

#: Keys required only from the version that introduced them, so older
#: records keep validating (the back-compat half of the v1 -> v2 bump).
_KEYS_SINCE_VERSION: dict[str, int] = {"resources": 2}

#: A run either completed cleanly, completed via a degradation-ladder
#: fallback (result + recorded breach), or produced nothing.
RECORD_STATUSES = ("ok", "degraded", "failed")


def config_fingerprint(config: "ExperimentConfig") -> str:
    """Content digest of an experiment configuration.

    Same construction as the engine's embedding fingerprint (blake2b over
    a canonical byte rendering), applied to the config's identity fields
    — two runs share a fingerprint iff they describe the same cell
    family, which is what ``repro runs diff`` keys on.
    """
    return fingerprint_payload(
        {
            "preset": config.preset,
            "input_regime": config.input_regime,
            "matchers": list(config.matchers),
            "matcher_options": {
                name: dict(options)
                for name, options in sorted(config.matcher_options.items())
            },
            "scale": config.scale,
            "seed": config.seed,
            "metric": config.metric,
        }
    )


def fingerprint_payload(payload: Mapping[str, Any]) -> str:
    """blake2b digest of a canonical JSON rendering of ``payload``.

    The generic form behind :func:`config_fingerprint`; the pipeline
    uses it directly (its identity is task + matcher + metric, not an
    :class:`ExperimentConfig`).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(payload, sort_keys=True, default=repr).encode())
    return digest.hexdigest()


def new_run_id() -> str:
    """Unique id for one appended record."""
    return uuid.uuid4().hex


def default_resources() -> dict[str, Any]:
    """The v2 ``resources`` block with serial defaults and measured RSS.

    ``peak_rss_bytes`` comes from :func:`repro.utils.memory.
    peak_rss_bytes` — the same module the supervisor's analytic budgets
    live in, so the ledger's measured number and the budget's declared
    number share one home and one unit.  Callers with an engine merge
    its ``resource_info()`` over these defaults.
    """
    return {
        "backend": "thread",
        "workers": 1,
        "shards": 0,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def utc_now() -> str:
    """ISO-8601 UTC timestamp for ``created_at``."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def build_record(
    *,
    fingerprint: str,
    preset: str,
    regime: str,
    task: str,
    matcher: str,
    seed: int,
    scale: float,
    metric: str,
    status: str,
    metrics: Mapping[str, float] | None,
    ranking: Mapping[str, float] | None = None,
    top5_std: float = 0.0,
    seconds: float = 0.0,
    cpu_seconds: float | None = None,
    peak_bytes: int = 0,
    attempts: int = 1,
    fallback: str | None = None,
    chain: list[str] | None = None,
    error: Mapping[str, str] | None = None,
    engine: Mapping[str, Any] | None = None,
    profile_path: str | None = None,
    resources: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble (and validate) one ledger record.

    ``metrics`` is ``None`` exactly when the run produced nothing
    (status ``"failed"``); ``error`` is ``{"type": ..., "message": ...}``
    for failed and degraded runs.  ``resources`` (the engine's shard
    count) is merged over :func:`default_resources`, so the backend,
    worker count and measured peak RSS are always present.
    """
    record = {
        "schema": LEDGER_SCHEMA,
        "version": LEDGER_VERSION,
        "run_id": new_run_id(),
        "created_at": utc_now(),
        "fingerprint": fingerprint,
        "preset": preset,
        "regime": regime,
        "task": task,
        "matcher": matcher,
        "seed": int(seed),
        "scale": float(scale),
        "metric": metric,
        "status": status,
        "metrics": dict(metrics) if metrics is not None else None,
        "ranking": dict(ranking or {}),
        "top5_std": float(top5_std),
        "seconds": float(seconds),
        "cpu_seconds": float(cpu_seconds) if cpu_seconds is not None else None,
        "peak_bytes": int(peak_bytes),
        "attempts": int(attempts),
        "fallback": fallback,
        "chain": list(chain or []),
        "error": dict(error) if error is not None else None,
        "engine": dict(engine) if engine is not None else None,
        "profile_path": profile_path,
        "provenance": provenance(),
        "resources": {**default_resources(), **dict(resources or {})},
    }
    return validate_record(record)


def validate_record(record: Any) -> dict[str, Any]:
    """Check ``record`` against the ledger schema; return it.

    Raises ``ValueError`` naming the first structural violation — run by
    both the writer (:meth:`RunLedger.append`) and every reader, so a
    corrupt line can never silently enter a comparison.
    """
    if not isinstance(record, dict):
        raise ValueError(f"ledger record must be a JSON object, got {type(record).__name__}")
    if record.get("schema") != LEDGER_SCHEMA:
        raise ValueError(
            f"unknown ledger schema {record.get('schema')!r}; expected {LEDGER_SCHEMA!r}"
        )
    if record.get("version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported ledger version {record.get('version')!r}; "
            f"this library reads versions {_READABLE_VERSIONS}"
        )
    version = record["version"]
    for key, kind in _RECORD_KEYS.items():
        if version < _KEYS_SINCE_VERSION.get(key, 0):
            continue  # key postdates this record's schema version
        if key not in record:
            raise ValueError(f"ledger record is missing required key {key!r}")
        if not isinstance(record[key], kind):
            raise ValueError(
                f"ledger record {key!r}: expected {kind}, got {type(record[key]).__name__}"
            )
    if record["status"] not in RECORD_STATUSES:
        raise ValueError(
            f"ledger record status must be one of {RECORD_STATUSES}, "
            f"got {record['status']!r}"
        )
    if record["status"] == "failed" and record["metrics"] is not None:
        raise ValueError("a failed record carries no metrics (got some)")
    if record["status"] != "failed" and record["metrics"] is None:
        raise ValueError(f"a {record['status']!r} record must carry metrics")
    if record["status"] != "ok" and record["error"] is None:
        raise ValueError(f"a {record['status']!r} record must carry its error")
    if record["error"] is not None and not isinstance(record["error"].get("type"), str):
        raise ValueError("ledger record error must carry a string 'type'")
    return record


def cell_key(record: Mapping[str, Any]) -> tuple[str, str, str]:
    """The (preset, regime, matcher) cell a record belongs to."""
    return (record["preset"], record["regime"], record["matcher"])


#: Characters a torn or padded tail may be made of without being JSON.
_PADDING_BYTES = b" \t\r\x00"


def _joined_records(line: bytes) -> bool:
    """Whether ``line`` is a complete JSON value followed by more content.

    A torn write truncates, so it never leaves that shape; a lost record
    separator (a flipped newline joining two records) does.  Content
    made only of padding after the value stays a torn or padded tail.
    """
    text = line.decode("utf-8", errors="replace").lstrip()
    try:
        _, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError:
        return False
    return text[end:].strip(_PADDING_BYTES.decode()) != ""


@dataclass(frozen=True)
class TornTail:
    """A corrupt *final* line: everything before it parsed cleanly.

    ``byte_offset`` is where the torn tail starts — truncating the file
    there (what ``fsck --repair`` does, after copying the tail to a
    ``.bak`` sidecar) restores a fully valid ledger.
    """

    lineno: int
    byte_offset: int
    nbytes: int
    reason: str


@dataclass(frozen=True)
class LedgerScan:
    """Result of one tolerant pass over a ledger file."""

    records: list[dict[str, Any]]
    torn: TornTail | None


@dataclass(frozen=True)
class FsckReport:
    """Outcome of :meth:`RunLedger.fsck`.

    ``error`` is set for mid-file corruption (unrepairable without
    losing good records — fsck refuses); ``torn`` describes a
    recoverable tail; ``repaired``/``backup`` record what ``repair=True``
    did.
    """

    path: Path
    n_records: int
    torn: TornTail | None = None
    repaired: bool = False
    backup: Path | None = None
    error: str | None = None

    @property
    def clean(self) -> bool:
        return self.error is None and (self.torn is None or self.repaired)


class RunLedger:
    """One append-only JSONL ledger file with WAL-style durability.

    Construction never touches the filesystem; the file is created on
    first :meth:`append`.  ``durable=True`` (per-ledger default, or
    per-append override) fsyncs every append, so an acknowledged record
    survives a crash — the torn-write window shrinks to the one line in
    flight, which :meth:`records` in tolerant mode and :meth:`fsck`
    recover from.  Reading validates every line; a corrupt line in the
    *middle* of the file (records after it parsed fine, so this was
    never an interrupted append) always raises with ``path:lineno``.
    """

    def __init__(self, path: Path | str, durable: bool = False) -> None:
        self.path = Path(path)
        self.durable = durable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r})"

    def append(
        self, record: Mapping[str, Any], durable: bool | None = None
    ) -> dict[str, Any]:
        """Validate ``record`` and append it as one JSON line.

        With ``durable`` (argument, falling back to the ledger's
        default) the line is fsynced before returning — and on first
        creation the parent directory too, so the file's existence
        itself survives a power cut.

        A tail without its trailing newline — exactly what a crash
        mid-append leaves — is healed first, never appended onto: a
        complete final record gets its newline back, a torn fragment is
        moved to a ``.bak`` sidecar (the fsck repair), and mid-file
        corruption raises rather than burying the damage deeper.
        """
        durable = self.durable if durable is None else durable
        record = validate_record(dict(record))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        if not created:
            self._heal_tail(durable)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=False) + "\n")
            if durable:
                fsync_file(handle)
        if durable and created:
            fsync_dir(self.path.parent)
        return record

    def _heal_tail(self, durable: bool) -> None:
        """Make the file end in a newline before an append lands.

        Appending onto a newline-less tail would concatenate the new
        record into the old bytes — silently losing it, and turning the
        merged line into mid-file corruption once a further record
        follows.  Three cases: a complete final record that merely lost
        its newline is finished with one; a torn fragment goes through
        the same repair as ``fsck --repair`` (tail to a ``.bak``
        sidecar, file truncated at the tear); mid-file corruption
        propagates from :meth:`scan` untouched.
        """
        with self.path.open("rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
        scan = self.scan()
        if scan.torn is not None:
            self._repair_torn_tail(scan.torn)
            return
        with self.path.open("r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")
            if durable:
                os.fsync(handle.fileno())

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records())

    def scan(self) -> LedgerScan:
        """Tolerant pass: every complete record, plus the torn tail if any.

        Only the *final* line may be bad (an interrupted append tears at
        most the last line); a bad line with valid records after it is
        mid-file corruption and raises ``ValueError`` with
        ``path:lineno`` — no tolerance mode hides it.  So does a line
        holding a complete value followed by more content, which a lost
        record separator leaves and a torn write cannot.  A final
        segment without its trailing newline that still parses and
        validates is accepted as complete.
        """
        if not self.path.exists():
            return LedgerScan([], None)
        raw = self.path.read_bytes()
        records: list[dict[str, Any]] = []
        # Candidate torn tail: (lineno, offset, nbytes, reason).  Promoted
        # to mid-file corruption if any content line follows it.
        candidate: tuple[int, int, int, str] | None = None
        # Padding-only lines are skipped mid-file (legacy blank-line
        # tolerance) but a padded *tail* is reported as torn.
        padding: tuple[int, int, int] | None = None
        lineno = 0
        pos = 0
        total = len(raw)
        while pos < total:
            end = raw.find(b"\n", pos)
            nxt = total if end == -1 else end + 1
            line = raw[pos : total if end == -1 else end]
            lineno += 1
            if line.strip(_PADDING_BYTES) == b"":
                # Bare blank separators (legacy tolerance) pass silently;
                # whitespace/NUL padding is remembered in case it is the
                # tail a torn write left behind.
                if line != b"":
                    padding = (lineno, pos, nxt - pos)
                pos = nxt
                continue
            if candidate is not None:
                bad_lineno, _, _, reason = candidate
                raise ValueError(
                    f"{self.path}:{bad_lineno}: {reason} (followed by further "
                    f"content — mid-file corruption, not a torn tail)"
                )
            padding = None
            try:
                records.append(validate_record(json.loads(line.decode("utf-8"))))
            except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as err:
                if _joined_records(line):
                    raise ValueError(
                        f"{self.path}:{lineno}: a complete record followed by "
                        f"more content on one line (a lost record separator — "
                        f"mid-file corruption, not a torn tail)"
                    ) from err
                candidate = (lineno, pos, nxt - pos, str(err))
            pos = nxt
        torn: TornTail | None = None
        if candidate is not None:
            bad_lineno, offset, nbytes, reason = candidate
            torn = TornTail(bad_lineno, offset, nbytes, f"torn final line: {reason}")
        elif padding is not None:
            pad_lineno, offset, nbytes = padding
            torn = TornTail(
                pad_lineno, offset, nbytes, "blank-padded final line (torn write)"
            )
        return LedgerScan(records, torn)

    def records(self, strict: bool = True) -> list[dict[str, Any]]:
        """Every complete record in append order (validated).

        ``strict=True`` (default) raises on a torn tail, reporting the
        line, how many complete records are recoverable, and the repair
        command; ``strict=False`` returns the complete records and
        leaves the torn tail for :meth:`fsck`.  Mid-file corruption
        raises in both modes.
        """
        scan = self.scan()
        if strict and scan.torn is not None:
            raise ValueError(
                f"{self.path}:{scan.torn.lineno}: {scan.torn.reason}; "
                f"{len(scan.records)} complete record"
                f"{'s' if len(scan.records) != 1 else ''} recoverable; "
                f"run 'repro runs fsck --repair' to truncate the torn tail"
            )
        return scan.records

    def latest_cells(
        self, strict: bool = True
    ) -> dict[tuple[str, str, str], dict[str, Any]]:
        """Most recent record per (preset, regime, matcher) cell.

        Append order is time order, so "latest" is simply the last line
        for the cell — the view the drift gate compares against the
        reference bands.  ``strict=False`` tolerates a torn tail (the
        resume path reads crashed ledgers through this).
        """
        latest: dict[tuple[str, str, str], dict[str, Any]] = {}
        for record in self.records(strict=strict):
            latest[cell_key(record)] = record
        return latest

    def fsck(self, repair: bool = False) -> FsckReport:
        """Check (and optionally repair) the ledger file.

        A clean or missing file reports ``n_records`` and nothing else.
        A torn tail is reported; with ``repair=True`` the tail bytes are
        copied to a ``<ledger>.bak`` sidecar (``.bak.1``, ``.bak.2``,
        ... when earlier repairs already claimed the name — a repair
        never discards what a previous one preserved), the file is
        truncated at the tear, and both file and directory are fsynced.
        Mid-file corruption is *never* repaired (truncating there would
        discard good records); it comes back as ``error``.
        """
        try:
            scan = self.scan()
        except ValueError as err:
            return FsckReport(self.path, 0, error=str(err))
        if scan.torn is None:
            return FsckReport(self.path, len(scan.records))
        if not repair:
            return FsckReport(self.path, len(scan.records), torn=scan.torn)
        backup = self._repair_torn_tail(scan.torn)
        return FsckReport(
            self.path,
            len(scan.records),
            torn=scan.torn,
            repaired=True,
            backup=backup,
        )

    def _backup_path(self) -> Path:
        """First unclaimed ``.bak`` sidecar name for a torn-tail repair."""
        backup = self.path.with_name(self.path.name + ".bak")
        counter = 0
        while backup.exists():
            counter += 1
            backup = self.path.with_name(f"{self.path.name}.bak.{counter}")
        return backup

    def _repair_torn_tail(self, torn: TornTail) -> Path:
        """Copy the torn tail to a fresh sidecar and truncate at the tear."""
        backup = self._backup_path()
        raw = self.path.read_bytes()
        backup.write_bytes(raw[torn.byte_offset :])
        with self.path.open("r+b") as handle:
            handle.truncate(torn.byte_offset)
            os.fsync(handle.fileno())
        fsync_dir(self.path.parent)
        return backup


def as_ledger(ledger: "RunLedger | Path | str | None") -> RunLedger | None:
    """Coerce the ``ledger=`` argument accepted by runner/pipeline/CLI."""
    if ledger is None or isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)
