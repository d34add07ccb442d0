"""Supervised execution of matcher runs (deadline / budget / retry / degrade).

The :class:`RunSupervisor` wraps ``matcher.match()`` so a benchmark
sweep or a serving request treats every matcher as a *bounded* unit of
work:

* **Deadline** — with ``policy.timeout`` set, the run executes on a
  watchdog-supervised worker thread; if it overruns, the supervisor
  abandons it (daemon thread) and raises :class:`~repro.errors.
  DeadlineExceeded`.  Without a timeout the call is made inline — zero
  overhead on the clean path.
* **Memory budget** — checked post-run against the matcher's *declared*
  peak working set (:class:`~repro.utils.memory.MemoryTracker`), which
  is analytic and therefore deterministic; a real or simulated
  ``MemoryError`` maps to the same
  :class:`~repro.errors.ResourceBudgetExceeded`.
* **Bounded retry** — failure modes flagged ``retryable`` (e.g.
  :class:`~repro.errors.ConvergenceError` from Sinkhorn overflow at
  small temperature) are retried up to ``policy.retries`` times with a
  deterministic, seeded backoff schedule; matchers exposing a
  ``temperature`` attribute are softened by ``temperature_factor`` per
  attempt (the higher-temperature retry suggested by the note in
  :mod:`repro.core.sinkhorn`).
* **Degradation ladder** — on a deadline or budget breach with
  ``on_error="fallback"``, optimal matchers fall back to cheaper ones
  (``Hun.`` -> ``Greedy``, ``Sink.`` -> ``CSLS``); the fallback chain is
  recorded on the :class:`SupervisedRun`, never applied silently.
* **Dense -> sparse rung** — with ``policy.sparse_k`` set, a *memory*
  breach by a sparse-capable matcher (``Matcher.supports_sparse``)
  retries the *same algorithm* on exact top-``sparse_k`` candidate
  lists — O(n k) working set instead of n x n — before any ladder hop
  swaps the algorithm.  The lists come from an exact scan in row chunks
  sized to the policy budget.  The chain records the rung as
  ``"<name>+sparse"``; ladder hops that inherit the lists keep it.

While an attempt runs, the policy's memory budget is published as the
ambient budget (:mod:`repro.runtime.budget`), so deep allocation sites
(``CandidateSet.densify``) can refuse to materialise n x n *before* the
allocation instead of the process eating a raw ``MemoryError``.

The supervisor never imports the fault-injection harness; chaos testing
plugs in from the outside via the runner's ``matcher_factory`` hook.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.index.candidates import CandidateSet

from repro.core.base import Matcher, MatchResult
from repro.core.registry import create_matcher
from repro.errors import (
    DeadlineExceeded,
    MatcherError,
    ResourceBudgetExceeded,
    as_matcher_error,
)
from repro.obs import events as obs_events
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.runtime.budget import budget_scope
from repro.similarity.engine import SimilarityEngine
from repro.utils.parallel import budget_elems, rows_per_chunk
from repro.utils.rng import ensure_rng

_ON_ERROR = ("raise", "skip", "fallback")


def _signal(name: str, **attrs: Any) -> None:
    """One supervisor signal, delivered to both observability planes:
    the trace recorder (for the post-hoc profile document) and the live
    event stream (for whoever is watching the sweep right now)."""
    obs_trace.event(name, **attrs)
    obs_events.emit(name, **attrs)


#: Default degradation ladder: each entry maps a matcher to the cheaper
#: one that replaces it after a deadline/budget breach.  The ladder
#: follows the paper's cost ordering (Figure 5): optimal assignment and
#: iterative transforms degrade to local scaling, local scaling degrades
#: to plain greedy, and greedy is terminal — there is nothing cheaper
#: than one argmax per row.
DEGRADATION_LADDER: Mapping[str, str] = MappingProxyType(
    {
        "Hun.": "Greedy",
        "SMat": "Greedy",
        "Sink.": "CSLS",
        "RInf": "CSLS",
        "RInf-wr": "CSLS",
        "RInf-pb": "CSLS",
        "RL": "Greedy",
        "Multi": "Greedy",
        "CSLS": "Greedy",
    }
)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Bounds and failure handling for supervised matcher runs."""

    #: Wall-clock deadline per attempt in seconds (None = unbounded).
    timeout: float | None = None
    #: Peak declared working-set budget in bytes (None = unbounded).
    memory_budget: int | None = None
    #: Extra attempts after the first for retryable failures.
    retries: int = 0
    #: First backoff delay in seconds; attempt ``i`` waits
    #: ``backoff_base * backoff_factor**i`` (plus seeded jitter).
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    #: Jitter fraction drawn from the seeded stream (0 = none).
    backoff_jitter: float = 0.25
    #: Multiplier applied to a retried matcher's ``temperature``.
    temperature_factor: float = 10.0
    #: Terminal-failure handling: "raise" propagates, "skip" records the
    #: failure and returns no result, "fallback" walks the ladder on
    #: deadline/budget breaches (and skips on other failure modes).
    on_error: str = "raise"
    #: Candidate-list width for the dense -> sparse degradation rung.
    #: When set (and ``on_error="fallback"``), a memory-budget breach by
    #: a sparse-capable matcher retries the same matcher on its top-k
    #: candidate lists before any ladder hop; None disables the rung.
    sparse_k: int | None = None
    #: Seed of the backoff-jitter stream (same seed -> same schedule).
    seed: int = 0
    #: Matcher name -> cheaper replacement (see :data:`DEGRADATION_LADDER`).
    fallbacks: Mapping[str, str] = field(default_factory=lambda: DEGRADATION_LADDER)

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {self.on_error!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_jitter < 0:
            raise ValueError(
                "backoff_base/backoff_jitter must be >= 0 and backoff_factor >= 1"
            )
        if self.sparse_k is not None and self.sparse_k < 1:
            raise ValueError(f"sparse_k must be >= 1, got {self.sparse_k}")


def backoff_schedule(policy: SupervisorPolicy) -> list[float]:
    """Deterministic backoff delays for ``policy`` (one per retry).

    ``delay[i] = backoff_base * backoff_factor**i * (1 + jitter * u_i)``
    with ``u_i`` drawn from the policy-seeded stream — so two supervisors
    built from equal policies schedule byte-identical waits, the property
    the retry-determinism contract test pins down.
    """
    rng = ensure_rng(policy.seed)
    jitters = rng.random(policy.retries) if policy.retries else np.empty(0)
    return [
        policy.backoff_base
        * policy.backoff_factor**i
        * (1.0 + policy.backoff_jitter * float(jitters[i]))
        for i in range(policy.retries)
    ]


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of one matcher inside a supervised run."""

    matcher: str
    #: 1-based attempt index *for that matcher* (resets on fallback).
    attempt: int
    #: The failure, or None if the attempt succeeded.
    error: MatcherError | None
    #: Backoff scheduled after this attempt (0.0 for terminal attempts).
    backoff: float
    #: Wall-clock seconds the attempt took (informational).
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SupervisedRun:
    """Outcome of one supervised matcher run (success, degraded, or failed)."""

    #: The matcher originally requested.
    requested: str
    #: The matcher that actually produced ``result`` (None if none did).
    executed: str | None = None
    result: MatchResult | None = None
    #: Every attempt across the fallback chain, in execution order.
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: Matchers tried, in order (``["Hun.", "Greedy"]`` after one hop).
    chain: list[str] = field(default_factory=list)
    #: Terminal error when ``result`` is None, else the error that
    #: triggered the (successful) degradation, else None.
    error: MatcherError | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def degraded(self) -> bool:
        """Whether the result came from a ladder fallback."""
        return self.ok and self.executed != self.requested

    @property
    def fallback_from(self) -> str | None:
        """The requested matcher when the result is a fallback's."""
        return self.requested if self.degraded else None

    def describe(self) -> str:
        """One-line human summary for logs and CLI output."""
        if not self.ok:
            error = self.error
            kind = type(error).__name__ if error else "unknown"
            return f"{self.requested}: FAILED ({kind}: {error})"
        if self.degraded:
            return (
                f"{self.requested}: degraded to {self.executed} "
                f"after {type(self.error).__name__}"
            )
        tries = len(self.attempts)
        return f"{self.requested}: ok" + (f" after {tries} attempts" if tries > 1 else "")


class RunSupervisor:
    """Runs matchers under a :class:`SupervisorPolicy`.

    ``matcher_factory`` builds fallback matchers (defaults to the
    registry's :func:`~repro.core.registry.create_matcher`); ``sleep``
    is injectable so tests can assert the backoff schedule without
    actually waiting.

    Every attempt, retry, degradation hop, and terminal failure is also
    emitted through the observability layer: ``supervisor.*`` counters
    on ``metrics`` (the active :func:`~repro.obs.metrics.get_metrics`
    registry unless one is injected) and point events on the installed
    trace recorder — so a profile document carries the same story as
    the runner's :class:`~repro.experiments.runner.FailedRun` ledger.
    """

    def __init__(
        self,
        policy: SupervisorPolicy | None = None,
        *,
        matcher_factory: Callable[..., Matcher] | None = None,
        sleep: Callable[[float], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self._factory = matcher_factory or create_matcher
        self._sleep = sleep if sleep is not None else time.sleep
        self._schedule = backoff_schedule(self.policy)
        self._metrics = metrics

    def _registry(self) -> MetricsRegistry:
        """The injected metrics registry, or the active process one."""
        return self._metrics if self._metrics is not None else get_metrics()

    # -- public API ----------------------------------------------------

    def run(
        self,
        matcher: Matcher,
        source: np.ndarray,
        target: np.ndarray,
        *,
        name: str | None = None,
        context: Mapping[str, Any] | None = None,
        candidates: "CandidateSet | None" = None,
    ) -> SupervisedRun:
        """Execute ``matcher.match(source, target)`` under the policy.

        With ``candidates`` supplied the matcher runs its sparse path
        (:meth:`~repro.core.base.Matcher.match_candidates`) on those
        lists instead of matching the dense embeddings.

        Returns a :class:`SupervisedRun`; with ``on_error="raise"`` a
        terminal failure propagates as its typed
        :class:`~repro.errors.MatcherError` instead.
        """
        requested = name or matcher.name
        run = SupervisedRun(requested=requested)
        context = dict(context or {})
        current, current_name = matcher, requested
        registry = self._registry()
        while True:
            run.chain.append(current_name)
            error = self._attempt_with_retries(
                run, current, current_name, source, target, context, candidates
            )
            if error is None:
                registry.inc("supervisor.runs")
                if run.degraded:
                    # The ledger's resolution="fallback" entries: runs
                    # whose result came from a ladder substitute.
                    registry.inc("supervisor.degraded_runs")
                return run
            run.error = error
            sparse = self._sparse_rung(current, current_name, source, target, error, candidates)
            if sparse is not None:
                registry.inc("supervisor.sparse_degradations")
                _signal(
                    "supervisor.degrade_sparse",
                    matcher=current_name,
                    k=self.policy.sparse_k,
                    error=type(error).__name__,
                )
                candidates = sparse
                current_name = f"{current_name}+sparse"
                continue
            fallback_name = self._fallback_for(current_name)
            if self.policy.on_error == "fallback" and fallback_name is not None and self._breached(error):
                fallback = self._build_fallback(fallback_name, current)
                if fallback is not None:
                    registry.inc("supervisor.degradations")
                    _signal(
                        "supervisor.degrade",
                        matcher=current_name,
                        fallback=fallback_name,
                        error=type(error).__name__,
                    )
                    if candidates is not None:
                        # The hop inherits the candidate lists; keep
                        # the marker so the chain stays honest.
                        fallback_name = f"{fallback_name}+sparse"
                    current, current_name = fallback, fallback_name
                    continue
            # The ledger's resolution="skipped" entries plus raised runs.
            registry.inc("supervisor.failed_runs")
            _signal(
                "supervisor.failure",
                matcher=requested,
                error=type(error).__name__,
            )
            if self.policy.on_error == "raise":
                raise error
            return run

    # -- internals -----------------------------------------------------

    def _sparse_rung(
        self,
        matcher: Matcher,
        name: str,
        source: np.ndarray,
        target: np.ndarray,
        error: MatcherError,
        candidates: "CandidateSet | None",
    ) -> "CandidateSet | None":
        """Candidate lists for the dense -> sparse rung, or None.

        The rung applies only to a *memory* breach (a deadline breach
        means the algorithm is too slow; shrinking its input is the
        ladder's job), only once (``candidates is None``), and only for
        matchers with a real sparse path.  The exact scan runs in row
        chunks sized to the policy budget by the shard grid's rule
        (:func:`~repro.utils.parallel.budget_elems`), whatever budget the
        matcher's engine carries.  A failure while building the lists
        disables the rung rather than masking the original error.
        """
        if (
            self.policy.on_error != "fallback"
            or self.policy.sparse_k is None
            or candidates is not None
            or not isinstance(error, ResourceBudgetExceeded)
            or not matcher.supports_sparse
        ):
            return None
        try:
            engine = matcher.engine if matcher.engine is not None else SimilarityEngine(cache=False)
            return engine.top_k_candidates(
                source,
                target,
                self.policy.sparse_k,
                metric=getattr(matcher, "metric", "cosine"),
                chunk_size=rows_per_chunk(
                    len(target), budget_elems(self.policy.memory_budget)
                ),
            )
        except Exception:  # noqa: BLE001 - the original breach stays primary
            _signal("supervisor.sparse_rung_failed", matcher=name)
            return None

    def _attempt_with_retries(
        self,
        run: SupervisedRun,
        matcher: Matcher,
        name: str,
        source: np.ndarray,
        target: np.ndarray,
        context: Mapping[str, Any],
        candidates: "CandidateSet | None" = None,
    ) -> MatcherError | None:
        """All attempts of one matcher; returns its terminal error or None."""
        error: MatcherError | None = None
        registry = self._registry()
        if candidates is None:
            invoke = lambda: matcher.match(source, target)  # noqa: E731
        else:
            invoke = lambda: matcher.match_candidates(candidates)  # noqa: E731
        for attempt in range(1, self.policy.retries + 2):
            start = time.perf_counter()
            try:
                result = self._bounded_match(invoke, name, attempt, context)
            except MatcherError as exc:
                error = exc
                retrying = exc.retryable and attempt <= self.policy.retries
                backoff = self._schedule[attempt - 1] if retrying else 0.0
                registry.inc("supervisor.attempts")
                run.attempts.append(
                    AttemptRecord(
                        matcher=name,
                        attempt=attempt,
                        error=exc,
                        backoff=backoff,
                        seconds=time.perf_counter() - start,
                    )
                )
                if not retrying:
                    return error
                registry.inc("supervisor.retries")
                _signal(
                    "supervisor.retry",
                    matcher=name,
                    attempt=attempt,
                    error=type(exc).__name__,
                    backoff=backoff,
                )
                self._soften(matcher)
                if backoff > 0:
                    self._sleep(backoff)
                continue
            registry.inc("supervisor.attempts")
            run.attempts.append(
                AttemptRecord(
                    matcher=name,
                    attempt=attempt,
                    error=None,
                    backoff=0.0,
                    seconds=time.perf_counter() - start,
                )
            )
            run.executed = name
            run.result = result
            return None
        return error  # pragma: no cover - loop always returns

    def _bounded_match(
        self,
        invoke: Callable[[], MatchResult],
        name: str,
        attempt: int,
        context: Mapping[str, Any],
    ) -> MatchResult:
        """One attempt under deadline + budget; errors come back typed.

        The policy budget is published as the ambient budget for the
        attempt (:func:`~repro.runtime.budget.budget_scope`), so deep
        allocation sites can refuse a doomed n x n materialisation with
        a typed breach the ladder catches.
        """
        try:
            with budget_scope(self.policy.memory_budget):
                if self.policy.timeout is None:
                    result = invoke()
                else:
                    result = self._match_with_deadline(invoke, name)
        except BaseException as exc:  # noqa: BLE001 - typed and re-raised
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            raise as_matcher_error(exc, matcher=name, attempt=attempt, **context) from exc
        budget = self.policy.memory_budget
        if budget is not None and result.peak_bytes > budget:
            raise ResourceBudgetExceeded(
                f"declared peak {result.peak_bytes} B exceeds budget {budget} B",
                peak_bytes=result.peak_bytes,
                budget_bytes=budget,
                matcher=name,
                context={"attempt": attempt, **context},
            )
        return result

    def _match_with_deadline(
        self, invoke: Callable[[], MatchResult], name: str
    ) -> MatchResult:
        """Run on a watchdog-supervised worker thread; abandon on overrun.

        A stalled numpy kernel cannot be interrupted from Python, so the
        watchdog *abandons* the worker (daemon thread) rather than
        killing it; the sweep moves on while the stray attempt finishes
        or dies with the process.
        """
        outcome: dict[str, Any] = {}
        done = threading.Event()

        def worker() -> None:
            try:
                outcome["result"] = invoke()
            except BaseException as exc:  # noqa: BLE001 - ferried to caller
                outcome["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=worker, name=f"supervised-{name}", daemon=True
        )
        start = time.perf_counter()
        thread.start()
        if not done.wait(self.policy.timeout):
            raise DeadlineExceeded(
                f"run exceeded the {self.policy.timeout:g}s deadline and was abandoned",
                elapsed_seconds=time.perf_counter() - start,
                deadline_seconds=self.policy.timeout,
                matcher=name,
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    def _soften(self, matcher: Matcher) -> None:
        """Adjust the matcher before a retry (higher Sinkhorn temperature)."""
        temperature = getattr(matcher, "temperature", None)
        if isinstance(temperature, (int, float)):
            matcher.temperature = float(temperature) * self.policy.temperature_factor

    def _breached(self, error: MatcherError) -> bool:
        """Whether ``error`` is a deadline/budget breach (ladder trigger)."""
        return isinstance(error, (DeadlineExceeded, ResourceBudgetExceeded))

    def _fallback_for(self, name: str) -> str | None:
        # A "+sparse" rung keeps its base matcher's ladder entry, so a
        # still-breaching rung run can degrade the algorithm.
        return self.policy.fallbacks.get(name.removesuffix("+sparse"))

    def _build_fallback(self, name: str, failed: Matcher) -> Matcher | None:
        """Instantiate the ladder replacement, inheriting metric + engine."""
        kwargs: dict[str, Any] = {}
        metric = getattr(failed, "metric", None)
        if isinstance(metric, str):
            kwargs["metric"] = metric
        try:
            fallback = self._factory(name, **kwargs)
        except TypeError:
            fallback = self._factory(name)
        except ValueError:
            return None
        fallback.engine = failed.engine
        return fallback
