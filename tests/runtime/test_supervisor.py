"""Tests for the supervised matching runtime (errors + RunSupervisor)."""

import time

import numpy as np
import pytest

from repro.core.base import Matcher, MatchResult
from repro.core.csls import CSLS
from repro.core.greedy import DInf
from repro.core.registry import create_matcher
from repro.core.sinkhorn import Sinkhorn
from repro.errors import (
    ConvergenceError,
    DataIntegrityError,
    DeadlineExceeded,
    MatcherError,
    ResourceBudgetExceeded,
    as_matcher_error,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.supervisor import (
    DEGRADATION_LADDER,
    RunSupervisor,
    SupervisorPolicy,
    backoff_schedule,
)
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch


def _embeddings(n=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n, d))
    return source, source.copy()  # identical spaces: greedy is exact


class _StallingMatcher(Matcher):
    """Sleeps (finite) before delegating to greedy — watchdog target."""

    name = "Stall"

    def __init__(self, seconds=0.3):
        self.seconds = seconds
        self.metric = "cosine"

    def match(self, source, target):
        time.sleep(self.seconds)
        return DInf().match(source, target)


class _FlakyMatcher(Matcher):
    """Raises ConvergenceError for the first ``failures`` calls."""

    name = "Flaky"

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0

    def match(self, source, target):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConvergenceError("flaky", temperature=0.01, iteration=3)
        return DInf().match(source, target)


class _HungryMatcher(Matcher):
    """Declares a huge working set — budget-breach target."""

    name = "Hungry"

    def __init__(self, nbytes=2**30):
        self.nbytes = nbytes
        self.metric = "cosine"

    def match(self, source, target):
        memory = MemoryTracker()
        memory.allocate("huge", self.nbytes)
        result = DInf().match(source, target)
        return MatchResult(
            result.pairs, result.scores, stopwatch=Stopwatch(), memory=memory
        )


class TestErrorTaxonomy:
    def test_matcher_name_in_rendering(self):
        err = MatcherError("boom", matcher="Hun.")
        assert "[Hun.]" in str(err)
        assert "boom" in str(err)

    def test_annotate_fills_only_blanks(self):
        err = MatcherError("boom", matcher="Hun.", context={"attempt": 1})
        err.annotate("Sink.", attempt=2, preset="x")
        assert err.matcher == "Hun."
        assert err.context == {"attempt": 1, "preset": "x"}

    def test_convergence_is_retryable_others_not(self):
        assert ConvergenceError("x").retryable
        assert not DeadlineExceeded("x").retryable
        assert not ResourceBudgetExceeded("x").retryable
        assert not DataIntegrityError("x").retryable

    def test_data_integrity_is_value_error(self):
        assert isinstance(DataIntegrityError("x"), ValueError)

    def test_as_matcher_error_wraps_memoryerror_as_budget(self):
        wrapped = as_matcher_error(MemoryError("oom"), matcher="Hun.")
        assert isinstance(wrapped, ResourceBudgetExceeded)
        assert wrapped.matcher == "Hun."

    def test_as_matcher_error_passthrough_annotates(self):
        original = ConvergenceError("diverged")
        wrapped = as_matcher_error(original, matcher="Sink.", preset="p")
        assert wrapped is original
        assert wrapped.matcher == "Sink."
        assert wrapped.context["preset"] == "p"


class TestPolicyValidation:
    def test_bad_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            SupervisorPolicy(on_error="explode")

    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            SupervisorPolicy(timeout=0)

    def test_bad_retries(self):
        with pytest.raises(ValueError, match="retries"):
            SupervisorPolicy(retries=-1)

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="memory_budget"):
            SupervisorPolicy(memory_budget=-5)


class TestCleanPath:
    def test_success_passthrough(self):
        source, target = _embeddings()
        run = RunSupervisor().run(DInf(), source, target)
        assert run.ok and not run.degraded
        assert run.executed == "DInf"
        assert run.chain == ["DInf"]
        assert len(run.attempts) == 1 and run.attempts[0].ok
        assert run.error is None
        assert len(run.result.pairs) == len(source)

    def test_no_timeout_runs_inline(self):
        # Without a timeout the matcher must run on the calling thread
        # (zero watchdog overhead on the clean path).
        import threading

        calling = threading.current_thread().name
        seen = {}

        class Probe(DInf):
            def match(self, source, target):
                seen["thread"] = threading.current_thread().name
                return super().match(source, target)

        source, target = _embeddings()
        RunSupervisor().run(Probe(), source, target)
        assert seen["thread"] == calling


class TestDeadline:
    def test_deadline_breach_raises(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(SupervisorPolicy(timeout=0.05))
        with pytest.raises(DeadlineExceeded) as excinfo:
            supervisor.run(_StallingMatcher(0.5), source, target)
        assert excinfo.value.deadline_seconds == 0.05
        assert excinfo.value.matcher == "Stall"

    def test_fast_run_unaffected_by_timeout(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(SupervisorPolicy(timeout=30.0))
        run = supervisor.run(DInf(), source, target)
        assert run.ok and not run.degraded


class TestMemoryBudget:
    def test_budget_breach_raises(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(SupervisorPolicy(memory_budget=2**20))
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            supervisor.run(_HungryMatcher(2**30), source, target)
        assert excinfo.value.peak_bytes >= 2**30
        assert excinfo.value.budget_bytes == 2**20

    def test_budget_breach_skip_records(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="skip")
        )
        run = supervisor.run(_HungryMatcher(), source, target)
        assert not run.ok
        assert isinstance(run.error, ResourceBudgetExceeded)
        assert "FAILED" in run.describe()


class TestRetry:
    def test_retry_recovers_flaky_matcher(self):
        source, target = _embeddings()
        sleeps = []
        supervisor = RunSupervisor(
            SupervisorPolicy(retries=2), sleep=sleeps.append
        )
        run = supervisor.run(_FlakyMatcher(failures=2), source, target)
        assert run.ok
        assert len(run.attempts) == 3
        assert [a.ok for a in run.attempts] == [False, False, True]
        assert sleeps == [a.backoff for a in run.attempts[:2]]
        assert all(s > 0 for s in sleeps)

    def test_retries_exhausted_raises(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(SupervisorPolicy(retries=1), sleep=lambda s: None)
        with pytest.raises(ConvergenceError):
            supervisor.run(_FlakyMatcher(failures=5), source, target)

    def test_non_retryable_never_retried(self):
        source, target = _embeddings()
        source[0, 0] = np.nan  # DataIntegrityError at the boundary
        supervisor = RunSupervisor(
            SupervisorPolicy(retries=3, on_error="skip"), sleep=lambda s: None
        )
        run = supervisor.run(DInf(), source, target)
        assert not run.ok
        assert isinstance(run.error, DataIntegrityError)
        assert len(run.attempts) == 1

    def test_schedule_deterministic_per_seed(self):
        # Same seed -> same attempt schedule; different seed -> different.
        a = backoff_schedule(SupervisorPolicy(retries=4, seed=7))
        b = backoff_schedule(SupervisorPolicy(retries=4, seed=7))
        c = backoff_schedule(SupervisorPolicy(retries=4, seed=8))
        assert a == b
        assert a != c
        assert len(a) == 4
        # Exponential envelope: each delay sits within its jitter band.
        policy = SupervisorPolicy(retries=4, seed=7)
        for i, delay in enumerate(a):
            low = policy.backoff_base * policy.backoff_factor**i
            assert low <= delay <= low * (1 + policy.backoff_jitter)

    def test_same_seed_same_recorded_backoffs(self):
        source, target = _embeddings()

        def attempt_backoffs():
            sleeps = []
            supervisor = RunSupervisor(
                SupervisorPolicy(retries=3, seed=11), sleep=sleeps.append
            )
            supervisor.run(_FlakyMatcher(failures=3), source, target)
            return sleeps

        assert attempt_backoffs() == attempt_backoffs()

    def test_sinkhorn_temperature_softened_per_retry(self):
        source, target = _embeddings()
        # 1e-320 is denormal: S / temperature overflows immediately.
        matcher = Sinkhorn(iterations=5, temperature=1e-320)
        supervisor = RunSupervisor(
            SupervisorPolicy(retries=1, temperature_factor=1e300),
            sleep=lambda s: None,
        )
        run = supervisor.run(matcher, source, target)
        # One divergence, then the softened retry converges.
        assert run.ok
        assert len(run.attempts) == 2
        assert isinstance(run.attempts[0].error, ConvergenceError)
        assert matcher.temperature > 1e-320


class TestDegradationLadder:
    def test_hun_deadline_degrades_to_greedy(self):
        source, target = _embeddings(n=8)
        hun = create_matcher("Hun.")
        stalled = _StallingMatcher(0.5)
        stalled.name = "Hun."
        stalled.metric = hun.metric
        supervisor = RunSupervisor(
            SupervisorPolicy(timeout=0.05, on_error="fallback")
        )
        run = supervisor.run(stalled, source, target, name="Hun.")
        assert run.ok and run.degraded
        assert run.executed == "Greedy"
        assert run.fallback_from == "Hun."
        assert run.chain == ["Hun.", "Greedy"]
        assert isinstance(run.error, DeadlineExceeded)
        assert "degraded to Greedy" in run.describe()
        # The fallback actually matched (identical spaces -> exact).
        gold = {(i, i) for i in range(len(source))}
        assert run.result.as_set() == gold

    def test_budget_breach_walks_ladder(self):
        source, target = _embeddings()
        hungry = _HungryMatcher()
        hungry.name = "Sink."
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="fallback")
        )
        run = supervisor.run(hungry, source, target, name="Sink.")
        assert run.ok and run.degraded
        assert run.executed == "CSLS"  # Sink. -> CSLS per the ladder

    def test_ladder_terminal_failure_is_recorded(self):
        # Greedy has no fallback: a breach there fails the run.
        source, target = _embeddings()
        hungry = _HungryMatcher()
        hungry.name = "Greedy"
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="fallback")
        )
        run = supervisor.run(hungry, source, target, name="Greedy")
        assert not run.ok
        assert isinstance(run.error, ResourceBudgetExceeded)

    def test_non_breach_errors_do_not_degrade(self):
        # fallback mode only ladders deadline/budget breaches; a data
        # integrity failure is recorded, not papered over.
        source, target = _embeddings()
        source[1, 2] = np.inf
        hun = create_matcher("Hun.")
        supervisor = RunSupervisor(SupervisorPolicy(on_error="fallback"))
        run = supervisor.run(hun, source, target)
        assert not run.ok
        assert isinstance(run.error, DataIntegrityError)
        assert run.chain == ["Hun."]

    def test_fallback_inherits_engine_and_metric(self):
        from repro.similarity.engine import SimilarityEngine

        source, target = _embeddings()
        hungry = _HungryMatcher()
        hungry.name = "Hun."
        hungry.metric = "euclidean"
        with SimilarityEngine() as engine:
            hungry.engine = engine
            supervisor = RunSupervisor(
                SupervisorPolicy(memory_budget=2**20, on_error="fallback")
            )
            run = supervisor.run(hungry, source, target, name="Hun.")
            assert run.ok and run.executed == "Greedy"

    def test_default_ladder_is_total_and_terminates(self):
        # Every chain reaches a matcher with no further fallback.
        for start in DEGRADATION_LADDER:
            seen = [start]
            current = start
            while current in DEGRADATION_LADDER:
                current = DEGRADATION_LADDER[current]
                assert current not in seen, f"ladder cycle via {seen}"
                seen.append(current)
            assert current == "Greedy"


class TestMetricsLedgerConsistency:
    """supervisor.* counters tell the same story as the run ledger.

    Every count is cross-checked against the :class:`SupervisedRun`
    record produced by the same call, via a registry injected into the
    supervisor — no reliance on (or pollution of) the process-global one.
    """

    @staticmethod
    def _supervisor(policy, registry, **kwargs):
        from repro.obs.metrics import MetricsRegistry

        assert isinstance(registry, MetricsRegistry)
        return RunSupervisor(policy, metrics=registry, **kwargs)

    @staticmethod
    def _registry():
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()

    def test_clean_run_counts(self):
        source, target = _embeddings()
        registry = self._registry()
        run = self._supervisor(SupervisorPolicy(), registry).run(DInf(), source, target)
        assert registry.counter("supervisor.attempts") == len(run.attempts) == 1
        assert registry.counter("supervisor.runs") == 1
        assert registry.counter("supervisor.retries") == 0
        assert registry.counter("supervisor.degradations") == 0
        assert registry.counter("supervisor.degraded_runs") == 0
        assert registry.counter("supervisor.failed_runs") == 0

    def test_retry_counts_match_attempt_ledger(self):
        source, target = _embeddings()
        registry = self._registry()
        supervisor = self._supervisor(
            SupervisorPolicy(retries=2), registry, sleep=lambda s: None
        )
        run = supervisor.run(_FlakyMatcher(failures=2), source, target)
        assert run.ok
        assert registry.counter("supervisor.attempts") == len(run.attempts) == 3
        failed_attempts = sum(1 for a in run.attempts if not a.ok)
        assert registry.counter("supervisor.retries") == failed_attempts == 2
        assert registry.counter("supervisor.runs") == 1
        assert registry.counter("supervisor.failed_runs") == 0

    def test_degradation_counts_match_chain(self):
        source, target = _embeddings()
        hungry = _HungryMatcher()
        hungry.name = "Sink."
        registry = self._registry()
        supervisor = self._supervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="fallback"), registry
        )
        run = supervisor.run(hungry, source, target, name="Sink.")
        assert run.ok and run.degraded
        # One hop per extra ladder entry in the chain.
        assert registry.counter("supervisor.degradations") == len(run.chain) - 1
        assert registry.counter("supervisor.degraded_runs") == 1
        assert registry.counter("supervisor.runs") == 1
        assert registry.counter("supervisor.attempts") == len(run.attempts)
        assert registry.counter("supervisor.failed_runs") == 0

    def test_terminal_failure_counts(self):
        source, target = _embeddings()
        registry = self._registry()
        supervisor = self._supervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="skip"), registry
        )
        run = supervisor.run(_HungryMatcher(), source, target)
        assert not run.ok
        assert registry.counter("supervisor.failed_runs") == 1
        assert registry.counter("supervisor.runs") == 0
        assert registry.counter("supervisor.attempts") == len(run.attempts) == 1

    def test_raise_mode_still_counts_failure(self):
        source, target = _embeddings()
        registry = self._registry()
        supervisor = self._supervisor(SupervisorPolicy(memory_budget=2**20), registry)
        with pytest.raises(ResourceBudgetExceeded):
            supervisor.run(_HungryMatcher(), source, target)
        assert registry.counter("supervisor.failed_runs") == 1
        assert registry.counter("supervisor.runs") == 0

    def test_counts_accumulate_across_runs(self):
        source, target = _embeddings()
        registry = self._registry()
        supervisor = self._supervisor(SupervisorPolicy(), registry)
        for _ in range(3):
            supervisor.run(DInf(), source, target)
        assert registry.counter("supervisor.runs") == 3
        assert registry.counter("supervisor.attempts") == 3

    def test_uninjected_supervisor_uses_active_registry(self):
        from repro.obs import metrics as obs_metrics

        source, target = _embeddings()
        with obs_metrics.scoped() as registry:
            RunSupervisor().run(DInf(), source, target)
        assert registry.counter("supervisor.runs") == 1
        assert registry.counter("supervisor.attempts") == 1

    def test_degrade_and_retry_events_traced(self):
        from repro.obs import trace

        source, target = _embeddings()
        hungry = _HungryMatcher()
        hungry.name = "Hun."
        supervisor = self._supervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="fallback"),
            self._registry(),
        )
        with trace.recording() as recorder:
            supervisor.run(hungry, source, target, name="Hun.")
        (event,) = [e for e in recorder.events if e["name"] == "supervisor.degrade"]
        assert event["attrs"]["matcher"] == "Hun."
        assert event["attrs"]["fallback"] == "Greedy"
        assert event["attrs"]["error"] == "ResourceBudgetExceeded"


class _HungrySparse(CSLS):
    """Sparse-capable matcher whose *dense* path declares a huge footprint."""

    def __init__(self):
        super().__init__()
        self.name = "CSLS"

    def match(self, source, target):
        memory = MemoryTracker()
        memory.allocate("huge", 2**30)
        result = DInf().match(source, target)
        return MatchResult(
            result.pairs, result.scores, stopwatch=Stopwatch(), memory=memory
        )


class _HungryEverywhere(_HungrySparse):
    """Breaches the budget on the dense *and* the sparse path."""

    def match_candidates(self, candidates):
        memory = MemoryTracker()
        memory.allocate("huge", 2**30)
        result = super().match_candidates(candidates)
        return MatchResult(
            result.pairs, result.scores, stopwatch=Stopwatch(), memory=memory
        )


class _BrokenEngine:
    def top_k_candidates(self, *args, **kwargs):
        raise RuntimeError("engine down")


class TestSparseRung:
    """The dense -> sparse degradation rung (policy.sparse_k)."""

    POLICY = dict(memory_budget=2**20, on_error="fallback", sparse_k=5)

    def test_sparse_k_validated(self):
        with pytest.raises(ValueError, match="sparse_k"):
            SupervisorPolicy(sparse_k=0)

    def test_memory_breach_retries_same_algorithm_sparsely(self):
        source, target = _embeddings(n=12)
        registry = MetricsRegistry()
        supervisor = RunSupervisor(SupervisorPolicy(**self.POLICY), metrics=registry)
        run = supervisor.run(_HungrySparse(), source, target)
        assert run.ok
        assert run.chain == ["CSLS", "CSLS+sparse"]
        assert run.executed == "CSLS+sparse"
        assert len(run.result.pairs) == 12
        assert registry.counter("supervisor.sparse_degradations") == 1
        assert registry.counter("supervisor.degradations") == 0

    def test_rung_fires_at_most_once_then_ladder_keeps_marker(self):
        source, target = _embeddings(n=10)
        registry = MetricsRegistry()
        supervisor = RunSupervisor(SupervisorPolicy(**self.POLICY), metrics=registry)
        run = supervisor.run(_HungryEverywhere(), source, target)
        # Sparse CSLS breaches too; the ladder hop (Greedy) inherits the
        # candidate lists and the chain says so.
        assert run.chain == ["CSLS", "CSLS+sparse", "Greedy+sparse"]
        assert run.ok
        assert registry.counter("supervisor.sparse_degradations") == 1
        assert registry.counter("supervisor.degradations") == 1

    def test_deadline_breach_never_takes_the_rung(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(
            SupervisorPolicy(
                timeout=0.05, on_error="skip", sparse_k=5, retries=0
            )
        )
        stalling = _StallingMatcher(seconds=0.4)
        run = supervisor.run(stalling, source, target)
        assert not run.ok
        assert isinstance(run.error, DeadlineExceeded)
        assert run.chain == ["Stall"]

    def test_dense_only_matcher_skips_the_rung(self):
        source, target = _embeddings()
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="skip", sparse_k=5)
        )
        run = supervisor.run(_HungryMatcher(), source, target)
        assert not run.ok
        assert isinstance(run.error, ResourceBudgetExceeded)
        assert run.chain == ["Hungry"]

    def test_without_sparse_k_the_ladder_runs_as_before(self):
        source, target = _embeddings()
        registry = MetricsRegistry()
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="fallback"),
            metrics=registry,
        )
        run = supervisor.run(_HungrySparse(), source, target)
        assert run.chain == ["CSLS", "Greedy"]
        assert registry.counter("supervisor.sparse_degradations") == 0

    def test_candidate_build_failure_keeps_original_error(self):
        source, target = _embeddings()
        matcher = _HungrySparse()
        matcher.name = "HungrySp"  # no ladder entry: failure must surface
        matcher.engine = _BrokenEngine()
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=2**20, on_error="skip", sparse_k=5)
        )
        run = supervisor.run(matcher, source, target, name="HungrySp")
        assert not run.ok
        assert isinstance(run.error, ResourceBudgetExceeded)
        assert run.chain == ["HungrySp"]

    def test_caller_supplied_candidates_run_sparse_directly(self):
        source, target = _embeddings(n=8)
        from repro.index.candidates import CandidateSet
        from repro.similarity.chunked import chunked_top_k

        indices, scores = chunked_top_k(source, target, 3)
        candidates = CandidateSet.from_topk(indices, scores, n_targets=8)
        run = RunSupervisor().run(CSLS(), source, target, candidates=candidates)
        assert run.ok
        assert run.chain == ["CSLS"]
        assert len(run.result.pairs) == 8

    @pytest.mark.parametrize("engine", [None, "no-budget"])
    def test_rung_scan_is_chunked_to_the_policy_budget(self, engine, monkeypatch):
        # The exact scan's row chunks follow the policy budget by the
        # shard grid's rule, whether the matcher has no engine or one
        # that carries no budget of its own.
        import repro.similarity.engine as engine_module
        from repro.similarity import SimilarityEngine
        from repro.utils.parallel import SHARD_BUDGET_FACTOR

        chunk_sizes = []
        real = engine_module.chunked_top_k

        def spy(*args, chunk_size, **kwargs):
            chunk_sizes.append(chunk_size)
            return real(*args, chunk_size=chunk_size, **kwargs)

        monkeypatch.setattr(engine_module, "chunked_top_k", spy)
        budget = 2**14
        source, target = _embeddings(n=40)
        matcher = _HungrySparse()
        if engine is not None:
            matcher.engine = SimilarityEngine(cache=False)
        supervisor = RunSupervisor(
            SupervisorPolicy(memory_budget=budget, on_error="fallback", sparse_k=5)
        )
        run = supervisor.run(matcher, source, target)
        assert run.chain == ["CSLS", "CSLS+sparse"]
        assert run.ok
        (chunk_size,) = chunk_sizes
        assert 1 <= chunk_size < len(source)
        assert chunk_size * len(target) * 8 * SHARD_BUDGET_FACTOR <= budget

    def test_densify_mid_run_is_caught_as_budget_breach(self):
        # The policy budget is ambient during the attempt: a matcher that
        # densifies a candidate set bigger than the budget raises a typed
        # ResourceBudgetExceeded (never a raw MemoryError), and the
        # ladder handles it like any other breach.
        from repro.index.candidates import CandidateSet
        from repro.similarity.chunked import chunked_top_k

        class _Densifier(Matcher):
            name = "Sink."
            metric = "cosine"

            def match(self, source, target):  # pragma: no cover - unused
                raise AssertionError("sparse path expected")

            def match_candidates(self, candidates):
                candidates.densify()
                raise AssertionError("densify should have refused")

        source, target = _embeddings(n=64)
        indices, scores = chunked_top_k(source, target, 3)
        candidates = CandidateSet.from_topk(indices, scores, n_targets=64)
        supervisor = RunSupervisor(
            # Budget below the 64 x 64 x 8 = 32 KiB dense matrix, above
            # the k=3 candidate footprint of the CSLS fallback.
            SupervisorPolicy(memory_budget=16_384, on_error="fallback")
        )
        run = supervisor.run(_Densifier(), source, target, candidates=candidates)
        assert run.ok
        assert run.chain == ["Sink.", "CSLS+sparse"]
        assert isinstance(run.error, ResourceBudgetExceeded) or run.error is None
