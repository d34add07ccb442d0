"""Worker-crash containment: typed errors, no hangs, no leaked memory.

Two layers of evidence:

* in-process (fast, always on): the :class:`KilledWorkerInjector`
  produces the exact error signature a dead pool worker leaves, driving
  the supervisor's process -> thread rung without spawning anything;
* real processes (``chaos_crash``): a pool worker is SIGKILL'd for real
  and the shard executor must surface a typed
  :class:`~repro.errors.WorkerCrashedError` promptly (the no-hang
  guarantee), with every shared-memory segment unlinked.
"""

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from repro.core.greedy import DInf
from repro.errors import WorkerCrashedError
from repro.runtime.supervisor import RunSupervisor, SupervisorPolicy
from repro.similarity.engine import SimilarityEngine
from repro.similarity.sharded import process_sharded_similarity
from repro.testing.faults import KilledWorkerInjector, kill_current_worker
from repro.utils.parallel import plan_shards


def _embeddings(n=40, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


def _shm_segments():
    """Live ``shared_memory`` segments (Linux).

    Only the ``psm_`` blocks :mod:`multiprocessing.shared_memory`
    allocates count — the pool's own ``sem.mp-*`` semaphores belong to
    the executor's queues and are the resource tracker's business.
    """
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:  # pragma: no cover - non-Linux fallback
        return set()


class TestThreadRungInProcess:
    """The supervisor's process -> thread flip, driven by the injector."""

    def _supervised(self, injector, **policy_kwargs):
        source, target = _embeddings()
        engine = SimilarityEngine(workers=2)
        matcher = injector.install(DInf())
        matcher.engine = engine
        supervisor = RunSupervisor(SupervisorPolicy(**policy_kwargs))
        try:
            return supervisor.run(matcher, source, target, name="DInf"), engine
        finally:
            engine.close()

    def test_crash_flips_backend_and_completes_with_thread_marker(self):
        run, engine = self._supervised(KilledWorkerInjector(failures=1))
        assert run.ok
        assert run.chain == ["DInf", "DInf+thread"]
        assert engine.backend == "thread"
        assert run.error is not None  # the crash that triggered the rung
        assert isinstance(run.error, WorkerCrashedError)
        assert run.error.exitcodes == (-signal.SIGKILL,)

    def test_rung_result_matches_thread_backend_bitwise(self):
        source, target = _embeddings()
        run, _ = self._supervised(KilledWorkerInjector(failures=1))
        with SimilarityEngine() as engine:
            clean = DInf()
            clean.engine = engine
            expected = clean.match(source, target)
        np.testing.assert_array_equal(run.result.pairs, expected.pairs)

    def test_rung_fires_at_most_once(self):
        # A second crash after the flip finds backend == "thread": the
        # rung refuses and the error propagates (on_error="raise").
        with pytest.raises(WorkerCrashedError):
            self._supervised(KilledWorkerInjector(failures=2))

    def test_rung_fires_under_skip_mode_too(self):
        run, engine = self._supervised(
            KilledWorkerInjector(failures=1), on_error="skip"
        )
        assert run.ok and engine.backend == "thread"

    def test_thread_backend_crash_is_not_flipped(self):
        source, target = _embeddings()
        with SimilarityEngine() as engine:
            matcher = KilledWorkerInjector(failures=1).install(DInf())
            matcher.engine = engine
            with pytest.raises(WorkerCrashedError):
                RunSupervisor(SupervisorPolicy()).run(
                    matcher, source, target, name="DInf"
                )


class _FakeProcess:
    def __init__(self, exitcode):
        self.exitcode = exitcode


class _OSErrorPool:
    """A pool whose ``map`` fails the way a respawn after a kill can."""

    def __init__(self, exitcodes):
        self._processes = {i: _FakeProcess(code) for i, code in enumerate(exitcodes)}

    def map(self, fn, tasks):
        raise OSError("handle is closed")


class TestOSErrorFromPool:
    """An ``OSError`` out of ``pool.map`` is a crash only beside a dead worker."""

    def _run(self, pool):
        source, target = _embeddings(n=16, d=4)
        return process_sharded_similarity(
            source, target, "cosine", plan_shards(16, 16, chunk_rows=8), pool=pool
        )

    def test_dead_worker_turns_oserror_into_typed_crash(self):
        before = _shm_segments()
        with pytest.raises(WorkerCrashedError) as caught:
            self._run(_OSErrorPool([None, -signal.SIGKILL]))
        assert caught.value.backend == "process"
        assert caught.value.exitcodes == (-signal.SIGKILL,)
        assert isinstance(caught.value.__cause__, OSError)
        assert _shm_segments() - before == set()

    def test_oserror_without_dead_worker_propagates_unchanged(self):
        before = _shm_segments()
        with pytest.raises(OSError, match="handle is closed") as caught:
            self._run(_OSErrorPool([None, 0]))
        assert not isinstance(caught.value, WorkerCrashedError)
        assert _shm_segments() - before == set()


def _reap(pool):
    """Kill surviving workers, then join the executor fully.

    A fire-and-forget ``shutdown(wait=False)`` on a broken pool leaves
    its management thread behind, which can deadlock interpreter exit.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        if process.is_alive():
            process.kill()
    pool.shutdown(wait=True, cancel_futures=True)


@pytest.mark.chaos_crash
class TestRealWorkerKill:
    """Actual SIGKILL'd pool workers: typed error, no hang, no leaks."""

    def _broken_pool(self):
        pool = ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn"))
        future = pool.submit(kill_current_worker)
        with pytest.raises(Exception):  # BrokenProcessPool, promptly
            future.result(timeout=60)
        return pool

    def test_sigkilled_worker_yields_typed_error_and_no_leaked_shm(self):
        source, target = _embeddings(n=64, d=16)
        shards = plan_shards(64, 64, chunk_rows=16)
        before = _shm_segments()
        pool = self._broken_pool()
        try:
            with pytest.raises(WorkerCrashedError) as excinfo:
                process_sharded_similarity(
                    source, target, "cosine", shards, pool=pool
                )
        finally:
            _reap(pool)
        error = excinfo.value
        assert "shard worker process died" in str(error)
        assert error.backend == "process"
        assert all(code not in (None, 0) for code in error.exitcodes)
        assert _shm_segments() - before == set()  # every segment unlinked

    def test_kill_mid_pool_lifetime_breaks_map_not_hangs(self):
        source, target = _embeddings(n=64, d=16)
        shards = plan_shards(64, 64, chunk_rows=16)
        pool = ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn"))
        try:
            pool.submit(int, 0).result(timeout=60)  # force worker spawn
            victim = next(iter(pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashedError):
                process_sharded_similarity(
                    source, target, "cosine", shards, pool=pool
                )
        finally:
            _reap(pool)

    def test_engine_discards_broken_pool_and_recovers_via_supervisor(self):
        source, target = _embeddings(n=48, d=8)
        engine = SimilarityEngine(workers=2, process_threshold=0, chunk_rows=16)
        try:
            # Break the engine's own pool with a real kill, then run a
            # supervised matcher: first attempt dies typed, the thread
            # rung reruns it, and the chain records the flip.
            inner_pool = engine._process_executor()
            future = inner_pool.submit(kill_current_worker)
            with pytest.raises(Exception):
                future.result(timeout=60)
            matcher = DInf()
            matcher.engine = engine
            run = RunSupervisor(SupervisorPolicy()).run(
                matcher, source, target, name="DInf"
            )
            assert run.ok
            assert run.chain == ["DInf", "DInf+thread"]
            assert engine.backend == "thread"
            with SimilarityEngine() as reference:
                clean = DInf()
                clean.engine = reference
                np.testing.assert_array_equal(
                    run.result.pairs, clean.match(source, target).pairs
                )
        finally:
            engine.close()
