"""Seedable fault injectors for the chaos test suite.

Each :class:`FaultInjector` instruments a live :class:`~repro.core.base.
Matcher` by shadowing its bound ``match`` with a wrapper that misbehaves
in one specific, *deterministic* way:

* :class:`EmbeddingCorruptor` — flips seeded entries of the input
  matrices to NaN, tripping the boundary validators
  (:class:`~repro.errors.DataIntegrityError`);
* :class:`KernelStall` — sleeps before delegating, simulating a stalled
  similarity kernel for deadline/watchdog tests (the stall is finite so
  abandoned worker threads drain instead of hanging the process);
* :class:`ForcedConvergenceFailure` — raises
  :class:`~repro.errors.ConvergenceError` for the first N calls (or
  until the matcher's temperature has been softened past a threshold),
  exercising the retry path;
* :class:`AllocationFailure` — raises ``MemoryError`` as a real
  allocator would, which the supervisor maps to
  :class:`~repro.errors.ResourceBudgetExceeded`.

The durability chaos suite also needs crashes that happen to *files*
rather than matchers: :class:`TornWriteInjector` interrupts a write at a
deterministic byte offset (and can retroactively tear an existing file),
simulating the torn artifacts a power cut leaves behind.

Per-install state (RNG streams, call counters) lives in the wrapper
closure, so one injector instance drives many matchers through the
cartesian chaos sweep and every installation stays independently
deterministic under its seed.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.base import Matcher, MatchResult
from repro.core.registry import create_matcher
from repro.errors import ConvergenceError
from repro.utils.rng import ensure_rng


def corrupt_embeddings(
    array: np.ndarray,
    fraction: float = 0.01,
    seed: int | np.random.Generator = 0,
    value: float = np.nan,
) -> np.ndarray:
    """Return a copy of ``array`` with seeded entries set to ``value``.

    At least one entry is corrupted whenever ``fraction > 0``, so tiny
    test matrices still trip the integrity checks.  Same seed + shape ->
    same corrupted positions.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    corrupted = np.array(array, dtype=np.float64, copy=True)
    if fraction == 0.0 or corrupted.size == 0:
        return corrupted
    rng = ensure_rng(seed)
    count = max(1, int(round(fraction * corrupted.size)))
    flat = rng.choice(corrupted.size, size=count, replace=False)
    corrupted.ravel()[flat] = value
    return corrupted


class FaultInjector(ABC):
    """Installs one deterministic misbehaviour onto a matcher."""

    #: Short name used in chaos-test ids and failure ledgers.
    name: str = "fault"

    def install(self, matcher: Matcher) -> Matcher:
        """Shadow ``matcher.match`` with the faulty wrapper; returns it."""
        inner = matcher.match
        matcher.match = self._wrap(matcher, inner)  # type: ignore[method-assign]
        return matcher

    @abstractmethod
    def _wrap(
        self,
        matcher: Matcher,
        inner: Callable[[np.ndarray, np.ndarray], MatchResult],
    ) -> Callable[[np.ndarray, np.ndarray], MatchResult]:
        """Build the faulty replacement for the bound ``match``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class EmbeddingCorruptor(FaultInjector):
    """Corrupts the input embeddings with NaNs at seeded positions."""

    name = "nan-embeddings"

    def __init__(self, fraction: float = 0.01, seed: int = 0, value: float = np.nan) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.seed = seed
        self.value = value

    def _wrap(self, matcher, inner):
        rng = ensure_rng(self.seed)

        def match(source: np.ndarray, target: np.ndarray) -> MatchResult:
            return inner(
                corrupt_embeddings(source, self.fraction, rng, self.value),
                corrupt_embeddings(target, self.fraction, rng, self.value),
            )

        return match


class KernelStall(FaultInjector):
    """Stalls the similarity kernel for a fixed, finite duration."""

    name = "kernel-stall"

    def __init__(self, seconds: float = 0.25) -> None:
        if seconds <= 0:
            raise ValueError(f"seconds must be positive, got {seconds}")
        self.seconds = seconds

    def _wrap(self, matcher, inner):
        def match(source: np.ndarray, target: np.ndarray) -> MatchResult:
            time.sleep(self.seconds)
            return inner(source, target)

        return match


class ForcedConvergenceFailure(FaultInjector):
    """Raises :class:`ConvergenceError` until the run has been softened.

    With ``min_temperature`` set and the matcher exposing a
    ``temperature`` attribute, the fault clears once the supervisor's
    retry adjustment has raised the temperature past the threshold —
    the Sinkhorn overflow-and-retry scenario.  Otherwise the first
    ``failures`` calls fail and later calls succeed, which exercises
    plain bounded retry on any matcher.
    """

    name = "forced-divergence"

    def __init__(self, failures: int = 1, min_temperature: float | None = None) -> None:
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        self.failures = failures
        self.min_temperature = min_temperature

    def _wrap(self, matcher, inner):
        calls = {"n": 0}

        def match(source: np.ndarray, target: np.ndarray) -> MatchResult:
            calls["n"] += 1
            temperature = getattr(matcher, "temperature", None)
            if self.min_temperature is not None and temperature is not None:
                if temperature < self.min_temperature:
                    raise ConvergenceError(
                        "injected divergence: temperature "
                        f"{temperature:g} below {self.min_temperature:g}",
                        temperature=temperature,
                        iteration=0,
                    )
                return inner(source, target)
            if calls["n"] <= self.failures:
                raise ConvergenceError(
                    f"injected divergence on call {calls['n']}/{self.failures}",
                    temperature=temperature,
                    iteration=0,
                )
            return inner(source, target)

        return match


class AllocationFailure(FaultInjector):
    """Simulates the allocator refusing the matcher's working set."""

    name = "allocation-failure"

    def __init__(self, nbytes: int = 2**34) -> None:
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self.nbytes = nbytes

    def _wrap(self, matcher, inner):
        def match(source: np.ndarray, target: np.ndarray) -> MatchResult:
            raise MemoryError(
                f"injected allocation failure: unable to allocate {self.nbytes} bytes"
            )

        return match


class TornWriteInjector:
    """Deterministically interrupted writes — the power-cut simulator.

    Not a :class:`FaultInjector` (it sabotages files, not matchers).
    ``seed`` and ``fraction`` pick the tear point: a write of N bytes is
    cut at ``offset = max(1, floor(u * N))`` with ``u`` drawn from the
    seeded stream, so every (seed, payload-size) pair tears at the same
    byte forever — the property that makes a crash-matrix suite
    reproducible.  ``offset`` pins the tear point exactly, overriding
    the stream.
    """

    def __init__(
        self,
        seed: int = 0,
        fraction: float | None = None,
        offset: int | None = None,
    ) -> None:
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if offset is not None and offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self.seed = seed
        self.fraction = fraction
        self.offset = offset
        self._rng = ensure_rng(seed)

    def tear_offset(self, nbytes: int) -> int:
        """The byte offset this injector tears a write of ``nbytes`` at."""
        if self.offset is not None:
            return min(self.offset, nbytes)
        u = self.fraction if self.fraction is not None else float(self._rng.random())
        return min(nbytes, max(1, int(u * nbytes))) if nbytes else 0

    def torn_write(self, path: Path | str, payload: bytes) -> int:
        """Write only the pre-tear prefix of ``payload`` to ``path``.

        What an in-place (non-atomic) write interrupted by a crash leaves
        behind.  Returns the number of bytes that made it to disk.
        """
        offset = self.tear_offset(len(payload))
        Path(path).write_bytes(payload[:offset])
        return offset

    def tear_file(self, path: Path | str) -> int:
        """Truncate an existing file at the injector's tear point.

        The retroactive form: let the real (atomic) writer finish, then
        simulate the crash by cutting the *visible* file — how the suite
        tears artifacts whose writers no longer expose a torn window.
        Returns the new size.
        """
        path = Path(path)
        offset = self.tear_offset(path.stat().st_size)
        with path.open("r+b") as handle:
            handle.truncate(offset)
        return offset

    def __repr__(self) -> str:
        return (
            f"TornWriteInjector(seed={self.seed}, fraction={self.fraction}, "
            f"offset={self.offset})"
        )


def default_injectors(stall_seconds: float = 0.2) -> list[FaultInjector]:
    """One instance of every injector — the chaos sweep's fault axis."""
    return [
        EmbeddingCorruptor(),
        KernelStall(seconds=stall_seconds),
        ForcedConvergenceFailure(),
        AllocationFailure(),
    ]


def faulty_factory(
    faults: Mapping[str, FaultInjector | Iterable[FaultInjector]],
    base: Callable[..., Matcher] | None = None,
) -> Callable[..., Matcher]:
    """A ``create_matcher``-compatible factory with faults pre-installed.

    ``faults`` maps matcher names to the injector(s) to install on each
    instance created under that name; unlisted matchers are built clean.
    Pass the result to ``run_experiment(matcher_factory=...)`` to drive
    a sweep with exactly one (or several) sabotaged matchers.
    """
    base = base or create_matcher

    def factory(name: str, **kwargs: object) -> Matcher:
        matcher = base(name, **kwargs)
        selected = faults.get(name, ())
        if isinstance(selected, FaultInjector):
            selected = (selected,)
        for injector in selected:
            injector.install(matcher)
        return matcher

    return factory
