"""Structured error taxonomy for the matching runtime.

Large benchmark campaigns (the paper's Tables 5-8 sweep seven matchers
across dataset families and regimes) live or die by run-management
hygiene: one diverging Sinkhorn run or an O(n^3) Hungarian blow-up must
not abort hours of accumulated results.  The exceptions here give every
failure mode a *type* the :class:`~repro.runtime.supervisor.RunSupervisor`
can dispatch on — retry, degrade, or record — and carry the matcher name
plus run context so a failure ledger entry is debuggable on its own.

Design notes:

* :class:`DataIntegrityError` is also a :class:`ValueError` so existing
  boundary-validation callers (``pytest.raises(ValueError)``) keep
  working; the richer type is additive.
* ``retryable`` is a class-level property of the failure mode, not of
  the particular instance: a :class:`ConvergenceError` can be retried
  under different numerics (e.g. Sinkhorn at a higher temperature), a
  deadline or budget breach cannot — repeating the same work yields the
  same breach, so those degrade instead.
"""

from __future__ import annotations

from typing import Any, Mapping


class MatcherError(Exception):
    """Base class for failures of one supervised matcher run.

    ``matcher`` names the algorithm that failed ("Hun.", "Sink.", ...);
    ``context`` carries whatever run coordinates the caller had (preset,
    regime, attempt number) for the failure ledger.  Both may be filled
    in after the fact via :meth:`annotate` — kernels deep in the stack
    rarely know which sweep cell they are serving.
    """

    #: Whether the supervisor may retry this failure mode.
    retryable: bool = False

    def __init__(
        self,
        message: str,
        *,
        matcher: str | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        self.matcher = matcher
        self.context: dict[str, Any] = dict(context or {})

    def annotate(
        self, matcher: str | None = None, **context: Any
    ) -> "MatcherError":
        """Attach matcher name / run coordinates in place; returns self."""
        if matcher is not None and self.matcher is None:
            self.matcher = matcher
        for key, value in context.items():
            self.context.setdefault(key, value)
        return self

    def __str__(self) -> str:  # noqa: D105 - ledger-friendly rendering
        base = super().__str__()
        if self.matcher is not None:
            return f"[{self.matcher}] {base}"
        return base


class ConvergenceError(MatcherError):
    """An iterative kernel produced non-finite values or failed to settle.

    Carries the ``temperature`` and ``iteration`` at which the iteration
    broke down (Sinkhorn overflow at small temperature is the canonical
    case).  Retryable: the supervisor re-runs under softened numerics —
    for matchers exposing a ``temperature`` attribute it multiplies the
    temperature by the policy's ``temperature_factor`` per attempt.
    """

    retryable = True

    def __init__(
        self,
        message: str,
        *,
        temperature: float | None = None,
        iteration: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(message, **kwargs)
        self.temperature = temperature
        self.iteration = iteration


class ResourceBudgetExceeded(MatcherError):
    """The run's declared working set exceeded the memory budget.

    Raised post-hoc from the analytical :class:`~repro.utils.memory.
    MemoryTracker` accounting (deterministic, unlike RSS) or when a
    simulated/real allocation failure surfaces as ``MemoryError``.
    """

    def __init__(
        self,
        message: str,
        *,
        peak_bytes: int | None = None,
        budget_bytes: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(message, **kwargs)
        self.peak_bytes = peak_bytes
        self.budget_bytes = budget_bytes


class DeadlineExceeded(MatcherError):
    """The run overran its wall-clock deadline and was abandoned."""

    def __init__(
        self,
        message: str,
        *,
        elapsed_seconds: float | None = None,
        deadline_seconds: float | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(message, **kwargs)
        self.elapsed_seconds = elapsed_seconds
        self.deadline_seconds = deadline_seconds


class DataIntegrityError(MatcherError, ValueError):
    """Input data failed an integrity check (NaNs, Infs, bad shapes).

    Doubles as a :class:`ValueError` so the library's boundary
    validators stay backward compatible.  ``bad_count`` and
    ``first_bad`` locate the corruption — the primary breadcrumb once
    fault injection starts producing NaNs on purpose.
    """

    def __init__(
        self,
        message: str,
        *,
        bad_count: int | None = None,
        first_bad: tuple[int, int] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(message, **kwargs)
        self.bad_count = bad_count
        self.first_bad = first_bad


def as_matcher_error(
    error: BaseException, matcher: str | None = None, **context: Any
) -> MatcherError:
    """Coerce an arbitrary exception into the taxonomy.

    Already-typed errors are annotated and returned as-is; a
    ``MemoryError`` becomes :class:`ResourceBudgetExceeded` (allocation
    failures are budget breaches as far as the supervisor is concerned);
    everything else is wrapped in a plain :class:`MatcherError` with the
    original as ``__cause__``.
    """
    if isinstance(error, MatcherError):
        return error.annotate(matcher, **context)
    if isinstance(error, MemoryError):
        wrapped: MatcherError = ResourceBudgetExceeded(
            f"allocation failed: {error}", matcher=matcher, context=context
        )
    else:
        wrapped = MatcherError(
            f"{type(error).__name__}: {error}", matcher=matcher, context=context
        )
    wrapped.__cause__ = error
    return wrapped
