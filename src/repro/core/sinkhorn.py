"""Sinkhorn-operation matching (paper Algorithm 6).

The Sinkhorn operation turns the similarity matrix into an approximately
doubly-stochastic matrix by alternating row and column normalisation of
``exp(S / temperature)`` (Equation 3).  As the iteration count ``l``
grows, the result approaches the solution of entropy-regularised optimal
transport — i.e. a soft 1-to-1 assignment — so greedy decoding on the
Sinkhorn matrix implicitly enforces the 1-to-1 constraint *progressively*
(the paper's Figure 7: F1 rises with ``l`` and saturates around 100).

``temperature`` is the entropic-regularisation strength: smaller values
sharpen the operation towards the exact assignment (Hungarian) at the
cost of needing more iterations to converge.  Below roughly 1e-300 the
kernel ``S / temperature`` overflows to infinity before the log-space
normalisation can stabilise it; the iteration then degenerates to NaN.
That failure is *retryable at a higher temperature* — the supervised
runtime (:mod:`repro.runtime.supervisor`) catches the resulting
:class:`~repro.errors.ConvergenceError` and re-runs with the
temperature multiplied by its policy's ``temperature_factor``.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import PipelineMatcher
from repro.core.greedy import greedy_match
from repro.errors import ConvergenceError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_score_matrix

_EPS = 1e-12


def sinkhorn_scores(
    scores: np.ndarray, iterations: int = 100, temperature: float = 0.02
) -> np.ndarray:
    """Apply ``iterations`` rounds of Sinkhorn normalisation to ``scores``.

    Computed in log space for numerical stability (direct exponentiation
    of ``S / temperature`` overflows for small temperatures).
    """
    scores = check_score_matrix(scores)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    # Overflow here is handled by the guard below, not by numpy warnings.
    with np.errstate(over="ignore"):
        log_kernel = scores / temperature
    _check_converged(log_kernel, temperature, iteration=0)
    # Every sweep normalises in place, with one work buffer for the
    # shifted and exponentiated kernel.
    work = np.empty_like(log_kernel)
    for iteration in range(1, iterations + 1):
        with obs_trace.span("sinkhorn.iter", k=iteration):
            log_kernel -= _logsumexp(log_kernel, axis=1, work=work)  # rows
            log_kernel -= _logsumexp(log_kernel, axis=0, work=work)  # cols
            _check_converged(log_kernel, temperature, iteration)
    obs_metrics.get_metrics().inc("sinkhorn.iterations", iterations)
    return np.exp(log_kernel, out=log_kernel)


def _check_converged(log_kernel: np.ndarray, temperature: float, iteration: int) -> None:
    """Post-iteration guard: diverged kernels raise instead of flowing on.

    Without this, an overflow at small temperature (``S / temperature``
    -> inf -> NaN under normalisation) silently feeds NaNs into the
    greedy decoder, whose argmax then emits arbitrary pairs.  The typed
    :class:`~repro.errors.ConvergenceError` carries the temperature and
    iteration so the supervisor can retry at a softer temperature.
    """
    if np.all(np.isfinite(log_kernel)):
        return
    obs_metrics.get_metrics().inc("sinkhorn.divergences")
    obs_trace.event("sinkhorn.diverged", temperature=temperature, iteration=iteration)
    raise ConvergenceError(
        "Sinkhorn kernel diverged to non-finite values at iteration "
        f"{iteration} (temperature={temperature:g}); retry at a higher temperature",
        temperature=temperature,
        iteration=iteration,
    )


def _logsumexp(matrix: np.ndarray, axis: int, work: np.ndarray) -> np.ndarray:
    """Log-sum-exp of ``matrix`` along ``axis`` (dimension kept), using
    ``work`` (same shape) as scratch space."""
    peak = matrix.max(axis=axis, keepdims=True)
    np.subtract(matrix, peak, out=work)
    np.exp(work, out=work)
    return peak + np.log(np.maximum(work.sum(axis=axis, keepdims=True), _EPS))


class Sinkhorn(PipelineMatcher):
    """Sinkhorn score transformation + greedy decoding.

    Time O(l n^2); space O(n^2) but with a high constant (the kernel is
    rewritten every iteration), matching the paper's observation that
    Sink. is among the slowest methods on large inputs.
    """

    name = "Sink."

    def __init__(
        self, iterations: int = 100, temperature: float = 0.02, metric: str = "cosine"
    ) -> None:
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        super().__init__(metric=metric)
        self.iterations = iterations
        self.temperature = temperature

    def _transform(
        self, scores: np.ndarray, watch: Stopwatch, memory: MemoryTracker
    ) -> np.ndarray:
        # Working set: the log kernel plus the work buffer that every
        # normalisation sweep reuses.
        memory.allocate("kernel", 2 * scores.nbytes)
        result = sinkhorn_scores(scores, self.iterations, self.temperature)
        memory.release("kernel")
        memory.allocate_array("sinkhorn", result)
        return result

    def _decode(
        self, scores: np.ndarray, watch: Stopwatch, memory: MemoryTracker
    ) -> tuple[np.ndarray, np.ndarray]:
        return greedy_match(scores)
