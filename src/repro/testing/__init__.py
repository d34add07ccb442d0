"""Deterministic fault-injection harness for chaos-testing the runtime.

Everything here lives outside the production import graph: neither the
supervisor nor the experiment runner imports :mod:`repro.testing`, so
the clean path pays zero import cost.  Chaos suites plug injectors in
from the outside via ``run_experiment(matcher_factory=...)``; the
sparse-path tests wrap matchers in
:func:`~repro.testing.allocations.forbid_allocations`.
"""

from repro.testing.allocations import DenseAllocationError, forbid_allocations
from repro.testing.faults import (
    AllocationFailure,
    EmbeddingCorruptor,
    FaultInjector,
    ForcedConvergenceFailure,
    KernelStall,
    TornWriteInjector,
    corrupt_embeddings,
    default_injectors,
    faulty_factory,
)

__all__ = [
    "AllocationFailure",
    "DenseAllocationError",
    "forbid_allocations",
    "EmbeddingCorruptor",
    "FaultInjector",
    "ForcedConvergenceFailure",
    "KernelStall",
    "TornWriteInjector",
    "corrupt_embeddings",
    "default_injectors",
    "faulty_factory",
]
