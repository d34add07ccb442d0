"""Tests for the deterministic fault-injection harness."""

import numpy as np
import pytest

from repro.core.greedy import DInf
from repro.core.sinkhorn import Sinkhorn
from repro.errors import ConvergenceError, DataIntegrityError
from repro.testing.faults import (
    AllocationFailure,
    EmbeddingCorruptor,
    ForcedConvergenceFailure,
    KernelStall,
    TornWriteInjector,
    corrupt_embeddings,
    default_injectors,
    faulty_factory,
)


def _embeddings(n=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


class TestCorruptEmbeddings:
    def test_deterministic_under_seed(self):
        array = np.ones((10, 8))
        a = corrupt_embeddings(array, fraction=0.1, seed=3)
        b = corrupt_embeddings(array, fraction=0.1, seed=3)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        assert np.isnan(a).sum() == 8  # round(0.1 * 80)

    def test_different_seed_different_positions(self):
        array = np.ones((10, 8))
        a = corrupt_embeddings(array, fraction=0.1, seed=3)
        b = corrupt_embeddings(array, fraction=0.1, seed=4)
        assert not np.array_equal(np.isnan(a), np.isnan(b))

    def test_original_untouched(self):
        array = np.ones((4, 4))
        corrupt_embeddings(array, fraction=0.5, seed=0)
        assert np.isfinite(array).all()

    def test_at_least_one_entry_on_tiny_inputs(self):
        corrupted = corrupt_embeddings(np.ones((2, 2)), fraction=0.001, seed=0)
        assert np.isnan(corrupted).sum() == 1

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            corrupt_embeddings(np.ones((2, 2)), fraction=1.5)


class TestInjectors:
    def test_corruptor_triggers_integrity_error(self):
        source, target = _embeddings()
        matcher = EmbeddingCorruptor(fraction=0.1, seed=0).install(DInf())
        with pytest.raises(DataIntegrityError, match="non-finite"):
            matcher.match(source, target)

    def test_stall_delays_then_succeeds(self):
        import time

        source, target = _embeddings()
        matcher = KernelStall(seconds=0.05).install(DInf())
        start = time.perf_counter()
        result = matcher.match(source, target)
        assert time.perf_counter() - start >= 0.05
        assert len(result.pairs) == len(source)

    def test_forced_convergence_counts_calls(self):
        source, target = _embeddings()
        matcher = ForcedConvergenceFailure(failures=2).install(DInf())
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="injected"):
                matcher.match(source, target)
        assert len(matcher.match(source, target).pairs) == len(source)

    def test_forced_convergence_clears_at_min_temperature(self):
        source, target = _embeddings()
        matcher = Sinkhorn(iterations=3, temperature=0.01)
        ForcedConvergenceFailure(min_temperature=0.05).install(matcher)
        with pytest.raises(ConvergenceError):
            matcher.match(source, target)
        matcher.temperature = 0.1  # what the supervisor's softening does
        assert len(matcher.match(source, target).pairs) == len(source)

    def test_allocation_failure_raises_memoryerror(self):
        source, target = _embeddings()
        matcher = AllocationFailure(nbytes=123).install(DInf())
        with pytest.raises(MemoryError, match="123"):
            matcher.match(source, target)

    def test_per_install_state_is_independent(self):
        # One injector instance drives two matchers without cross-talk.
        source, target = _embeddings()
        injector = ForcedConvergenceFailure(failures=1)
        first, second = injector.install(DInf()), injector.install(DInf())
        with pytest.raises(ConvergenceError):
            first.match(source, target)
        with pytest.raises(ConvergenceError):
            second.match(source, target)
        assert len(first.match(source, target).pairs) == len(source)

    def test_default_injectors_cover_all_modes(self):
        names = {type(i).__name__ for i in default_injectors()}
        assert names == {
            "EmbeddingCorruptor",
            "KernelStall",
            "ForcedConvergenceFailure",
            "AllocationFailure",
        }


class TestFaultyFactory:
    def test_only_listed_matchers_are_sabotaged(self):
        source, target = _embeddings()
        factory = faulty_factory({"Hun.": AllocationFailure()})
        with pytest.raises(MemoryError):
            factory("Hun.").match(source, target)
        clean = factory("DInf", metric="cosine")
        assert len(clean.match(source, target).pairs) == len(source)

    def test_multiple_injectors_compose(self):
        source, target = _embeddings()
        factory = faulty_factory(
            {"DInf": (ForcedConvergenceFailure(failures=1), KernelStall(seconds=0.01))}
        )
        matcher = factory("DInf")
        with pytest.raises(ConvergenceError):
            matcher.match(source, target)
        assert len(matcher.match(source, target).pairs) == len(source)

    def test_kwargs_forwarded_to_base_factory(self):
        factory = faulty_factory({})
        sink = factory("Sink.", iterations=7)
        assert sink.iterations == 7

    def test_engine_attachment_survives_injection(self):
        # run_experiment sets matcher.engine after factory creation; the
        # injected wrapper must not break that path.
        from repro.similarity.engine import SimilarityEngine

        source, target = _embeddings()
        factory = faulty_factory({"DInf": KernelStall(seconds=0.01)})
        matcher = factory("DInf")
        with SimilarityEngine() as engine:
            matcher.engine = engine
            result = matcher.match(source, target)
            assert len(result.pairs) == len(source)
            assert engine.stats.misses == 1  # S went through the engine


class TestTornWriteInjector:
    def test_same_seed_same_tear_offsets(self):
        a = [TornWriteInjector(seed=5).tear_offset(n) for n in (10, 100, 1000)]
        b = [TornWriteInjector(seed=5).tear_offset(n) for n in (10, 100, 1000)]
        assert a == b
        assert all(1 <= offset <= n for offset, n in zip(a, (10, 100, 1000)))

    def test_fraction_and_offset_overrides(self):
        assert TornWriteInjector(fraction=0.5).tear_offset(100) == 50
        assert TornWriteInjector(offset=7).tear_offset(100) == 7
        assert TornWriteInjector(offset=7).tear_offset(3) == 3  # clamped

    def test_zero_byte_write_tears_nowhere(self):
        assert TornWriteInjector(seed=0).tear_offset(0) == 0

    def test_torn_write_leaves_only_the_prefix(self, tmp_path):
        path = tmp_path / "artifact.bin"
        payload = bytes(range(100))
        offset = TornWriteInjector(fraction=0.25).torn_write(path, payload)
        assert offset == 25
        assert path.read_bytes() == payload[:25]

    def test_tear_file_truncates_in_place(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(bytes(range(80)))
        size = TornWriteInjector(fraction=0.5).tear_file(path)
        assert size == 40
        assert path.read_bytes() == bytes(range(40))

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            TornWriteInjector(fraction=1.5)
        with pytest.raises(ValueError, match="offset"):
            TornWriteInjector(offset=-1)

