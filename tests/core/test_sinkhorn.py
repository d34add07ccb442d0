"""Tests for the Sinkhorn matcher."""

import numpy as np
import pytest

from repro.core.sinkhorn import Sinkhorn, sinkhorn_scores


class TestSinkhornScores:
    def test_zero_iterations_is_softmax_kernel(self, random_scores):
        out = sinkhorn_scores(random_scores, iterations=0, temperature=1.0)
        np.testing.assert_allclose(out, np.exp(random_scores))

    def test_rows_sum_to_one_after_row_pass(self, random_scores):
        # After full iterations the matrix is close to doubly stochastic.
        out = sinkhorn_scores(random_scores, iterations=50, temperature=0.1)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)

    def test_approaches_doubly_stochastic(self, random_scores):
        out = sinkhorn_scores(random_scores, iterations=100, temperature=0.1)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-3)

    def test_nonnegative(self, random_scores):
        out = sinkhorn_scores(random_scores, iterations=10, temperature=0.05)
        assert out.min() >= 0.0

    def test_low_temperature_sharpens_towards_assignment(self, identity_scores):
        out = sinkhorn_scores(identity_scores, iterations=100, temperature=0.01)
        np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-2)

    def test_numerically_stable_at_tiny_temperature(self, random_scores):
        out = sinkhorn_scores(random_scores, iterations=20, temperature=1e-3)
        assert np.all(np.isfinite(out))

    def test_invalid_params(self, random_scores):
        with pytest.raises(ValueError, match="iterations"):
            sinkhorn_scores(random_scores, iterations=-1)
        with pytest.raises(ValueError, match="temperature"):
            sinkhorn_scores(random_scores, temperature=0.0)


class TestSinkhornMatcher:
    def test_perfect_on_diagonal(self, identity_scores):
        result = Sinkhorn().match_scores(identity_scores)
        assert result.as_set() == {(i, i) for i in range(15)}

    def test_more_iterations_not_worse(self, medium_task, oracle_embeddings):
        from repro.eval.metrics import evaluate_pairs

        pairs = medium_task.test_index_pairs()
        src = oracle_embeddings.source[pairs[:, 0]]
        tgt = oracle_embeddings.target[pairs[:, 1]]
        gold = [(i, i) for i in range(len(pairs))]
        f1_low = evaluate_pairs(Sinkhorn(iterations=1).match(src, tgt).pairs, gold).f1
        f1_high = evaluate_pairs(Sinkhorn(iterations=100).match(src, tgt).pairs, gold).f1
        assert f1_high >= f1_low - 0.02

    def test_approaches_hungarian_quality(self, medium_task):
        from repro.core.hungarian import Hungarian
        from repro.embedding.oracle import OracleConfig, OracleEncoder
        from repro.eval.metrics import evaluate_pairs

        emb = OracleEncoder(
            OracleConfig(noise=0.45, cluster_size=8, cluster_spread=0.25, seed=2)
        ).encode(medium_task)
        pairs = medium_task.test_index_pairs()
        src, tgt = emb.source[pairs[:, 0]], emb.target[pairs[:, 1]]
        gold = [(i, i) for i in range(len(pairs))]
        sink = evaluate_pairs(Sinkhorn().match(src, tgt).pairs, gold).f1
        hun = evaluate_pairs(Hungarian().match(src, tgt).pairs, gold).f1
        assert abs(sink - hun) < 0.1

    def test_implicit_one_to_one(self, rng):
        # With enough iterations, the greedy decode over the Sinkhorn
        # matrix yields (nearly) collision-free assignments.
        latent = rng.normal(size=(30, 8))
        source = latent + 0.3 * rng.normal(size=latent.shape)
        target = latent + 0.3 * rng.normal(size=latent.shape)
        result = Sinkhorn(iterations=200).match(source, target)
        targets = result.pairs[:, 1]
        assert len(np.unique(targets)) >= 28

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            Sinkhorn(iterations=-5)
        with pytest.raises(ValueError):
            Sinkhorn(temperature=-1.0)


class TestDivergenceGuard:
    def test_denormal_temperature_raises_typed_error(self):
        from repro.errors import ConvergenceError

        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        # 1e-320 is denormal: S / temperature overflows before the
        # log-space normalisation can stabilise it.
        with pytest.raises(ConvergenceError) as excinfo:
            sinkhorn_scores(scores, iterations=5, temperature=1e-320)
        assert excinfo.value.temperature == pytest.approx(1e-320)
        assert excinfo.value.iteration == 0
        assert "temperature" in str(excinfo.value)

    def test_error_names_iteration_and_temperature(self):
        from repro.errors import ConvergenceError

        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConvergenceError, match="iteration 0"):
            sinkhorn_scores(scores, iterations=3, temperature=5e-310)

    def test_matcher_surfaces_convergence_error(self):
        from repro.errors import ConvergenceError

        rng = np.random.default_rng(0)
        source = rng.normal(size=(4, 3))
        with pytest.raises(ConvergenceError):
            Sinkhorn(iterations=2, temperature=1e-320).match(source, source)

    def test_healthy_temperatures_unaffected(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = sinkhorn_scores(scores, iterations=50, temperature=0.02)
        assert np.all(np.isfinite(out))


def _legacy_sinkhorn_scores(scores, iterations, temperature):
    """The allocate-per-sweep log-domain loop: three new arrays a sweep."""

    def logsumexp(matrix, axis):
        peak = matrix.max(axis=axis, keepdims=True)
        return peak + np.log(
            np.maximum(np.exp(matrix - peak).sum(axis=axis, keepdims=True), 1e-12)
        )

    log_kernel = np.asarray(scores, dtype=np.float64) / temperature
    for _ in range(iterations):
        log_kernel = log_kernel - logsumexp(log_kernel, axis=1)
        log_kernel = log_kernel - logsumexp(log_kernel, axis=0)
    return np.exp(log_kernel)


class TestInPlaceNormalisation:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_caller_scores_unmodified(self, dtype, rng):
        scores = rng.random((17, 23)).astype(dtype)
        before = scores.copy()
        out = sinkhorn_scores(scores, iterations=10, temperature=0.05)
        assert scores.dtype == dtype
        assert scores.tobytes() == before.tobytes()
        assert not np.shares_memory(out, scores)

    @pytest.mark.parametrize(
        "shape, iterations, temperature",
        [
            ((20, 20), 0, 0.02),
            ((20, 20), 1, 0.02),
            ((31, 19), 7, 0.1),
            ((19, 31), 100, 0.02),
            ((40, 40), 100, 0.005),
            ((1, 9), 5, 0.02),
            ((9, 1), 5, 0.02),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equals_allocating_loop(self, shape, iterations, temperature, dtype):
        scores = np.random.default_rng(sum(shape) + iterations).normal(size=shape)
        scores = scores.astype(dtype)
        out = sinkhorn_scores(scores, iterations=iterations, temperature=temperature)
        expected = _legacy_sinkhorn_scores(scores, iterations, temperature)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
