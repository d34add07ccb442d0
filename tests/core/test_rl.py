"""Tests for the RL-based sequential matcher."""

import numpy as np
import pytest

from repro.core import rl as rl_module
from repro.core.rl import RLMatcher, _profile_similarities
from repro.similarity.engine import SimilarityEngine
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_score_matrix


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [{"top_k": 0}, {"episodes": -1}, {"exclusion_strength": -1.0}],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            RLMatcher(**kwargs)

    def test_default_theta_copied(self):
        a = RLMatcher()
        b = RLMatcher()
        a.theta[0] = 99.0
        assert b.theta[0] != 99.0


class TestInference:
    def test_perfect_on_diagonal(self, identity_scores):
        result = RLMatcher().match_scores(identity_scores)
        assert result.as_set() == {(i, i) for i in range(15)}

    def test_every_source_answered(self, random_scores):
        result = RLMatcher().match_scores(random_scores)
        assert sorted(result.pairs[:, 0].tolist()) == list(range(20))

    def test_exclusiveness_reduces_collisions(self, rng):
        latent = rng.normal(size=(30, 8))
        source = latent + 0.4 * rng.normal(size=latent.shape)
        target = latent + 0.4 * rng.normal(size=latent.shape)
        from repro.core.greedy import DInf

        greedy_targets = DInf().match(source, target).pairs[:, 1]
        rl_targets = RLMatcher(confident_margin=10.0).match(source, target).pairs[:, 1]
        assert len(np.unique(rl_targets)) >= len(np.unique(greedy_targets))

    def test_prefilter_keeps_decisive_mutual_pairs(self):
        matcher = RLMatcher(confident_margin=0.2)
        scores = np.array([
            [0.9, 0.1, 0.1],
            [0.1, 0.8, 0.1],
            [0.1, 0.1, 0.5],
        ])
        confident = matcher._confident_pairs(scores)
        assert (0, 0) in {tuple(p) for p in confident}
        assert (1, 1) in {tuple(p) for p in confident}

    def test_prefilter_rejects_indecisive(self):
        matcher = RLMatcher(confident_margin=0.2)
        scores = np.array([[0.5, 0.45], [0.45, 0.5]])
        assert len(matcher._confident_pairs(scores)) == 0

    def test_memory_declares_profile_matrices(self, rng):
        result = RLMatcher().match(rng.normal(size=(20, 8)), rng.normal(size=(25, 8)))
        assert result.peak_bytes >= 20 * 25 * 8 + (20 * 20 + 25 * 25) * 4


class TestFit:
    def test_fit_returns_self(self, rng):
        source = rng.normal(size=(40, 8))
        target = rng.normal(size=(40, 8))
        seeds = np.stack([np.arange(10), np.arange(10)], axis=1)
        matcher = RLMatcher(episodes=3)
        assert matcher.fit(source, target, seeds) is matcher
        assert len(matcher.reward_history) == 3

    def test_fit_requires_pairs(self, rng):
        with pytest.raises(ValueError, match="seed pair"):
            RLMatcher().fit(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)),
                            np.empty((0, 2)))

    def test_reward_improves_on_learnable_task(self, rng):
        latent = rng.normal(size=(60, 16))
        source = latent + 0.2 * rng.normal(size=latent.shape)
        target = latent + 0.2 * rng.normal(size=latent.shape)
        seeds = np.stack([np.arange(60), np.arange(60)], axis=1)
        matcher = RLMatcher(episodes=15, seed=0)
        matcher.fit(source, target, seeds)
        first = np.mean(matcher.reward_history[:3])
        last = np.mean(matcher.reward_history[-3:])
        assert last >= first - 0.05

    def test_fit_then_match_at_least_greedy_quality(self, medium_task):
        from repro.core.greedy import DInf
        from repro.embedding.oracle import OracleConfig, OracleEncoder
        from repro.eval.metrics import evaluate_pairs

        emb = OracleEncoder(
            OracleConfig(noise=0.45, cluster_size=8, cluster_spread=0.25, seed=4)
        ).encode(medium_task)
        pairs = medium_task.test_index_pairs()
        src, tgt = emb.source[pairs[:, 0]], emb.target[pairs[:, 1]]
        gold = [(i, i) for i in range(len(pairs))]
        matcher = RLMatcher(seed=0)
        matcher.fit(emb.source, emb.target, medium_task.seed_index_pairs())
        rl_f1 = evaluate_pairs(matcher.match(src, tgt).pairs, gold).f1
        dinf_f1 = evaluate_pairs(DInf().match(src, tgt).pairs, gold).f1
        assert rl_f1 >= dinf_f1 - 0.03


# ----------------------------------------------------------------------
# Bitwise oracle: the per-step feature loop
# ----------------------------------------------------------------------


def _legacy_candidate_features(
    matcher, scores, src, used, matched_sources, matched_targets,
    relatedness, target_affinity,
):
    """Top-k candidates of ``src`` and all three policy features, all
    recomputed at every decision step."""
    row = scores[src]
    k = min(matcher.top_k, scores.shape[1])
    candidates = np.argpartition(row, scores.shape[1] - k)[-k:]
    affinity = row[candidates]
    spread = affinity.std()
    if spread > 1e-12:
        affinity = (affinity - affinity.mean()) / spread
    else:
        affinity = np.zeros_like(affinity)
    margin = affinity - affinity.max()
    taken = used[candidates].astype(np.float64)
    coherence = np.zeros(len(candidates))
    if matched_sources:
        related = relatedness[src, matched_sources]
        strong = related > matcher.relatedness_threshold
        if strong.any():
            weights = related[strong]
            partner_targets = np.asarray(matched_targets, dtype=np.int64)[strong]
            coherence = weights @ target_affinity[np.ix_(partner_targets, candidates)]
            coherence /= weights.sum()
    features = np.stack([affinity, margin, coherence], axis=1)
    return candidates, features, taken


class LegacyRL(RLMatcher):
    """``RLMatcher`` with the per-step feature loop: the oracle that the
    static/dynamic feature split must reproduce bit for bit."""

    def fit(self, source, target, seed_pairs):
        seed_pairs = np.asarray(seed_pairs, dtype=np.int64).reshape(-1, 2)
        rng = ensure_rng(self.seed)
        scores = self._similarity(source[seed_pairs[:, 0]], target[seed_pairs[:, 1]])
        gold = np.arange(len(seed_pairs))
        relatedness, target_affinity = _profile_similarities(scores)
        self.reward_history = []
        baseline = 0.0
        for _ in range(self.episodes):
            order = rng.permutation(len(gold))
            grad = np.zeros(3)
            total_reward = 0.0
            used = np.zeros(scores.shape[1], dtype=bool)
            matched_sources, matched_targets = [], []
            for src in order:
                candidates, features, taken = _legacy_candidate_features(
                    self, scores, src, used, matched_sources, matched_targets,
                    relatedness, target_affinity,
                )
                logits = features @ self.theta - self.exclusion_strength * taken
                logits -= logits.max()
                probs = np.exp(logits)
                probs /= probs.sum()
                choice = rng.choice(len(candidates), p=probs)
                picked = candidates[choice]
                reward = 1.0 if picked == gold[src] else 0.0
                total_reward += reward
                grad += (reward - baseline) * (features[choice] - probs @ features)
                used[picked] = True
                matched_sources.append(int(src))
                matched_targets.append(int(picked))
            mean_reward = total_reward / len(gold)
            self.reward_history.append(mean_reward)
            baseline = 0.9 * baseline + 0.1 * mean_reward
            self.theta += self.learning_rate * grad / len(gold)
        return self

    def _decode(self, scores, watch, memory):
        scores = check_score_matrix(scores)
        n_source, n_target = scores.shape
        relatedness, target_affinity = _profile_similarities(scores)
        used = np.zeros(n_target, dtype=bool)
        assigned = np.full(n_source, -1, dtype=np.int64)
        confident = self._confident_pairs(scores)
        for src, tgt in confident:
            assigned[src] = tgt
            used[tgt] = True
        matched_sources = [int(s) for s, _ in confident]
        matched_targets = [int(t) for _, t in confident]
        remaining = np.flatnonzero(assigned < 0)
        remaining = remaining[np.argsort(-scores[remaining].max(axis=1), kind="stable")]
        for src in remaining:
            candidates, features, taken = _legacy_candidate_features(
                self, scores, int(src), used, matched_sources, matched_targets,
                relatedness, target_affinity,
            )
            logits = features @ self.theta - self.exclusion_strength * taken
            picked = candidates[int(np.argmax(logits))]
            assigned[src] = picked
            used[picked] = True
            matched_sources.append(int(src))
            matched_targets.append(int(picked))
        rows = np.arange(n_source)
        return np.stack([rows, assigned], axis=1), scores[rows, assigned]


def _clustered_problem(seed, n_seed, n_source, n_target, dim=8, clusters=4,
                       noise=0.35, zero_rows=0):
    """Full embeddings with clustered latents (so related sources exist
    and coherence fires), seed links ``(i, i)``, and test slices."""
    rng = np.random.default_rng(seed)
    n = n_seed + max(n_source, n_target)
    centres = 2.0 * rng.normal(size=(clusters, dim))
    latent = centres[rng.integers(clusters, size=n)] + 0.6 * rng.normal(size=(n, dim))
    full_source = latent + noise * rng.normal(size=latent.shape)
    full_target = latent + noise * rng.normal(size=latent.shape)
    # All-zero rows score 0 against every target: rows without spread.
    full_source[n_seed - zero_rows:n_seed] = 0.0
    full_source[n - zero_rows:] = 0.0
    seeds = np.stack([np.arange(n_seed), np.arange(n_seed)], axis=1)
    test_source = full_source[n_seed:n_seed + n_source]
    test_target = full_target[n_seed:n_seed + n_target]
    return full_source, full_target, seeds, test_source, test_target


ORACLE_CASES = {
    "square": ({}, dict(n_seed=40, n_source=30, n_target=30)),
    "wide": ({}, dict(n_seed=35, n_source=20, n_target=33)),
    "tall": ({}, dict(n_seed=30, n_source=36, n_target=14)),
    "top-k-1": ({"top_k": 1}, dict(n_seed=25, n_source=20, n_target=24)),
    "top-k-at-n": ({"top_k": 24}, dict(n_seed=24, n_source=20, n_target=24)),
    "top-k-above-n": ({"top_k": 50}, dict(n_seed=18, n_source=22, n_target=17)),
    "constant-rows": ({}, dict(n_seed=30, n_source=25, n_target=25, zero_rows=4)),
    "no-episodes": ({"episodes": 0}, dict(n_seed=20, n_source=25, n_target=25)),
    "no-exclusion": ({"exclusion_strength": 0.0}, dict(n_seed=30, n_source=25, n_target=25)),
    "none-confident": ({"confident_margin": 10.0}, dict(n_seed=30, n_source=25, n_target=25)),
    "low-relatedness-bar": (
        {"relatedness_threshold": -1.0}, dict(n_seed=30, n_source=25, n_target=25),
    ),
}


def _fit_and_match(cls, kwargs, dtype, problem):
    full_source, full_target, seeds, test_source, test_target = problem
    matcher = cls(seed=11, **kwargs)
    matcher.engine = SimilarityEngine(dtype=dtype)
    matcher.fit(full_source, full_target, seeds)
    return matcher, matcher.match(test_source, test_target)


def _assert_bitwise(new, new_result, old, old_result):
    assert new.theta.tobytes() == old.theta.tobytes()
    assert new.reward_history == old.reward_history
    np.testing.assert_array_equal(new_result.pairs, old_result.pairs)
    assert new_result.scores.tobytes() == old_result.scores.tobytes()


class TestStaticFeatureOracle:
    """The static/dynamic feature split is bitwise the per-step loop."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_fit_and_match_bitwise(self, case, dtype):
        kwargs, shape = ORACLE_CASES[case]
        problem = _clustered_problem(seed=len(case), **shape)
        new, new_result = _fit_and_match(RLMatcher, kwargs, dtype, problem)
        old, old_result = _fit_and_match(LegacyRL, kwargs, dtype, problem)
        _assert_bitwise(new, new_result, old, old_result)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_row_confident_bitwise(self, dtype):
        # Orthogonal embeddings: cosine scores are the identity, so every
        # test row is a decisive mutual nearest neighbour.
        eye = np.eye(12)
        problem = (eye, eye, np.stack([np.arange(12)] * 2, axis=1), eye, eye)
        new, new_result = _fit_and_match(RLMatcher, {}, dtype, problem)
        old, old_result = _fit_and_match(LegacyRL, {}, dtype, problem)
        _assert_bitwise(new, new_result, old, old_result)
        assert new_result.as_set() == {(i, i) for i in range(12)}

    @pytest.mark.parametrize("case", ["constant-rows", "tall", "none-confident"])
    def test_precomputed_scores_bitwise(self, case, rng):
        kwargs, shape = ORACLE_CASES[case]
        scores = rng.random((shape["n_source"], shape["n_target"]))
        scores[::5] = 0.25  # constant rows
        new = RLMatcher(**kwargs).match_scores(scores)
        old = LegacyRL(**kwargs).match_scores(scores)
        np.testing.assert_array_equal(new.pairs, old.pairs)
        assert new.scores.tobytes() == old.scores.tobytes()

    def test_oracle_cases_exercise_coherence(self, monkeypatch):
        """The shared problems reach the coherence branch, so the oracle
        checks the dynamic feature, not just the static ones."""
        calls = []
        coherence = RLMatcher._coherence

        def counting(self, *args):
            value = coherence(self, *args)
            calls.append(not np.isscalar(value))
            return value

        monkeypatch.setattr(RLMatcher, "_coherence", counting)
        kwargs, shape = ORACLE_CASES["square"]
        _fit_and_match(RLMatcher, kwargs, "float64", _clustered_problem(seed=6, **shape))
        assert any(calls)


class TestPrefilterShrinksSequentialPhase:
    """Prefiltered rows build no per-row features: the structural form of
    the ablation's claim that prefiltering shrinks the sequential phase."""

    def _count_feature_rows(self, monkeypatch, matcher, scores):
        built, coherence_calls = [], []
        static = rl_module._static_features
        coherence = RLMatcher._coherence

        def recording_static(scores, rows, k):
            built.append(len(rows))
            return static(scores, rows, k)

        def recording_coherence(self, *args):
            coherence_calls.append(1)
            return coherence(self, *args)

        monkeypatch.setattr(rl_module, "_static_features", recording_static)
        monkeypatch.setattr(RLMatcher, "_coherence", recording_coherence)
        result = matcher.match_scores(scores)
        return result, built, len(coherence_calls)

    def test_all_confident_builds_no_features(self, monkeypatch, identity_scores):
        result, built, coherence_calls = self._count_feature_rows(
            monkeypatch, RLMatcher(), identity_scores
        )
        assert built == [0]
        assert coherence_calls == 0
        assert result.as_set() == {(i, i) for i in range(15)}

    def test_no_prefilter_builds_every_row(self, monkeypatch, identity_scores):
        _, built, coherence_calls = self._count_feature_rows(
            monkeypatch, RLMatcher(confident_margin=10.0), identity_scores
        )
        assert built == [15]
        assert coherence_calls == 15
