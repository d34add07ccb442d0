"""RL-based embedding matching (paper Section 3.7, following Zeng et al.
TOIS 2021).

EA is cast as a sequence-decision problem: source entities are processed
one at a time and a learned policy picks each one's target from its
top-k candidates.  Candidate logits combine three learned feature
weights with one fixed constraint:

* **affinity** — the raw pairwise score (standardised per candidate set);
* **margin** — the gap to the source's best option (how decisive the
  raw scores are);
* **coherence** — agreement with earlier decisions of closely-related
  sources (related sources should pick related targets);
* **exclusiveness** (fixed penalty, not learned) — already-taken targets
  are discouraged but not forbidden: the paper's *relaxed* 1-to-1
  constraint, and the reason RL falls below DInf under non-1-to-1
  alignment (Table 8).

Relatedness is computed from score-profile correlations, which costs the
O(n^2) space the paper attributes to RL.  A pre-filtering step accepts
confident mutual-nearest-neighbour pairs outright and excludes them from
the sequential phase — the paper's explanation of why RL runs faster on
datasets with more accurate pairwise scores.

Weights are trained with REINFORCE on the seed pairs via :meth:`fit`;
without fitting, a sensible prior policy is used.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import PipelineMatcher
from repro.utils.memory import MemoryTracker
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_score_matrix

_NUM_FEATURES = 3
#: Prior policy weights over [affinity, margin, coherence]: trust the raw
#: scores, mildly reward coherence.
_DEFAULT_THETA = np.array([4.0, 2.0, 1.0])
#: Scores per row block of the static top-k partition.
_STATIC_BLOCK_ELEMS = 2**19


class RLMatcher(PipelineMatcher):
    """Sequential policy matcher with coherence/exclusiveness rewards."""

    name = "RL"

    def __init__(
        self,
        top_k: int = 10,
        episodes: int = 20,
        learning_rate: float = 0.5,
        confident_margin: float = 0.15,
        relatedness_threshold: float = 0.5,
        exclusion_strength: float = 6.0,
        metric: str = "cosine",
        seed: RandomState = None,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {episodes}")
        if exclusion_strength < 0:
            raise ValueError(
                f"exclusion_strength must be non-negative, got {exclusion_strength}"
            )
        super().__init__(metric=metric)
        self.top_k = top_k
        self.episodes = episodes
        self.learning_rate = learning_rate
        self.confident_margin = confident_margin
        self.relatedness_threshold = relatedness_threshold
        #: Fixed penalty applied to already-taken targets.  This is the
        #: paper's exclusiveness *constraint*: part of the environment,
        #: not a learnable preference — which is exactly why RL degrades
        #: under non-1-to-1 alignment (Table 8).
        self.exclusion_strength = exclusion_strength
        self.seed = seed
        self.theta = _DEFAULT_THETA.copy()
        #: Mean episode reward per training episode, filled by :meth:`fit`.
        self.reward_history: list[float] = []

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        source: np.ndarray,
        target: np.ndarray,
        seed_pairs: np.ndarray,
    ) -> "RLMatcher":
        """REINFORCE training of the policy weights on labelled pairs.

        ``source``/``target`` are full embedding matrices; ``seed_pairs``
        is an (n, 2) array of (source id, target id) gold training links.
        Episodes replay the sequential decision process over the seed
        sources (against the seed-target candidate pool) with reward 1
        for picking the gold target.
        """
        seed_pairs = np.asarray(seed_pairs, dtype=np.int64).reshape(-1, 2)
        if len(seed_pairs) == 0:
            raise ValueError("fit requires at least one seed pair")
        rng = ensure_rng(self.seed)
        scores = self._similarity(source[seed_pairs[:, 0]], target[seed_pairs[:, 1]])
        gold = np.arange(len(seed_pairs))  # row i's gold target is column i
        relatedness, target_affinity = _profile_similarities(scores)
        k = min(self.top_k, scores.shape[1])
        candidates, static = _static_features(scores, gold, k)  # every seed row
        features = np.empty((k, _NUM_FEATURES))
        matched_targets = np.empty(len(gold), dtype=np.int64)
        self.reward_history = []
        baseline = 0.0
        for _ in range(self.episodes):
            # Sources are decided in this order, so its prefix is the
            # list of already-matched sources.
            order = rng.permutation(len(gold))
            grad = np.zeros(_NUM_FEATURES)
            total_reward = 0.0
            used = np.zeros(scores.shape[1], dtype=bool)
            for count, src in enumerate(order):
                row_candidates = candidates[src]
                features[:, :2] = static[src]
                features[:, 2] = self._coherence(
                    src, row_candidates, order[:count], matched_targets[:count],
                    relatedness, target_affinity,
                )
                taken = used[row_candidates].astype(np.float64)
                logits = features @ self.theta - self.exclusion_strength * taken
                logits -= logits.max()
                probs = np.exp(logits)
                probs /= probs.sum()
                choice = rng.choice(k, p=probs)
                picked = row_candidates[choice]
                reward = 1.0 if picked == gold[src] else 0.0
                total_reward += reward
                # REINFORCE: (r - b) * d log pi / d theta
                grad += (reward - baseline) * (features[choice] - probs @ features)
                used[picked] = True
                matched_targets[count] = picked
            mean_reward = total_reward / len(gold)
            self.reward_history.append(mean_reward)
            baseline = 0.9 * baseline + 0.1 * mean_reward
            self.theta += self.learning_rate * grad / len(gold)
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _decode(
        self, scores: np.ndarray, watch: Stopwatch, memory: MemoryTracker
    ) -> tuple[np.ndarray, np.ndarray]:
        scores = check_score_matrix(scores)
        n_source, n_target = scores.shape
        # Profile-correlation matrices (float32): the O(n^2) working set of RL.
        memory.allocate("relatedness", n_source * n_source * 4 + n_target * n_target * 4)
        relatedness, target_affinity = _profile_similarities(scores)

        used = np.zeros(n_target, dtype=bool)
        assigned = np.full(n_source, -1, dtype=np.int64)

        with watch.measure("prefilter"):
            confident = self._confident_pairs(scores)
        assigned[confident[:, 0]] = confident[:, 1]
        used[confident[:, 1]] = True

        remaining = np.flatnonzero(assigned < 0)
        # Most decisive sources first, so early (likely-correct) decisions
        # constrain later ambiguous ones.
        remaining = remaining[np.argsort(-scores[remaining].max(axis=1), kind="stable")]
        # Only the sequential phase needs features: prefiltered rows cost
        # nothing here.
        k = min(self.top_k, n_target)
        candidates, static = _static_features(scores, remaining, k)
        features = np.empty((k, _NUM_FEATURES))
        # Confident pairs first, then every remaining source in decision order.
        matched_sources = np.concatenate([confident[:, 0], remaining])
        matched_targets = np.empty(n_source, dtype=np.int64)
        matched_targets[: len(confident)] = confident[:, 1]
        for position, src in enumerate(remaining):
            count = len(confident) + position
            row_candidates = candidates[position]
            features[:, :2] = static[position]
            features[:, 2] = self._coherence(
                src, row_candidates, matched_sources[:count], matched_targets[:count],
                relatedness, target_affinity,
            )
            taken = used[row_candidates].astype(np.float64)
            logits = features @ self.theta - self.exclusion_strength * taken
            picked = row_candidates[int(np.argmax(logits))]
            assigned[src] = picked
            used[picked] = True
            matched_targets[count] = picked

        memory.release("relatedness")
        rows = np.arange(n_source)
        pairs = np.stack([rows, assigned], axis=1)
        return pairs, scores[rows, assigned]

    # ------------------------------------------------------------------

    def _confident_pairs(self, scores: np.ndarray) -> np.ndarray:
        """Mutual nearest neighbours whose margin exceeds the threshold."""
        forward = scores.argmax(axis=1)
        backward = scores.argmax(axis=0)
        rows = np.arange(scores.shape[0])
        mutual = backward[forward] == rows
        top = scores[rows, forward]
        if scores.shape[1] > 1:
            partition = np.partition(scores, scores.shape[1] - 2, axis=1)
            second = partition[:, -2]
        else:
            second = np.full(scores.shape[0], -np.inf)
        decisive = (top - second) > self.confident_margin
        keep = mutual & decisive
        return np.stack([rows[keep], forward[keep]], axis=1)

    def _coherence(
        self,
        src: int,
        candidates: np.ndarray,
        matched_sources: np.ndarray,
        matched_targets: np.ndarray,
        relatedness: np.ndarray,
        target_affinity: np.ndarray,
    ) -> np.ndarray | float:
        """The dynamic policy feature: how well each candidate agrees
        with the targets that strongly related, already-matched sources
        picked (0 when no matched source is strongly related)."""
        related = relatedness[src, matched_sources]
        strong = related > self.relatedness_threshold
        if not strong.any():
            return 0.0
        weights = related[strong]
        partners = matched_targets[strong]
        coherence = weights @ target_affinity[partners[:, None], candidates]
        coherence /= weights.sum()
        return coherence


def _static_features(
    scores: np.ndarray, rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's top-``k`` candidates and its two static policy features.

    Returns ``(candidates, static)`` of shapes ``(len(rows), k)`` and
    ``(len(rows), k, 2)``; ``static[i]`` holds row ``rows[i]``'s
    standardised affinity and margin, computed in the dtype of ``scores``
    and stored as float64 (exact for float32 scores).
    Neither depends on the episode state, so one vectorised pass serves
    every decision step.  The partition runs over row blocks of about
    ``_STATIC_BLOCK_ELEMS`` scores, bounding its index temporaries.
    """
    n_target = scores.shape[1]
    candidates = np.empty((len(rows), k), dtype=np.int64)
    step = max(1, _STATIC_BLOCK_ELEMS // n_target)
    for start in range(0, len(rows), step):
        block = scores[rows[start:start + step]]
        candidates[start:start + step] = np.argpartition(block, n_target - k, axis=1)[:, -k:]
    affinity = scores[rows[:, None], candidates]
    # Standardise within the candidate set: weak encoders compress all
    # similarities into a narrow band, and without normalisation the
    # affinity signal would vanish against the other features.  A row
    # without spread gets zero affinity.
    spread = affinity.std(axis=1, keepdims=True)
    affinity = np.divide(
        affinity - affinity.mean(axis=1, keepdims=True), spread,
        out=np.zeros_like(affinity), where=spread > 1e-12,
    )
    margin = affinity - affinity.max(axis=1, keepdims=True)
    return candidates, np.stack([affinity, margin], axis=2, dtype=np.float64)


def _profile_similarities(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of score profiles.

    Sources with similar rows rate targets alike ("related"); targets
    with similar columns attract the same sources ("affine").  These are
    the relatedness signals the coherence feature uses.  Kept in float32:
    coherence is a soft feature, and halving the O(n^2) working set is
    what lets RL scale to the large datasets (paper Table 6).
    """
    row_norm = (
        scores / np.maximum(np.linalg.norm(scores, axis=1, keepdims=True), 1e-12)
    ).astype(np.float32)
    col_norm = (
        scores / np.maximum(np.linalg.norm(scores, axis=0, keepdims=True), 1e-12)
    ).astype(np.float32)
    return row_norm @ row_norm.T, col_norm.T @ col_norm
