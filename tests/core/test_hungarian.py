"""Tests for the from-scratch Hungarian (Jonker-Volgenant) solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from repro.core.hungarian import Hungarian, solve_assignment_max, solve_assignment_min


class TestSolveAssignmentMin:
    def test_identity_cost(self):
        cost = 1.0 - np.eye(4)
        assignment = solve_assignment_min(cost)
        np.testing.assert_array_equal(assignment, np.arange(4))

    def test_matches_scipy_on_random(self, rng):
        for _ in range(20):
            cost = rng.random((12, 12))
            ours = solve_assignment_min(cost)
            rows, cols = scipy.optimize.linear_sum_assignment(cost)
            our_total = cost[np.arange(12), ours].sum()
            scipy_total = cost[rows, cols].sum()
            assert our_total == pytest.approx(scipy_total, abs=1e-9)

    def test_is_permutation(self, rng):
        assignment = solve_assignment_min(rng.random((30, 30)))
        assert sorted(assignment.tolist()) == list(range(30))

    def test_handles_negative_costs(self, rng):
        cost = rng.normal(size=(10, 10))
        ours = solve_assignment_min(cost)
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        assert cost[np.arange(10), ours].sum() == pytest.approx(
            cost[rows, cols].sum(), abs=1e-9
        )

    def test_handles_ties(self):
        cost = np.zeros((5, 5))
        assignment = solve_assignment_min(cost)
        assert sorted(assignment.tolist()) == list(range(5))

    def test_empty(self):
        assert solve_assignment_min(np.empty((0, 0))).size == 0

    def test_single_cell(self):
        np.testing.assert_array_equal(solve_assignment_min(np.array([[3.0]])), [0])

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError, match="square"):
            solve_assignment_min(rng.random((3, 4)))


class TestSolveAssignmentMax:
    def test_maximizes(self, rng):
        scores = rng.random((8, 8))
        pairs, pair_scores = solve_assignment_max(scores)
        rows, cols = scipy.optimize.linear_sum_assignment(scores, maximize=True)
        assert pair_scores.sum() == pytest.approx(scores[rows, cols].sum(), abs=1e-9)

    def test_scipy_backend_agrees_on_total(self, rng):
        scores = rng.random((15, 15))
        native_pairs, native_scores = solve_assignment_max(scores, backend="native")
        scipy_pairs, scipy_scores = solve_assignment_max(scores, backend="scipy")
        assert native_scores.sum() == pytest.approx(scipy_scores.sum(), abs=1e-9)

    def test_rectangular_more_sources_abstains(self, rng):
        scores = rng.random((10, 6))
        pairs, _ = solve_assignment_max(scores)
        assert len(pairs) == 6  # only n_target pairs possible
        assert len(set(pairs[:, 1].tolist())) == 6

    def test_rectangular_more_targets(self, rng):
        scores = rng.random((6, 10))
        pairs, _ = solve_assignment_max(scores)
        assert len(pairs) == 6
        assert len(set(pairs[:, 0].tolist())) == 6

    def test_unknown_backend(self, rng):
        with pytest.raises(ValueError, match="backend"):
            solve_assignment_max(rng.random((3, 3)), backend="cuda")


class TestHungarianMatcher:
    def test_perfect_on_diagonal(self, identity_scores):
        result = Hungarian().match_scores(identity_scores)
        assert result.as_set() == {(i, i) for i in range(15)}

    def test_one_to_one_constraint(self, rng):
        result = Hungarian().match(rng.normal(size=(20, 8)), rng.normal(size=(20, 8)))
        assert len(set(result.pairs[:, 1].tolist())) == 20

    def test_recovers_from_hub_collapse(self):
        n = 8
        scores = np.full((n, n), 0.2)
        np.fill_diagonal(scores, 0.55)
        scores[:, 0] = 0.6  # hub: greedy collapses, assignment cannot
        result = Hungarian().match_scores(scores)
        correct = sum(1 for s, t in result.pairs if s == t)
        assert correct >= n - 1

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            Hungarian(backend="gpu")

    def test_backend_qualities_match(self, medium_task, oracle_embeddings):
        pairs = medium_task.test_index_pairs()
        src = oracle_embeddings.source[pairs[:, 0]]
        tgt = oracle_embeddings.target[pairs[:, 1]]
        native = Hungarian(backend="native").match(src, tgt)
        via_scipy = Hungarian(backend="scipy").match(src, tgt)
        gold = {(i, i) for i in range(len(pairs))}
        assert len(native.as_set() & gold) == len(via_scipy.as_set() & gold)


_SERVE_IMPORTS = """
import sys

import numpy as np

import repro.cli, repro.serve.http, repro.serve.state
assert "scipy.optimize" not in sys.modules, "scipy.optimize on the serve import path"

from repro.core.hungarian import solve_assignment_max

scores = np.random.default_rng(7).random((9, 9))
native, native_scores = solve_assignment_max(scores, backend="native")
lazy, lazy_scores = solve_assignment_max(scores, backend="scipy")
order = np.argsort(lazy[:, 0])
assert (native == lazy[order]).all() and (native_scores == lazy_scores[order]).all()
assert "scipy.optimize" in sys.modules
"""


class TestScipyImportedLazily:
    def test_serve_import_path_leaves_scipy_optimize_unloaded(self):
        # A fresh interpreter: this test module already imported scipy.optimize.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", _SERVE_IMPORTS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
