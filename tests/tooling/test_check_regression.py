"""Unit coverage for the bench-regression gate's family logic.

``benchmarks/check_regression.py`` is a script, not a package module;
it is loaded here by file path.  The tests pin (a) the key-name ->
family classification, including the precedence that keeps
``p99_seconds`` out of the generic timing family, (b) the latency gate
band (>40% *and* >20 ms), and (c) that every failure line names the
family that tripped — the property the CI log diagnosis relies on — and
(d) that the re-run benchmarks get perfbench's one-BLAS-thread environment.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


class TestFamilyClassification:
    @pytest.mark.parametrize("path, family", [
        ("soak.p99_seconds", "latency"),
        ("soak.p999_seconds", "latency"),
        ("soak.phases.insert.p99_seconds", "latency"),
        ("single_query.p50_seconds", "timing"),
        ("single_query.p95_seconds", "timing"),
        ("sweep.total_seconds", "timing"),
        ("batched.queries_per_second", "rate"),
        ("soak.sustained_per_second", "rate"),
        ("points.100k.peak_rss_bytes", "rss"),
        ("soak.errors", None),
        ("soak.max_version_lag", None),
        ("soak.n_base", None),
    ])
    def test_each_key_lands_in_exactly_one_family(self, path, family):
        assert check_regression.family_of(path) == family

    def test_latency_outranks_timing(self):
        """p99_seconds contains "seconds" but must gate as latency."""
        leaves = {"a.p99_seconds": 1.0, "a.p50_seconds": 1.0}
        assert set(check_regression.family_paths(leaves, "latency")) \
            == {"a.p99_seconds"}
        assert set(check_regression.family_paths(leaves, "timing")) \
            == {"a.p50_seconds"}


class TestLatencyGate:
    def test_regression_beyond_both_bands_fails_naming_the_family(self):
        failures = check_regression.evaluate(
            {"soak.p99_seconds": 0.005}, {"soak.p99_seconds": 0.200}
        )
        assert len(failures) == 1  # latency only — no timing double report
        assert "[latency]" in failures[0]
        assert "soak.p99_seconds" in failures[0]

    def test_p999_is_gated_by_the_same_family(self):
        failures = check_regression.evaluate(
            {"soak.p999_seconds": 0.010}, {"soak.p999_seconds": 0.500}
        )
        assert len(failures) == 1 and "[latency]" in failures[0]

    def test_below_absolute_floor_never_fails(self):
        """4x worse but only +15 ms: tail jitter, not a regression."""
        failures = check_regression.evaluate(
            {"soak.p99_seconds": 0.005}, {"soak.p99_seconds": 0.020}
        )
        assert failures == []

    def test_below_relative_band_never_fails(self):
        """+50 ms on a 500 ms tail is +10%: within the 40% band."""
        failures = check_regression.evaluate(
            {"soak.p99_seconds": 0.500}, {"soak.p99_seconds": 0.550}
        )
        assert failures == []

    def test_improvement_never_fails(self):
        failures = check_regression.evaluate(
            {"soak.p99_seconds": 0.200}, {"soak.p99_seconds": 0.001}
        )
        assert failures == []

    def test_missing_fresh_value_is_tagged(self):
        failures = check_regression.evaluate({"soak.p99_seconds": 0.01}, {})
        assert len(failures) == 1
        assert failures[0].startswith("MISSING") and "[latency]" in failures[0]


class TestOtherFamiliesNameThemselves:
    def test_timing_failure_is_tagged(self):
        failures = check_regression.evaluate(
            {"sweep.total_seconds": 1.0}, {"sweep.total_seconds": 2.0}
        )
        assert len(failures) == 1 and "[timing]" in failures[0]

    def test_rate_failure_is_tagged(self):
        failures = check_regression.evaluate(
            {"batched.queries_per_second": 1000.0},
            {"batched.queries_per_second": 10.0},
        )
        assert len(failures) == 1 and "[rate]" in failures[0]

    def test_rss_failure_is_tagged(self):
        failures = check_regression.evaluate(
            {"points.peak_rss_bytes": 100 * 2**20},
            {"points.peak_rss_bytes": 900 * 2**20},
        )
        assert len(failures) == 1 and "[rss]" in failures[0]

    def test_ungated_leaves_never_fail(self):
        failures = check_regression.evaluate(
            {"soak.errors": 0.0, "soak.requests": 813.0},
            {"soak.errors": 50.0, "soak.requests": 2.0},
        )
        assert failures == []

    def test_clean_comparison_is_silent(self):
        leaves = {
            "soak.p99_seconds": 0.018,
            "soak.p999_seconds": 0.022,
            "single.p50_seconds": 0.006,
            "soak.sustained_per_second": 80.0,
            "scale.peak_rss_bytes": 2.0**30,
        }
        assert check_regression.evaluate(leaves, dict(leaves)) == []


class TestInjectedBaselineRegression:
    """The acceptance scenario: a synthetic p99 regression in
    BENCH_soak.json must trip the gate, naming the latency family."""

    def test_synthetic_p99_regression_against_committed_baseline(self):
        import json

        baseline_doc = json.loads(
            (_SCRIPT.parent / "results" / "BENCH_soak.json").read_text("utf-8")
        )
        fresh = check_regression.flatten(baseline_doc)
        # Inject: the fresh run's p99 collapses to 10x baseline + 100 ms.
        baseline = dict(fresh)
        fresh["soak.p99_seconds"] = baseline["soak.p99_seconds"] * 10 + 0.1
        failures = check_regression.evaluate(baseline, fresh)
        assert any(
            "[latency]" in line and "soak.p99_seconds" in line
            for line in failures
        )


class TestBenchmarkEnvironment:
    def test_benchmarks_run_one_blas_thread_like_perfbench(self, monkeypatch):
        seen = {}

        def fake_run(command, cwd, env):
            seen.update(env)
            return subprocess.CompletedProcess(command, 0)

        monkeypatch.setattr(check_regression.subprocess, "run", fake_run)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert check_regression.run_benchmarks() == 0
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", _SCRIPT.parents[1] / "perfbench" / "run.py"
        )
        perfbench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perfbench_run)
        expected = perfbench_run.SINGLE_THREAD_ENV
        assert {name: seen[name] for name in expected} == expected
        assert check_regression.SINGLE_THREAD_ENV == expected
