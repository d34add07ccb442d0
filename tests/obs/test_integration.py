"""End-to-end observability: spans and metrics through the real stack."""

import pytest

from repro.cli import main
from repro.core.registry import create_matcher
from repro.embedding.oracle import OracleConfig, OracleEncoder
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.profile import load_profile, validate_profile
from repro.pipeline import AlignmentPipeline
from repro.runtime.supervisor import RunSupervisor, SupervisorPolicy
from repro.similarity.engine import SimilarityEngine

pytestmark = pytest.mark.obs


class TestEngineInstrumentation:
    def test_similarity_span_has_chunk_children(self, rng):
        source = rng.standard_normal((50, 8))
        target = rng.standard_normal((40, 8))
        with SimilarityEngine(chunk_rows=16) as engine:
            with trace.recording() as recorder:
                engine.similarity(source, target, metric="cosine")
        (root,) = recorder.find("engine.similarity")
        assert root.attrs["metric"] == "cosine"
        assert root.attrs["rows"] == 50
        chunks = [c for c in root.children if c.name == "engine.chunk"]
        assert len(chunks) == root.counters["chunks"] == 4
        covered = sorted((c.attrs["start"], c.attrs["stop"]) for c in chunks)
        assert covered[0][0] == 0 and covered[-1][1] == 50

    def test_cache_hits_surface_as_events_and_counters(self, rng):
        source = rng.standard_normal((20, 4))
        target = rng.standard_normal((20, 4))
        with SimilarityEngine() as engine:
            with trace.recording() as recorder, obs_metrics.scoped() as registry:
                engine.similarity(source, target)
                engine.similarity(source, target)
        assert registry.counter("engine.cache.misses") == 1
        assert registry.counter("engine.cache.hits") == 1
        assert registry.counter("engine.computations") == 1
        assert [e["name"] for e in recorder.events] == [
            "engine.cache.miss", "engine.cache.hit",
        ]


class TestMatcherInstrumentation:
    def test_match_has_phase_spans(self, rng):
        source = rng.standard_normal((30, 8))
        target = rng.standard_normal((30, 8))
        matcher = create_matcher("CSLS")
        with SimilarityEngine() as engine:
            matcher.engine = engine
            with trace.recording() as recorder:
                matcher.match(source, target)
        (root,) = recorder.find("matcher.match")
        assert root.attrs["matcher"] == "CSLS"
        phases = [c.name for c in root.children]
        assert phases == ["matcher.score", "matcher.rescale", "matcher.assign"]
        # The engine span nests inside the score phase.
        assert recorder.find("engine.similarity")[0] in root.children[0].walk()

    def test_sinkhorn_iterations_counted(self, rng):
        source = rng.standard_normal((20, 6))
        target = rng.standard_normal((20, 6))
        matcher = create_matcher("Sink.", iterations=7)
        with trace.recording() as recorder, obs_metrics.scoped() as registry:
            matcher.match(source, target)
        assert len(recorder.find("sinkhorn.iter")) == 7
        assert registry.counter("sinkhorn.iterations") == 7


class TestRunnerProfiles:
    def test_run_experiment_attaches_schema_valid_profiles(self):
        config = ExperimentConfig(
            preset="dbp15k/zh_en", input_regime="R",
            matchers=("DInf", "CSLS"), scale=0.2, seed=0,
        )
        result = run_experiment(config, profile=True)
        assert set(result.profiles) == {"DInf", "CSLS"}
        for name, document in result.profiles.items():
            validate_profile(document)
            assert document["meta"]["matcher"] == name
            names = {s["name"] for s in _flatten(document["spans"])}
            assert "matcher.match" in names
            assert "matcher.assign" in names

    def test_profiles_isolated_per_cell(self):
        config = ExperimentConfig(
            preset="dbp15k/zh_en", input_regime="R",
            matchers=("Sink.", "DInf"),
            matcher_options={"Sink.": {"iterations": 3}},
            scale=0.2, seed=0,
        )
        result = run_experiment(config, profile=True)
        sink = result.profiles["Sink."]["metrics"]["counters"]
        dinf = result.profiles["DInf"]["metrics"]["counters"]
        assert sink["sinkhorn.iterations"] == 3
        assert "sinkhorn.iterations" not in dinf

    def test_supervised_profile_records_supervisor_counts(self):
        config = ExperimentConfig(
            preset="dbp15k/zh_en", input_regime="R", matchers=("CSLS",),
            scale=0.2, seed=0,
        )
        supervisor = RunSupervisor(SupervisorPolicy(on_error="skip"))
        result = run_experiment(config, supervisor=supervisor, profile=True)
        counters = result.profiles["CSLS"]["metrics"]["counters"]
        assert counters["supervisor.attempts"] == 1
        assert counters["supervisor.runs"] == 1

    def test_no_profiles_by_default(self):
        config = ExperimentConfig(
            preset="dbp15k/zh_en", input_regime="R", matchers=("DInf",), scale=0.2,
        )
        assert run_experiment(config).profiles == {}


class TestPipelineProfiles:
    def test_align_profile_attached_and_valid(self, medium_task):
        pipeline = AlignmentPipeline(
            OracleEncoder(OracleConfig(noise=0.3, seed=5)), create_matcher("CSLS")
        )
        prediction = pipeline.align(medium_task, profile=True)
        validate_profile(prediction.profile)
        assert prediction.profile["meta"] == {
            "task": medium_task.name, "matcher": "CSLS",
        }
        names = {s["name"] for s in _flatten(prediction.profile["spans"])}
        assert {"matcher.match", "matcher.score", "matcher.assign"} <= names

    def test_align_without_profile_leaves_none(self, medium_task):
        pipeline = AlignmentPipeline(
            OracleEncoder(OracleConfig(noise=0.3, seed=5)), create_matcher("DInf")
        )
        assert pipeline.align(medium_task).profile is None


class TestCLIProfile:
    def test_match_profile_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        assert main([
            "match", "dbp15k/zh_en", "--matcher", "CSLS", "--scale", "0.2",
            "--profile", str(out),
        ]) == 0
        assert "profile written to" in capsys.readouterr().out
        document = load_profile(out)
        assert document["meta"]["matcher"] == "CSLS"
        names = {s["name"] for s in _flatten(document["spans"])}
        assert "matcher.match" in names
        assert "engine.similarity" in names
        assert document["metrics"]["counters"]["supervisor.runs"] == 1

    def test_profile_summarize_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        main([
            "match", "dbp15k/zh_en", "--matcher", "Sink.", "--scale", "0.2",
            "--profile", str(out),
        ])
        capsys.readouterr()
        assert main(["profile", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "matcher.match" in text
        assert "sinkhorn.iter" in text
        assert "supervisor.runs" in text

    def test_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}', encoding="utf-8")
        assert main(["profile", "summarize", str(bad)]) == 1
        assert "cannot summarize" in capsys.readouterr().err

    def test_tracing_disabled_after_profiled_run(self, tmp_path):
        main([
            "match", "dbp15k/zh_en", "--matcher", "DInf", "--scale", "0.2",
            "--profile", str(tmp_path / "p.json"),
        ])
        assert not trace.tracing_enabled()


def _flatten(spans):
    out = []
    stack = list(spans)
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(span["children"])
    return out
