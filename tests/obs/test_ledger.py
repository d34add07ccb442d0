"""Tests for the run ledger: schema, round trip, runner integration."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LEDGER_VERSION,
    RunLedger,
    as_ledger,
    build_record,
    cell_key,
    config_fingerprint,
    validate_record,
)
from repro.runtime.supervisor import SupervisorPolicy
from repro.testing.faults import AllocationFailure, KernelStall, faulty_factory

pytestmark = pytest.mark.obs

SCALE = 0.2


def _config(**overrides):
    defaults = dict(
        preset="dbp15k/zh_en", input_regime="R",
        matchers=("DInf", "CSLS", "Hun."), scale=SCALE, seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _record(**overrides):
    defaults = dict(
        fingerprint="abc123",
        preset="dbp15k/zh_en",
        regime="R",
        task="dbp15k/zh_en",
        matcher="CSLS",
        seed=0,
        scale=1.0,
        metric="cosine",
        status="ok",
        metrics={"precision": 0.7, "recall": 0.7, "f1": 0.7},
        ranking={"hits@1": 0.6, "mrr": 0.65},
    )
    defaults.update(overrides)
    return build_record(**defaults)


class TestRecordSchema:
    def test_build_record_carries_schema_and_provenance(self):
        record = _record()
        assert record["schema"] == LEDGER_SCHEMA
        assert record["version"] == LEDGER_VERSION
        assert len(record["run_id"]) == 32
        assert record["provenance"]["python"]
        assert record["provenance"]["numpy"]
        assert record["created_at"].endswith("+00:00")
        assert cell_key(record) == ("dbp15k/zh_en", "R", "CSLS")

    def test_record_is_json_serialisable(self):
        json.dumps(_record())

    def test_failed_record_carries_error_not_metrics(self):
        record = _record(
            status="failed", metrics=None,
            error={"type": "DeadlineExceeded", "message": "too slow"},
        )
        assert record["metrics"] is None
        assert record["error"]["type"] == "DeadlineExceeded"

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r.update(schema="other"), "schema"),
            (lambda r: r.update(version=999), "version"),
            (lambda r: r.pop("fingerprint"), "fingerprint"),
            (lambda r: r.update(seed="zero"), "seed"),
            (lambda r: r.update(status="mystery"), "status"),
            (lambda r: r.update(status="failed"), "failed"),
            (lambda r: r.update(metrics=None), "metrics"),
            (lambda r: r.update(error={"message": "no type"}), "type"),
        ],
    )
    def test_validation_rejects_malformed(self, mutate, message):
        record = _record()
        mutate(record)
        with pytest.raises(ValueError, match=message):
            validate_record(record)

    def test_validation_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_record([1, 2])

    def test_config_fingerprint_tracks_identity_fields(self):
        base = _config()
        assert config_fingerprint(base) == config_fingerprint(_config())
        assert config_fingerprint(base) != config_fingerprint(_config(seed=1))
        assert config_fingerprint(base) != config_fingerprint(_config(scale=0.4))


class TestSchemaV2Resources:
    """The v1 -> v2 bump: required ``resources`` block, v1 stays readable."""

    def test_v2_record_carries_measured_resources(self):
        record = _record()
        assert record["version"] == 2
        resources = record["resources"]
        assert resources["backend"] == "thread"
        assert resources["workers"] == 1
        assert resources["shards"] == 0
        assert isinstance(resources["peak_rss_bytes"], int)
        assert resources["peak_rss_bytes"] >= 0

    def test_engine_resources_merge_over_defaults(self, tmp_path):
        # Older builds could score on a process pool and recorded it;
        # such records must still validate and read back.
        record = _record(resources={"backend": "process", "workers": 4, "shards": 9})
        resources = record["resources"]
        assert resources["backend"] == "process"
        assert resources["workers"] == 4
        assert resources["shards"] == 9
        assert "peak_rss_bytes" in resources  # measured default survives
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record)
        (read,) = ledger.records()
        assert read["resources"] == resources

    def test_v1_record_without_resources_still_validates(self):
        record = _record()
        record.pop("resources")
        record["version"] = 1
        validate_record(record)  # must not raise

    def test_v2_record_missing_resources_rejected(self):
        record = _record()
        record.pop("resources")
        with pytest.raises(ValueError, match="resources"):
            validate_record(record)

    def test_unknown_version_still_rejected(self):
        record = _record()
        record["version"] = 3
        with pytest.raises(ValueError, match="version"):
            validate_record(record)

    def test_committed_reference_ledger_stays_readable(self):
        # The drift gate's committed ledger predates the bump; reading it
        # is the live proof of v1 back-compat.
        from repro.obs.drift import DEFAULT_LEDGER_PATH

        records = RunLedger(DEFAULT_LEDGER_PATH).records()
        assert records
        assert all(record["version"] == 1 for record in records)

    def test_match_cli_record_reports_engine_resources(self, tmp_path):
        from repro.cli import main

        ledger_path = tmp_path / "runs.jsonl"
        code = main([
            "match", "dbp15k/zh_en", "--matcher", "DInf", "--scale", "0.2",
            "--ledger", str(ledger_path),
        ])
        assert code == 0
        (record,) = RunLedger(ledger_path).records()
        assert set(record["resources"]) == {
            "backend", "workers", "shards", "peak_rss_bytes",
        }
        assert record["resources"]["workers"] == 1
        assert record["resources"]["backend"] == "thread"
        assert record["resources"]["shards"] >= 1
        assert record["resources"]["peak_rss_bytes"] > 0


class TestRunLedger:
    def test_append_then_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "sub" / "runs.jsonl")
        first = ledger.append(_record(matcher="DInf"))
        second = ledger.append(_record(matcher="CSLS"))
        assert ledger.records() == [first, second]
        assert [r["matcher"] for r in ledger] == ["DInf", "CSLS"]

    def test_construction_does_not_touch_filesystem(self, tmp_path):
        ledger = RunLedger(tmp_path / "never.jsonl")
        assert ledger.records() == []
        assert not ledger.path.exists()

    def test_append_rejects_invalid_record(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with pytest.raises(ValueError):
            ledger.append({"schema": "nope"})
        assert not ledger.path.exists()

    def test_corrupt_line_reports_path_and_lineno(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record())
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": "wrong"}\n')
        with pytest.raises(ValueError, match=r"runs\.jsonl:2"):
            ledger.records()

    def test_latest_cells_keeps_last_record_per_cell(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_record(matcher="CSLS", metrics={"f1": 0.1}))
        newer = ledger.append(_record(matcher="CSLS", metrics={"f1": 0.9}))
        ledger.append(_record(matcher="DInf"))
        cells = ledger.latest_cells()
        assert len(cells) == 2
        assert cells[("dbp15k/zh_en", "R", "CSLS")] == newer

    def test_as_ledger_coerces_paths_and_none(self, tmp_path):
        assert as_ledger(None) is None
        ledger = RunLedger(tmp_path / "runs.jsonl")
        assert as_ledger(ledger) is ledger
        assert as_ledger(str(tmp_path / "x.jsonl")).path.name == "x.jsonl"


class TestRunnerIntegration:
    def test_sweep_appends_one_validated_record_per_matcher(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        result = run_experiment(_config(), ledger=path)
        records = RunLedger(path).records()
        assert [r["matcher"] for r in records] == list(_config().matchers)
        fingerprint = config_fingerprint(_config())
        for record in records:
            assert record["status"] == "ok"
            assert record["fingerprint"] == fingerprint
            assert record["metrics"]["f1"] == pytest.approx(
                result.runs[record["matcher"]].f1
            )
            assert record["ranking"]["hits@1"] == pytest.approx(
                result.ranking["hits@1"]
            )
            assert record["cpu_seconds"] is not None
            assert record["engine"] is not None and "hits" in record["engine"]

    def test_cpu_seconds_lands_on_matcher_run_too(self, tmp_path):
        result = run_experiment(_config(), ledger=tmp_path / "runs.jsonl")
        assert all(
            run.cpu_seconds is not None and run.cpu_seconds >= 0.0
            for run in result.runs.values()
        )

    def test_no_ledger_means_no_file_and_no_cpu_timing(self, tmp_path):
        result = run_experiment(_config())
        assert list(tmp_path.iterdir()) == []
        assert all(run.cpu_seconds is None for run in result.runs.values())

    def test_failed_run_is_a_first_class_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_experiment(
            _config(),
            policy=SupervisorPolicy(on_error="skip"),
            matcher_factory=faulty_factory({"CSLS": AllocationFailure()}),
            ledger=path,
        )
        by_matcher = {r["matcher"]: r for r in RunLedger(path).records()}
        assert by_matcher["CSLS"]["status"] == "failed"
        assert by_matcher["CSLS"]["metrics"] is None
        assert by_matcher["CSLS"]["error"]["type"] == "ResourceBudgetExceeded"
        assert by_matcher["DInf"]["status"] == "ok"

    def test_degraded_run_records_fallback_and_chain(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_experiment(
            _config(),
            policy=SupervisorPolicy(timeout=0.1, on_error="fallback"),
            matcher_factory=faulty_factory({"Hun.": KernelStall(seconds=0.6)}),
            ledger=path,
        )
        by_matcher = {r["matcher"]: r for r in RunLedger(path).records()}
        record = by_matcher["Hun."]
        assert record["status"] == "degraded"
        assert record["fallback"] == "Greedy"
        assert record["chain"] == ["Hun.", "Greedy"]
        assert record["error"]["type"] == "DeadlineExceeded"
        assert record["metrics"]["f1"] == pytest.approx(
            by_matcher["DInf"]["metrics"]["f1"]
        )

    def test_ledger_accumulates_across_sweeps(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_experiment(_config(matchers=("DInf",)), ledger=path)
        run_experiment(_config(matchers=("DInf",), seed=1), ledger=path)
        records = RunLedger(path).records()
        assert len(records) == 2
        assert [r["seed"] for r in records] == [0, 1]
        assert records[0]["fingerprint"] != records[1]["fingerprint"]
