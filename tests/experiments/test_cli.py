"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.index import IVFIndex


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_choices(self):
        args = build_parser().parse_args(["tables", "4"])
        assert args.which == "4"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "9"])

    def test_match_defaults(self):
        args = build_parser().parse_args(["match", "dbp15k/zh_en"])
        assert args.regime == "R"
        assert args.matcher == "DInf"

    def test_unknown_matcher_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "x", "--matcher", "Magic"])


class TestCommands:
    def test_datasets_list(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        assert "dbp15k/zh_en" in out
        assert "fb_dbp_mul" in out

    def test_datasets_export(self, tmp_path, capsys):
        assert main([
            "datasets", "export", "dbp15k/zh_en",
            "--scale", "0.1", "-o", str(tmp_path / "dz"),
        ]) == 0
        assert (tmp_path / "dz" / "rel_triples_1").exists()
        assert (tmp_path / "dz" / "test_links").exists()

    def test_tables_3_prints(self, capsys):
        assert main(["tables", "3", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Avg. degree" in out

    def test_tables_output_directory(self, tmp_path, capsys):
        assert main([
            "tables", "3", "--scale", "0.2", "-o", str(tmp_path),
        ]) == 0
        assert (tmp_path / "table3.txt").exists()

    def test_figures_6_prints(self, capsys):
        assert main(["figures", "6", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out

    def test_match_command(self, capsys):
        assert main([
            "match", "dbp15k/zh_en", "--regime", "R",
            "--matcher", "CSLS", "--scale", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "CSLS on dbp15k/zh_en" in out
        assert "F1=" in out

    def test_match_with_fitted_matcher(self, capsys):
        assert main([
            "match", "dbp15k/zh_en", "--matcher", "RL", "--scale", "0.2",
        ]) == 0
        assert "RL on" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys):
        assert main(["report", "-o", str(tmp_path / "rep"), "--scale", "0.15"]) == 0
        report = tmp_path / "rep" / "REPORT.md"
        assert report.exists()
        content = report.read_text()
        assert "Table 4" in content
        assert "Figure 7" in content
        assert (tmp_path / "rep" / "table6.txt").exists()


class TestSupervisedMatch:
    def test_parser_accepts_robustness_flags(self):
        args = build_parser().parse_args([
            "match", "dbp15k/zh_en", "--timeout", "30",
            "--memory-budget", "512", "--on-error", "fallback", "--retries", "2",
        ])
        assert args.timeout == 30.0
        assert args.memory_budget == 512.0
        assert args.on_error == "fallback"
        assert args.retries == 2

    def test_on_error_raise_exits_nonzero_with_summary(self, capsys):
        # A 100-byte budget fails every matcher; raise -> one-line summary.
        code = main([
            "match", "dbp15k/zh_en", "--matcher", "DInf", "--scale", "0.2",
            "--memory-budget", "0.0001", "--on-error", "raise",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line
        assert "match failed" in err
        assert "ResourceBudgetExceeded" in err

    def test_on_error_skip_also_exits_nonzero(self, capsys):
        code = main([
            "match", "dbp15k/zh_en", "--matcher", "DInf", "--scale", "0.2",
            "--memory-budget", "0.0001", "--on-error", "skip",
        ])
        assert code == 1
        assert "match failed" in capsys.readouterr().err

    def test_fallback_degrades_and_reports(self, capsys):
        from repro.datasets.zoo import load_preset

        task = load_preset("dbp15k/zh_en", scale=0.2)
        n = len(task.test_query_ids())
        m = len(task.candidate_target_ids())
        # Fits the similarity matrix (Greedy) but not Hun.'s padded cost.
        budget_mib = 2.5 * n * m * 8 / 2**20
        code = main([
            "match", "dbp15k/zh_en", "--matcher", "Hun.", "--scale", "0.2",
            "--memory-budget", str(budget_mib), "--on-error", "fallback",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "Greedy" in out
        assert "F1=" in out

    def test_sparse_k_reruns_the_matcher_on_candidate_lists(self, capsys):
        # 0.05 MiB is below Hun.'s dense working set; --sparse-k
        # retries Hun. on exact top-25 candidate lists.
        code = main([
            "match", "dbp15k/zh_en", "--matcher", "Hun.", "--scale", "0.2",
            "--memory-budget", "0.05", "--on-error", "fallback", "--sparse-k", "25",
        ])
        assert code == 0
        degraded = [
            line for line in capsys.readouterr().out.splitlines() if "DEGRADED:" in line
        ]
        assert len(degraded) == 1
        assert degraded[0].rstrip().split(" after ")[0].endswith("+sparse")


class TestIndexCommands:
    def test_match_accepts_index_flags(self):
        args = build_parser().parse_args([
            "match", "dbp15k/zh_en", "--index", "ivf",
            "--k", "30", "--nprobe", "2", "--clusters", "8",
        ])
        assert args.index == "ivf"
        assert args.k == 30
        assert args.nprobe == 2

    def test_match_rejects_unknown_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "x", "--index", "annoy"])

    def test_match_with_ivf_index_reports_recall(self, capsys):
        assert main([
            "match", "dbp15k/zh_en", "--regime", "R", "--matcher", "CSLS",
            "--scale", "0.2", "--index", "ivf", "--k", "30", "--nprobe", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "index: kind=ivf" in out
        assert "recall=" in out
        assert "F1=" in out

    def test_match_with_exact_index(self, capsys):
        assert main([
            "match", "dbp15k/zh_en", "--regime", "R", "--matcher", "DInf",
            "--scale", "0.2", "--index", "exact", "--k", "20",
        ]) == 0
        assert "kind=exact" in capsys.readouterr().out

    def test_index_build_and_stats_round_trip(self, tmp_path, capsys):
        path = tmp_path / "zh_en.index.json"
        assert main([
            "index", "build", "dbp15k/zh_en", "--regime", "R",
            "--scale", "0.2", "--clusters", "4", "-o", str(path),
        ]) == 0
        assert path.exists()
        build_out = capsys.readouterr().out
        assert "ntotal" in build_out
        assert main(["index", "stats", str(path)]) == 0
        stats_out = capsys.readouterr().out
        assert "n_clusters" in stats_out

    @pytest.mark.parametrize("damage", ["version-1", "bit-flip"])
    def test_index_stats_on_a_bad_document_exits_1_with_the_typed_message(
        self, tmp_path, capsys, damage
    ):
        vectors = np.random.default_rng(3).normal(size=(12, 4))
        path = IVFIndex(n_clusters=2).train(vectors).add(vectors).save(tmp_path / "i.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        if damage == "version-1":
            document["version"] = 1
            expected = "python -m repro index build"
        else:
            data = document["vectors"]["data"]
            document["vectors"]["data"] = ("B" if data[0] == "A" else "A") + data[1:]
            expected = "IVF index checksum mismatch"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["index", "stats", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load index {path}: ")
        assert expected in err
        assert "Traceback" not in err


class TestExplainCommand:
    def test_explain_prints_decision_report(self, capsys):
        assert main([
            "explain", "dbp15k/zh_en", "--query", "3", "--scale", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Decision report for" in out
        assert "greedy ->" in out
        assert "CSLS ->" in out

    def test_explain_rejects_out_of_range_query(self, capsys):
        assert main([
            "explain", "dbp15k/zh_en", "--query", "100000", "--scale", "0.2",
        ]) == 1
        assert "--query must be in" in capsys.readouterr().err

    def test_explain_honours_top_k(self, capsys):
        assert main([
            "explain", "dbp15k/zh_en", "--query", "0", "--scale", "0.2",
            "--top-k", "3",
        ]) == 0
        out = capsys.readouterr().out
        # Header + choices + column header + 3 candidate rows (+ notes).
        candidate_rows = [
            line for line in out.splitlines() if line.startswith("  t")
        ]
        assert len(candidate_rows) == 3


class TestLedgerAndEventsFlags:
    ARGS = ["match", "dbp15k/zh_en", "--matcher", "CSLS", "--scale", "0.2"]

    def test_match_ledger_appends_ok_record(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        path = tmp_path / "runs.jsonl"
        assert main([*self.ARGS, "--ledger", str(path)]) == 0
        records = RunLedger(path).records()
        assert len(records) == 1
        record = records[0]
        assert record["status"] == "ok"
        assert record["matcher"] == "CSLS"
        out = capsys.readouterr().out
        assert f"F1={record['metrics']['f1']:.3f}" in out

    def test_match_ledger_records_skip_failure(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        path = tmp_path / "runs.jsonl"
        assert main([
            *self.ARGS, "--ledger", str(path),
            "--memory-budget", "0.0001", "--on-error", "skip",
        ]) == 1
        capsys.readouterr()
        (record,) = RunLedger(path).records()
        assert record["status"] == "failed"
        assert record["metrics"] is None
        assert record["error"]["type"] == "ResourceBudgetExceeded"

    def test_match_ledger_links_profile_document(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "runs.jsonl"
        profile = tmp_path / "prof.json"
        assert main([
            *self.ARGS, "--ledger", str(ledger), "--profile", str(profile),
        ]) == 0
        capsys.readouterr()
        (record,) = RunLedger(ledger).records()
        assert record["profile_path"] == str(profile)
        assert profile.exists()

    def test_match_events_dash_streams_to_stderr(self, capsys):
        assert main([*self.ARGS, "--events", "-"]) == 0
        err = capsys.readouterr().err
        assert "engine.scores_ready" in err

    def test_match_events_path_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert main([*self.ARGS, "--events", str(path)]) == 0
        capsys.readouterr()
        names = [
            json.loads(line)["name"]
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert "engine.scores_ready" in names


class TestRunsCommands:
    def _seeded_ledger(self, tmp_path):
        from repro.obs.ledger import RunLedger, build_record

        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for matcher, f1 in (("DInf", 0.5), ("CSLS", 0.6)):
            ledger.append(build_record(
                fingerprint="abc", preset="dbp15k/zh_en", regime="R",
                task="dbp15k/zh_en", matcher=matcher, seed=0, scale=0.5,
                metric="cosine", status="ok",
                metrics={"precision": f1, "recall": f1, "f1": f1},
                ranking={"hits@1": f1, "mrr": f1},
            ))
        return path

    def test_runs_list_prints_one_line_per_record(self, tmp_path, capsys):
        path = self._seeded_ledger(tmp_path)
        assert main(["runs", "list", "--ledger", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "DInf" in lines[0] and "f1=0.500" in lines[0]
        assert "CSLS" in lines[1]

    def test_runs_list_filters_by_status(self, tmp_path, capsys):
        path = self._seeded_ledger(tmp_path)
        assert main([
            "runs", "list", "--ledger", str(path), "--status", "failed",
        ]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_runs_list_missing_ledger_fails(self, tmp_path, capsys):
        assert main([
            "runs", "list", "--ledger", str(tmp_path / "no.jsonl"),
        ]) == 1
        assert "no ledger" in capsys.readouterr().err

    def test_runs_show_accepts_unique_prefix(self, tmp_path, capsys):
        import json

        from repro.obs.ledger import RunLedger

        path = self._seeded_ledger(tmp_path)
        run_id = RunLedger(path).records()[0]["run_id"]
        assert main(["runs", "show", run_id[:8], "--ledger", str(path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["run_id"] == run_id
        assert document["matcher"] == "DInf"

    def test_runs_show_unknown_id_fails(self, tmp_path, capsys):
        path = self._seeded_ledger(tmp_path)
        assert main(["runs", "show", "zzzz", "--ledger", str(path)]) == 1
        assert "no record" in capsys.readouterr().err

    def test_runs_diff_reports_deltas_and_additions(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger, build_record

        old = self._seeded_ledger(tmp_path)
        new = tmp_path / "new" / "runs.jsonl"
        ledger = RunLedger(new)
        for matcher, f1 in (("DInf", 0.5), ("CSLS", 0.4), ("Hun.", 0.7)):
            ledger.append(build_record(
                fingerprint="abc", preset="dbp15k/zh_en", regime="R",
                task="dbp15k/zh_en", matcher=matcher, seed=0, scale=0.5,
                metric="cosine", status="ok",
                metrics={"precision": f1, "recall": f1, "f1": f1},
                ranking={"hits@1": f1},
            ))
        assert main(["runs", "diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "! dbp15k/zh_en/R/CSLS: f1 0.600 -> 0.400 (-0.200)" in out
        assert "= dbp15k/zh_en/R/DInf" in out
        assert "+ dbp15k/zh_en/R/Hun." in out



class TestDurabilityCommands:
    """``runs fsck``, ``store verify``, and ``match --resume/--durable``."""

    MATCH = ["match", "dbp15k/zh_en", "--matcher", "CSLS", "--scale", "0.2"]

    def _ledger(self, tmp_path, torn=False):
        from repro.obs.ledger import RunLedger, build_record

        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for matcher in ("DInf", "CSLS"):
            ledger.append(build_record(
                fingerprint="abc", preset="dbp15k/zh_en", regime="R",
                task="dbp15k/zh_en", matcher=matcher, seed=0, scale=0.5,
                metric="cosine", status="ok",
                metrics={"precision": 0.5, "recall": 0.5, "f1": 0.5},
                ranking={"hits@1": 0.5},
            ))
        if torn:
            with path.open("ab") as handle:
                handle.write(b'{"schema": "repro.run_ledger", "vers')
        return path

    def test_fsck_clean_ledger_exits_zero(self, tmp_path, capsys):
        path = self._ledger(tmp_path)
        assert main(["runs", "fsck", "--ledger", str(path)]) == 0
        assert "clean (2 records)" in capsys.readouterr().out

    def test_fsck_missing_ledger_exits_one(self, tmp_path, capsys):
        assert main(["runs", "fsck", "--ledger", str(tmp_path / "no.jsonl")]) == 1
        assert "no ledger" in capsys.readouterr().err

    def test_fsck_reports_torn_tail_without_repair(self, tmp_path, capsys):
        path = self._ledger(tmp_path, torn=True)
        size_before = path.stat().st_size
        assert main(["runs", "fsck", "--ledger", str(path)]) == 1
        err = capsys.readouterr().err
        assert "torn final line" in err and "--repair" in err
        assert path.stat().st_size == size_before

    def test_fsck_repair_truncates_into_bak_sidecar(self, tmp_path, capsys):
        path = self._ledger(tmp_path, torn=True)
        assert main(["runs", "fsck", "--ledger", str(path), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "2 records remain" in out
        backup = path.with_name("runs.jsonl.bak")
        assert backup.exists()
        assert backup.read_bytes().startswith(b'{"schema"')
        # The ledger is clean again.
        assert main(["runs", "fsck", "--ledger", str(path)]) == 0

    def test_fsck_mid_file_corruption_exits_two(self, tmp_path, capsys):
        path = self._ledger(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"garbage\n")
        path.write_bytes(b"".join(lines))
        assert main(["runs", "fsck", "--ledger", str(path), "--repair"]) == 2
        assert "UNREPAIRABLE" in capsys.readouterr().err

    def test_runs_list_survives_torn_tail_with_warning(self, tmp_path, capsys):
        path = self._ledger(tmp_path, torn=True)
        assert main(["runs", "list", "--ledger", str(path)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2
        assert "torn final line" in captured.err
        assert "fsck --repair" in captured.err

    def test_store_verify_ok(self, tmp_path, capsys):
        import numpy as np

        from repro.storage import EmbeddingStore

        path = tmp_path / "emb.bin"
        EmbeddingStore.write(
            path, np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32)
        ).close()
        assert main(["store", "verify", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_store_verify_detects_corruption(self, tmp_path, capsys):
        import numpy as np

        from repro.storage import HEADER_BYTES, EmbeddingStore

        path = tmp_path / "emb.bin"
        EmbeddingStore.write(
            path, np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32)
        ).close()
        raw = bytearray(path.read_bytes())
        raw[HEADER_BYTES + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert main(["store", "verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "CORRUPT" in err and "checksum mismatch" in err

    def test_store_verify_missing_file(self, tmp_path, capsys):
        assert main(["store", "verify", str(tmp_path / "no.bin")]) == 1
        assert "cannot open" in capsys.readouterr().err

    def test_store_verify_unsealed_store_fails(self, tmp_path, capsys):
        from repro.storage import EmbeddingStore

        path = tmp_path / "emb.bin"
        EmbeddingStore.create(path, (4, 2)).close()
        assert main(["store", "verify", str(path)]) == 1
        assert "UNSEALED" in capsys.readouterr().err

    def test_store_verify_legacy_store_without_checksum(self, tmp_path, capsys):
        import numpy as np

        from repro.storage import EmbeddingStore
        from repro.storage.memmap import _build_header

        array = np.ones((4, 2), dtype=np.float32)
        path = tmp_path / "emb.bin"
        # Pre-durability store: valid header, no checksum key at all.
        path.write_bytes(_build_header(array.shape, array.dtype) + array.tobytes())
        assert main(["store", "verify", str(path)]) == 0
        assert "no checksum recorded" in capsys.readouterr().out

    def test_match_resume_requires_ledger(self, capsys):
        assert main([*self.MATCH, "--resume"]) == 2
        assert "--resume requires --ledger" in capsys.readouterr().err

    def test_match_resume_mid_file_corruption_is_a_friendly_error(
        self, tmp_path, capsys
    ):
        path = self._ledger(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"garbage\n")
        path.write_bytes(b"".join(lines))
        assert main([*self.MATCH, "--ledger", str(path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert "corrupt ledger" in err and "fsck" in err

    def test_match_resume_appends_cleanly_after_torn_tail(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        path = self._ledger(tmp_path, torn=True)
        # Resume against the crashed ledger: the torn tail is healed into
        # a .bak sidecar and the new record lands as its own line.
        assert main([*self.MATCH, "--ledger", str(path), "--resume"]) == 0
        records = RunLedger(path).records()  # strict: fully valid again
        assert len(records) == 3
        assert records[-1]["matcher"] == "CSLS"
        assert path.with_name("runs.jsonl.bak").exists()

    def test_match_resume_skips_satisfied_cell(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        path = tmp_path / "runs.jsonl"
        assert main([*self.MATCH, "--ledger", str(path), "--durable"]) == 0
        (record,) = RunLedger(path).records()
        capsys.readouterr()
        assert main([*self.MATCH, "--ledger", str(path), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert record["run_id"][:12] in out
        assert len(RunLedger(path).records()) == 1  # nothing re-appended

    def test_match_resume_with_empty_ledger_runs(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main([*self.MATCH, "--ledger", str(path), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out and "F1=" in out


class TestHandlersRunPastTheirImports:
    """Each subcommand imports its modules when it runs; these cheap error
    exits run the handlers no other unmarked test reaches, so a broken
    import inside one fails here."""

    @pytest.mark.parametrize("argv, code, message", [
        (["profile", "summarize", "{tmp}/no.json"], 1, "cannot summarize"),
        (["runs", "drift", "--reference", "{tmp}/no.json"], 1, "cannot load reference"),
        (["serve", "--store", "{tmp}/no.store", "--index", "{tmp}/no.json"], 1,
         "cannot load serving state"),
        (["soak", "--duration", "1"], 2, "soak needs either --url"),
        (["obs", "scrape", "--url", "not-a-url"], 1, "cannot scrape"),
    ], ids=["profile", "runs-drift", "serve", "soak", "obs-scrape"])
    def test_error_exit(self, tmp_path, capsys, argv, code, message):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        assert message in capsys.readouterr().err

    def test_runs_record_with_no_reference_cells(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.obs.drift.reference_configs", lambda: [])
        ledger = tmp_path / "runs.jsonl"
        assert main(["runs", "record", "--ledger", str(ledger)]) == 0
        assert f"ledger at {ledger}" in capsys.readouterr().out
