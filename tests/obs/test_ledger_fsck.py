"""Ledger WAL durability: torn-tail recovery, fsck, durable appends.

An interrupted append can tear at most the final line, so the tolerant
reader recovers every complete record and reports the tail; a bad line
*followed by* valid records was never an interrupted append, so it is
mid-file corruption and always raises.  ``fsck --repair`` truncates a
torn tail into a ``.bak`` sidecar and never touches anything else.
"""

import json

import pytest

from repro.obs.ledger import RunLedger, build_record, cell_key
from repro.testing.faults import TornWriteInjector

pytestmark = pytest.mark.obs


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


def _seeded_ledger(tmp_path, matchers=("DInf", "CSLS"), durable=False):
    ledger = RunLedger(tmp_path / "runs.jsonl", durable=durable)
    for matcher in matchers:
        ledger.append(_record(matcher=matcher))
    return ledger


def _tear_tail(ledger, keep_bytes=20):
    """Append a torn (truncated mid-record) final line; return its bytes."""
    torn = json.dumps(_record(matcher="Hun.")).encode()[:keep_bytes]
    with ledger.path.open("ab") as handle:
        handle.write(torn)
    return torn


class TestDurableAppend:
    def test_durable_default_and_per_append_override(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl", durable=True)
        ledger.append(_record(matcher="DInf"))
        ledger.append(_record(matcher="CSLS"), durable=False)
        assert [r["matcher"] for r in ledger.records()] == ["DInf", "CSLS"]

    def test_durable_append_creates_parent_directories(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "runs.jsonl", durable=True)
        ledger.append(_record())
        assert len(ledger.records()) == 1


class TestTornTail:
    def test_scan_recovers_complete_records_and_reports_tail(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        torn = _tear_tail(ledger)
        scan = ledger.scan()
        assert [r["matcher"] for r in scan.records] == ["DInf", "CSLS"]
        assert scan.torn is not None
        assert scan.torn.lineno == 3
        assert scan.torn.nbytes == len(torn)
        assert "torn final line" in scan.torn.reason
        raw = ledger.path.read_bytes()
        assert raw[scan.torn.byte_offset :] == torn

    def test_strict_read_raises_with_recoverable_count_and_hint(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        _tear_tail(ledger)
        with pytest.raises(ValueError) as excinfo:
            ledger.records()
        message = str(excinfo.value)
        assert f"{ledger.path}:3" in message
        assert "2 complete records recoverable" in message
        assert "repro runs fsck --repair" in message

    def test_tolerant_read_returns_complete_records(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        _tear_tail(ledger)
        assert len(ledger.records(strict=False)) == 2
        cells = ledger.latest_cells(strict=False)
        assert {key[2] for key in cells} == {"DInf", "CSLS"}

    def test_blank_padded_tail_is_reported_as_torn(self, tmp_path):
        ledger = _seeded_ledger(tmp_path, matchers=("DInf",))
        with ledger.path.open("ab") as handle:
            handle.write(b" \x00\x00   ")
        scan = ledger.scan()
        assert len(scan.records) == 1
        assert scan.torn is not None
        assert "blank-padded" in scan.torn.reason

    def test_unterminated_but_valid_final_line_is_complete(self, tmp_path):
        ledger = _seeded_ledger(tmp_path, matchers=("DInf",))
        record = _record(matcher="CSLS")
        with ledger.path.open("ab") as handle:
            handle.write(json.dumps(record).encode())  # no trailing newline
        scan = ledger.scan()
        assert [r["matcher"] for r in scan.records] == ["DInf", "CSLS"]
        assert scan.torn is None

    def test_valid_json_failing_validation_counts_as_torn(self, tmp_path):
        ledger = _seeded_ledger(tmp_path, matchers=("DInf",))
        with ledger.path.open("ab") as handle:
            handle.write(b'{"schema": "wrong.schema"}\n')
        scan = ledger.scan()
        assert len(scan.records) == 1
        assert scan.torn is not None and "schema" in scan.torn.reason

    def test_injected_torn_write_is_recoverable(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        clean_size = ledger.path.stat().st_size
        line = json.dumps(_record(matcher="Hun.")).encode() + b"\n"
        # Deterministic power-cut: only a prefix of the appended line
        # reaches the file, exactly what a crash mid-append leaves.
        offset = TornWriteInjector(seed=3).tear_offset(len(line))
        with ledger.path.open("ab") as handle:
            handle.write(line[:offset])
        if offset == len(line):  # the append happened to complete
            assert len(ledger.records()) == 3
        else:
            assert len(ledger.records(strict=False)) == 2
            assert ledger.scan().torn.byte_offset == clean_size


class TestAppendHealsTail:
    """append() never concatenates onto a newline-less tail.

    Resuming after a crash appends to the very ledger the crash tore;
    without healing, the new record would merge into the torn bytes —
    silently lost, and promoted to mid-file corruption by the next
    append.
    """

    def test_append_after_torn_tail_repairs_into_bak(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        torn = _tear_tail(ledger)
        ledger.append(_record(matcher="Hun."))
        records = ledger.records()  # strict: the ledger is fully valid
        assert [r["matcher"] for r in records] == ["DInf", "CSLS", "Hun."]
        backup = ledger.path.with_name("runs.jsonl.bak")
        assert backup.read_bytes() == torn

    def test_append_completes_valid_record_missing_newline(self, tmp_path):
        ledger = _seeded_ledger(tmp_path, matchers=("DInf",))
        with ledger.path.open("ab") as handle:
            handle.write(json.dumps(_record(matcher="CSLS")).encode())  # no \n
        ledger.append(_record(matcher="Hun."))
        records = ledger.records()
        # The unterminated-but-complete record survives, nothing merged.
        assert [r["matcher"] for r in records] == ["DInf", "CSLS", "Hun."]
        assert not ledger.path.with_name("runs.jsonl.bak").exists()

    def test_append_after_blank_padded_tail_repairs(self, tmp_path):
        ledger = _seeded_ledger(tmp_path, matchers=("DInf",))
        with ledger.path.open("ab") as handle:
            handle.write(b" \x00\x00 ")
        ledger.append(_record(matcher="Hun."))
        assert [r["matcher"] for r in ledger.records()] == ["DInf", "Hun."]

    def test_append_refuses_mid_file_corruption(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"garbage\n")
        # No trailing newline: the tail check kicks in and the scan
        # finds the mid-file damage before any byte is appended.
        ledger.path.write_bytes(b"".join(lines) + b'{"torn": tru')
        raw_before = ledger.path.read_bytes()
        with pytest.raises(ValueError, match="mid-file corruption"):
            ledger.append(_record(matcher="Hun."))
        assert ledger.path.read_bytes() == raw_before

    def test_durable_resume_round_trip_after_torn_append(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl", durable=True)
        ledger.append(_record(matcher="DInf"))
        _tear_tail(ledger)
        ledger.append(_record(matcher="CSLS"))
        ledger.append(_record(matcher="Hun."))
        assert [r["matcher"] for r in ledger.records()] == [
            "DInf", "CSLS", "Hun.",
        ]
        assert ledger.fsck().clean


class TestMidFileCorruption:
    def _corrupt_middle(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b'{"torn": "then more records followed"}\n')
        ledger.path.write_bytes(b"".join(lines))
        return ledger

    def test_raises_in_both_modes(self, tmp_path):
        ledger = self._corrupt_middle(tmp_path)
        for read in (lambda: ledger.records(), lambda: ledger.records(strict=False)):
            with pytest.raises(ValueError, match="mid-file corruption"):
                read()

    def test_error_names_path_and_line(self, tmp_path):
        ledger = self._corrupt_middle(tmp_path)
        with pytest.raises(ValueError, match=rf"{ledger.path}:2"):
            ledger.scan()

    def test_flipped_separator_is_mid_file_corruption(self, tmp_path):
        # Any flip of the newline between records 2 and 3 joins them into
        # one final line.  A torn write never leaves a complete record
        # followed by more content, so this is corruption: typed, located,
        # and fsck --repair must not move the two records to a sidecar.
        ledger = _seeded_ledger(tmp_path, matchers=("DInf", "CSLS", "Hun."))
        raw = ledger.path.read_bytes()
        separator = raw.index(b"\n", raw.index(b"\n") + 1)
        for mask in range(1, 256):
            flipped = bytearray(raw)
            flipped[separator] ^= mask
            ledger.path.write_bytes(bytes(flipped))
            for read in (ledger.records, lambda: ledger.records(strict=False)):
                with pytest.raises(ValueError, match=rf"{ledger.path}:2: "):
                    read()
            report = ledger.fsck(repair=True)
            assert "mid-file corruption" in report.error
            assert not report.repaired
            assert ledger.path.read_bytes() == bytes(flipped)

    def test_complete_record_then_padding_stays_a_torn_tail(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        raw = ledger.path.read_bytes()
        ledger.path.write_bytes(raw[:-1] + b" \x00\x00\t")
        scan = ledger.scan()
        assert len(scan.records) == 1
        assert scan.torn is not None and scan.torn.lineno == 2

    def test_legacy_blank_separator_lines_still_tolerated(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        ledger.path.write_bytes(lines[0] + b"\n" + lines[1])
        assert len(ledger.records()) == 2


class TestFsck:
    def test_clean_ledger_reports_record_count(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        report = ledger.fsck()
        assert report.clean and report.n_records == 2
        assert report.torn is None and not report.repaired

    def test_missing_ledger_is_clean_and_empty(self, tmp_path):
        report = RunLedger(tmp_path / "absent.jsonl").fsck()
        assert report.clean and report.n_records == 0

    def test_torn_tail_reported_without_repair(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        _tear_tail(ledger)
        size_before = ledger.path.stat().st_size
        report = ledger.fsck()
        assert not report.clean and report.torn is not None
        assert not report.repaired and report.backup is None
        assert ledger.path.stat().st_size == size_before  # untouched

    def test_repair_truncates_tail_into_bak_sidecar(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        torn = _tear_tail(ledger)
        report = ledger.fsck(repair=True)
        assert report.clean and report.repaired
        assert report.n_records == 2
        assert report.backup == ledger.path.with_name("runs.jsonl.bak")
        assert report.backup.read_bytes() == torn
        # The repaired ledger is fully valid again, records preserved.
        records = ledger.records()
        assert [r["matcher"] for r in records] == ["DInf", "CSLS"]
        assert ledger.fsck().clean
        # And appending continues from the clean tail.
        ledger.append(_record(matcher="Hun."))
        assert len(ledger.records()) == 3
        assert cell_key(ledger.records()[-1])[2] == "Hun."

    def test_second_repair_does_not_clobber_first_backup(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        first_torn = _tear_tail(ledger, keep_bytes=20)
        first = ledger.fsck(repair=True)
        second_torn = _tear_tail(ledger, keep_bytes=30)
        second = ledger.fsck(repair=True)
        assert second.backup != first.backup
        assert second.backup == ledger.path.with_name("runs.jsonl.bak.1")
        assert first.backup.read_bytes() == first_torn  # still preserved
        assert second.backup.read_bytes() == second_torn
        assert ledger.fsck().clean

    def test_repair_refuses_mid_file_corruption(self, tmp_path):
        ledger = _seeded_ledger(tmp_path)
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        lines.insert(1, b"garbage\n")
        ledger.path.write_bytes(b"".join(lines))
        raw_before = ledger.path.read_bytes()
        report = ledger.fsck(repair=True)
        assert report.error is not None and not report.clean
        assert "mid-file corruption" in report.error
        assert not report.repaired
        assert ledger.path.read_bytes() == raw_before  # nothing truncated
