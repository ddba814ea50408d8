from __future__ import annotations

import json

from analytika.corpus import CorpusEntry
from analytika.errors import MalformedReportError
from analytika.matchers import MatchRecord
from analytika.pipeline import AnalysisConfig, run_corpus
from analytika.report import (
    STATUS_OK,
    AppReport,
    deterministic_document,
    read_record,
    read_report_document,
    report_path,
    write_report,
)

import reportfuzz


def _report():
    return AppReport(
        sha256="ab" * 32,
        package_name="com.x.app",
        matches=[MatchRecord(
            detector_id="drm", target_class="android.media.MediaDrm",
            target_method="openSession", caller_class="com.x.app.P",
            dex_file="classes.dex", code_offset=64, location="inmain",
            attributed_package="com.x.app")],
        native_lib_hits=[("openssl", "lib/x86/libssl.so")],
        crypto_software_libs=["java_security"],
        api_summary={"drm": True},
        timings={"total": 0.5, "archive": 0.1})


def test_document_layout_is_the_stable_contract():
    doc = _report().to_document()
    assert set(doc) == {"meta", "matches", "native_libs", "crypto_libs",
                        "timing"}
    assert set(doc["meta"]) == {
        "package", "expected_package", "sha256", "status", "message",
        "package_name_check", "permissions", "min_sdk", "api_summary"}
    assert set(doc["matches"][0]) == {
        "detector", "target_class", "target_method", "caller_class",
        "dex_file", "code_offset", "location", "package"}
    assert doc["native_libs"] == [{"library": "openssl",
                                   "file": "lib/x86/libssl.so"}]
    assert doc["timing"]["total_s"] == 0.5
    assert doc["timing"]["stages"] == {"archive": 0.1}
    assert doc["meta"]["api_summary"]["drm"] is True
    assert doc["meta"]["api_summary"]["keystore"] is False


def test_write_is_atomic_named_by_sha_and_round_trips(tmp_path):
    report = _report()
    path = write_report(report, tmp_path)
    assert path == report_path(tmp_path, report.sha256)
    assert path.name == f"{'ab' * 32}.json"
    assert not list(tmp_path.glob("*.tmp"))
    assert read_report_document(path) == report.to_document()


def test_deterministic_document_drops_only_timing():
    doc = _report().to_document()
    trimmed = deterministic_document(doc)
    assert "timing" not in trimmed
    assert set(trimmed) == {"meta", "matches", "native_libs", "crypto_libs"}
    again = deterministic_document(_report().to_document())
    assert json.dumps(trimmed, sort_keys=True) == json.dumps(again,
                                                             sort_keys=True)


def test_mutated_reports_read_or_refuse_as_recorded(tmp_path):
    # Each case reads as a record or is refused with "<path>: <reason>";
    # any other exception fails here. The recorded outcomes pin which
    # field a refusal names and the facts of every record read.
    golden = json.loads(reportfuzz.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert reportfuzz.outcomes(tmp_path) == golden


def test_unknown_keys_leave_the_record_unchanged(tmp_path):
    (tmp_path / "base").mkdir()
    checked = 0
    for i, (kind, base, doc) in enumerate(reportfuzz.mutation_cases()):
        if kind == "unknown_key":
            assert (read_record(reportfuzz.write_case(tmp_path, i, doc))
                    == read_record(reportfuzz.write_case(
                        tmp_path / "base", i, base)))
            checked += 1
    assert checked == reportfuzz.CASE_COUNT // len(reportfuzz.KINDS)


def test_resume_skips_exactly_the_reports_read_as_ok(tmp_path):
    cases = reportfuzz.mutation_cases()
    written, read_ok = [], set()
    for i, (_, _, doc) in enumerate(cases):
        path = reportfuzz.write_case(tmp_path, i, doc)
        written.append(path.read_bytes())
        try:
            if read_record(path).status == STATUS_OK:
                read_ok.add(i)
        except MalformedReportError:
            pass
    assert 0 < len(read_ok) < len(cases)
    # Entries without a source fail fast, so every app not skipped gets a
    # fresh error report in place of its case.
    entries = [CorpusEntry(sha256=reportfuzz.case_path(tmp_path, i).stem)
               for i in range(len(cases))]
    summary = run_corpus(entries, AnalysisConfig(output_dir=tmp_path,
                                                 worker_count=1))
    kept = {i for i, data in enumerate(written)
            if reportfuzz.case_path(tmp_path, i).read_bytes() == data}
    assert kept == read_ok
    assert summary.skipped == len(read_ok)
