from __future__ import annotations

import json

import pytest

from analytika.corpus import CorpusEntry
from analytika.defaults import write_text
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
import synth


def _report():
    return AppReport(
        sha256="ab" * 32,
        package_name="com.x.app",
        matches=[MatchRecord(
            detector="drm", target_class="android.media.MediaDrm",
            target_method="openSession", caller_class="com.x.app.P",
            dex_file="classes.dex", code_offset=64, location="inmain",
            package="com.x.app")],
        native_lib_hits=[("openssl", "lib/x86/libssl.so")],
        timings={"total": 0.5, "archive": 0.1})


def test_document_layout_is_the_stable_contract():
    report = _report()
    report.matches.append(MatchRecord(
        detector="java_security", target_class="javax.crypto.Cipher",
        target_method="getInstance", caller_class="com.x.app.P",
        dex_file="classes.dex", code_offset=96, location="inmain",
        package="com.x.app"))
    doc = report.to_document()
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
    # Both summaries follow from the detectors of the matches.
    assert doc["meta"]["api_summary"] == {
        "keystore": False, "drm": True, "biometrics": False,
        "protected_confirmation": False}
    assert doc["crypto_libs"] == ["java_security"]


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
    # Each case is written under its own sha-shaped name, but most carry
    # their base document's meta.sha256: a report read as ok is skipped only
    # when its meta.sha256 names the app it is filed under.
    cases = reportfuzz.mutation_cases()
    written, read_ok, named_other = [], set(), set()
    for i, (_, _, doc) in enumerate(cases):
        path = reportfuzz.write_case(tmp_path, i, doc)
        written.append(path.read_bytes())
        try:
            record = read_record(path)
        except MalformedReportError:
            continue
        if record.status == STATUS_OK:
            (read_ok if record.sha256 == path.stem else named_other).add(i)
    assert 0 < len(read_ok) < len(cases)
    assert named_other
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


def _lf_twin_error(data: bytes) -> str:
    """json's message for `data` with its \\r\\n and \\r line ends read as \\n."""
    text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


_CRLF_MALFORMED = b'{\r\n  "meta": {\r\n    "status": "ok",\r\n  }\r\n}\r\n'
_CR_MALFORMED = b'{\r"meta":\r\r\n{"status": "ok",}}'
_DOC = {"meta": {"sha256": "cd" * 32, "status": "ok"},
        "matches": [{"detector": "drm", "location": "inmain"}],
        "crypto_libs": ["bouncycastle"]}


@pytest.mark.parametrize("data, reason", [
    (b"\xef\xbb\xbf" + json.dumps(_DOC).encode(),
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{"meta": {"package": "\xff"}}',
     "'utf-8' codec can't decode byte 0xff in position 22: invalid start byte"),
    (json.dumps(_DOC).encode("utf-16"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (_CRLF_MALFORMED, _lf_twin_error(_CRLF_MALFORMED)),
    (_CR_MALFORMED, _lf_twin_error(_CR_MALFORMED)),
], ids=["utf8-bom", "invalid-utf8", "utf16", "crlf-malformed",
        "cr-malformed"])
def test_refused_encodings_and_line_ends_keep_their_reason(tmp_path, data,
                                                           reason):
    # Reports are UTF-8 only, and a parse error counts its offset in text
    # whose \r\n and \r line ends read as \n.
    path = tmp_path / "report.json"
    path.write_bytes(data)
    with pytest.raises(MalformedReportError) as info:
        read_record(path)
    assert str(info.value) == f"{path}: {reason}"


def test_crlf_report_reads_as_its_lf_twin(tmp_path):
    text = json.dumps(_DOC, indent=2) + "\n"
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert read_record(crlf) == read_record(lf)
    assert read_report_document(crlf) == _DOC


def test_str_path_reads_as_path_and_stem_fills_only_absent_sha256(tmp_path):
    path = tmp_path / "stem.json"
    path.write_text(json.dumps(_DOC))
    assert read_record(str(path)) == read_record(path)
    path.write_text('{"meta": {"status": "error"}}')
    assert read_record(str(path)).sha256 == "stem"
    path.write_text('{"meta": {"sha256": null}}')
    with pytest.raises(MalformedReportError) as info:
        read_record(str(path))
    assert str(info.value) == f"{path}: field meta.sha256 is not a string"


def test_a_report_without_a_format_reads_as_format_1(tmp_path):
    marked = {**_DOC, "meta": {**_DOC["meta"], "format": 1}}
    bare, explicit = tmp_path / "bare.json", tmp_path / "explicit.json"
    bare.write_text(json.dumps(_DOC))
    explicit.write_text(json.dumps(marked))
    assert read_record(explicit) == read_record(bare)


@pytest.mark.parametrize("status", ["ok", "error", "timeout"])
@pytest.mark.parametrize("found", [2, True, "1", 1.0, None],
                         ids=["2", "true", "string", "float", "null"])
def test_a_report_of_another_format_is_refused_whatever_its_status(
        tmp_path, found, status):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"meta": {"sha256": "cd" * 32,
                                         "status": status, "format": found}}))
    with pytest.raises(MalformedReportError) as info:
        read_record(path)
    assert str(info.value) == (
        f"{path}: report format {json.dumps(found)} is not format 1, "
        "the one this version reads")


def test_write_text_changes_no_file_when_a_later_one_cannot_be_written(
        tmp_path):
    first = tmp_path / "first.csv"
    first.write_text("old\n")
    with pytest.raises(FileNotFoundError):
        write_text({first: "new\n", tmp_path / "missing" / "second.csv": ""})
    assert first.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["first.csv"]


def test_read_record_keeps_no_table(tmp_path):
    path = synth.write_report(tmp_path, synth.report_doc(
        synth.sha_for(0), matches=[synth.make_match("drm")],
        crypto=("bouncycastle",)))
    first, second = read_record(path), read_record(path)
    assert first == second
    for name in ("detectors", "location_counts", "inlib_packages",
                 "crypto_libs"):
        assert getattr(first, name) is not getattr(second, name), name
