from __future__ import annotations

import json
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from analytika.container import MAX_ENTRY_SIZE, sha256_digest
from analytika.errors import HashMismatchError, HttpStatusError
from analytika.pipeline import (
    AnalysisConfig,
    CorpusEntry,
    analyze_apk,
    compare_package_names,
    fetch_by_hash,
    load_corpus_csv,
    run_corpus,
)
from analytika.report import deterministic_document, read_report_document

from conftest import make_fixture_apk, planted_apk


def _config(tmp_path, **kwargs):
    kwargs.setdefault("output_dir", tmp_path / "reports")
    return AnalysisConfig(**kwargs)


def _entry_for(data: bytes, path=None, **kwargs) -> CorpusEntry:
    return CorpusEntry(sha256=sha256_digest(data),
                       source=str(path) if path else "", **kwargs)


def test_analyze_planted_fixture(tmp_path, fixture_apk_bytes):
    entry = _entry_for(fixture_apk_bytes,
                       expected_package_name="com.fixture.app")
    report = analyze_apk(fixture_apk_bytes, entry, _config(tmp_path))
    assert report.status == "ok"
    assert report.package_name == "com.fixture.app"
    assert report.package_name_check == "match"
    assert len(report.matches) == 6
    assert report.api_summary == {"keystore": True, "drm": True,
                                  "biometrics": True,
                                  "protected_confirmation": True}
    assert report.native_lib_hits == [
        ("openssl", "lib/arm64-v8a/libcrypto.so")]
    assert report.crypto_software_libs == []
    # bytecode time is split by layer; there is no combined stage
    assert {"inflate", "dex_parse", "match"} <= report.timings.keys()
    assert "dex" not in report.timings

    by_caller = {m.caller_class: m.location for m in report.matches}
    assert by_caller["com.fixture.app.MainActivity"] == "inmain"
    assert by_caller["com.fixture.app.BioHelper"] == "inmain"
    assert by_caller["com.thirdparty.sdk.Tracker"] == "inlib"
    assert {m.attributed_package for m in report.matches} == {
        "com.fixture.app", "com.thirdparty.sdk"}


def test_analyze_single_drm_plant(tmp_path):
    apk = make_fixture_apk(dex_plans=[[
        ("com.fixture.app.Player", [("android.media.MediaDrm", "<init>")]),
    ]])
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert report.status == "ok"
    assert [m.detector_id for m in report.matches] == ["drm"]


def test_hash_mismatch_is_error(tmp_path, fixture_apk_bytes):
    entry = CorpusEntry(sha256="0" * 64)
    report = analyze_apk(fixture_apk_bytes, entry, _config(tmp_path))
    assert report.status == "error"
    assert "hash mismatch" in report.message
    assert report.matches == []


def test_truncated_apk_is_error(tmp_path, fixture_apk_bytes):
    broken = fixture_apk_bytes[:len(fixture_apk_bytes) // 3]
    report = analyze_apk(broken, _entry_for(broken), _config(tmp_path))
    assert report.status == "error"
    assert report.matches == []


def _patch_declared_size(apk: bytes, name: str, size: int) -> bytes:
    """Set one entry's central-directory uncompressed size field."""
    data = bytearray(apk)
    eocd = data.rfind(b"PK\x05\x06")
    count, _cd_size, off = struct.unpack_from("<HII", data, eocd + 10)
    for _ in range(count):
        name_len, extra_len, comment_len = struct.unpack_from(
            "<3H", data, off + 28)
        if data[off + 46:off + 46 + name_len] == name.encode():
            struct.pack_into("<I", data, off + 24, size)
            return bytes(data)
        off += 46 + name_len + extra_len + comment_len
    raise KeyError(name)


def test_entry_declared_past_size_cap_is_one_error(tmp_path):
    apk = _patch_declared_size(
        make_fixture_apk(dex_plans=[[("com.a.B", [("x.y.Z", "go")])]]),
        "classes.dex", MAX_ENTRY_SIZE + 1)
    entries = _write_corpus(tmp_path, {"capped": apk})
    summary = run_corpus(entries, _config(tmp_path))
    assert summary.as_dict() == {"analyzed": 1, "ok": 0, "timeout": 0,
                                 "error": 1, "skipped": 0}
    reports = sorted((tmp_path / "reports").glob("*.json"))
    assert len(reports) == 1
    doc = read_report_document(reports[0])
    assert doc["meta"]["status"] == "error"
    assert "limit" in doc["meta"]["message"]
    assert doc["matches"] == []


def test_missing_manifest_is_error(tmp_path):
    from conftest import make_apk
    apk = make_apk({"classes.dex": b"junk"})
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert report.status == "error"
    assert "manifest" in report.message


def test_zero_timeout_rejected(tmp_path):
    with pytest.raises(ValueError):
        _config(tmp_path, timeout_seconds=0)
    with pytest.raises(ValueError):
        _config(tmp_path, worker_count=0)


def test_slow_app_times_out(tmp_path, slow_apk):
    config = _config(tmp_path, timeout_seconds=1)
    started = time.monotonic()
    report = analyze_apk(slow_apk, _entry_for(slow_apk), config)
    elapsed = time.monotonic() - started
    assert report.status == "timeout"
    assert report.matches == []
    assert elapsed < 3.0   # deadline plus bounded grace


def test_crypto_and_proguard_attribution(tmp_path):
    apk = make_fixture_apk(dex_plans=[[
        ("b.d.E", [("android.media.MediaDrm", "openSession")]),
        ("com.vendor.pkg.Api", [("com.google.crypto.tink.Aead", "encrypt")]),
    ]])
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    locations = {m.caller_class: m.location for m in report.matches}
    assert locations["b.d.E"] == "inmain"
    assert report.crypto_software_libs == ["google_tink"]

    config = _config(tmp_path, proguard_as_main=False)
    report2 = analyze_apk(apk, _entry_for(apk), config)
    locations2 = {m.caller_class: m.location for m in report2.matches}
    assert locations2["b.d.E"] == "inlib"


def test_repeated_analysis_is_deterministic(tmp_path, fixture_apk_bytes):
    entry = _entry_for(fixture_apk_bytes)
    config = _config(tmp_path)
    first = analyze_apk(fixture_apk_bytes, entry, config)
    second = analyze_apk(fixture_apk_bytes, entry, config)
    assert first.timings != {} and second.timings != {}
    a = json.dumps(deterministic_document(first.to_document()), sort_keys=True)
    b = json.dumps(deterministic_document(second.to_document()), sort_keys=True)
    assert a == b


def test_compare_package_names():
    assert compare_package_names(None, "com.a") == "unchecked"
    assert compare_package_names("com.package", "com.package") == "match"
    assert compare_package_names("com.package", "com.package.xyz") == "prefix"
    assert compare_package_names("com.package.xyz", "com.package") == "prefix"
    assert compare_package_names("com.package", "com.packageX") == "mismatch"
    assert compare_package_names("org.other", "com.package") == "mismatch"


def _write_corpus(tmp_path, apps: dict[str, bytes]):
    apk_dir = tmp_path / "apks"
    apk_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, data in apps.items():
        path = apk_dir / f"{name}.apk"
        path.write_bytes(data)
        entries.append(CorpusEntry(sha256=sha256_digest(data),
                                   source=str(path)))
    return entries


def test_corpus_run_counts_and_resume(tmp_path, slow_apk):
    apps = {f"good{i}": make_fixture_apk(
        package=f"com.good{i}.app",
        dex_plans=[[(f"com.good{i}.app.M",
                     [("android.media.MediaDrm", "openSession")])]])
        for i in range(5)}
    apps["slow"] = slow_apk
    apps["broken"] = apps["good0"][:200]
    entries = _write_corpus(tmp_path, apps)

    config = _config(tmp_path, timeout_seconds=1, worker_count=4)
    summary = run_corpus(entries, config)
    assert summary.as_dict() == {"analyzed": 7, "ok": 5, "timeout": 1,
                                 "error": 1, "skipped": 0}
    assert (tmp_path / "reports" / "run.log").exists()

    # ok reports are skipped on resume; failures are retried
    summary2 = run_corpus(entries, config)
    assert summary2.skipped == 5
    assert summary2.analyzed == 2

    config_force = _config(tmp_path, timeout_seconds=1, worker_count=4,
                           force=True)
    summary3 = run_corpus(entries, config_force)
    assert summary3.analyzed == 7
    assert summary3.skipped == 0


def test_empty_corpus(tmp_path):
    summary = run_corpus([], _config(tmp_path))
    assert summary.as_dict() == {"analyzed": 0, "ok": 0, "timeout": 0,
                                 "error": 0, "skipped": 0}


def test_poisoned_fixture_does_not_affect_others(tmp_path, slow_apk):
    apps = {f"app{i}": make_fixture_apk(
        package=f"com.app{i}.main",
        dex_plans=[[(f"com.app{i}.main.M",
                     [("android.security.KeyChain", "getPrivateKey")])]])
        for i in range(4)}
    clean_entries = _write_corpus(tmp_path / "clean", apps)
    clean_config = AnalysisConfig(output_dir=tmp_path / "clean" / "reports",
                                  timeout_seconds=5)
    run_corpus(clean_entries, clean_config)

    poisoned = dict(apps)
    poisoned["slow"] = slow_apk
    mixed_entries = _write_corpus(tmp_path / "mixed", poisoned)
    mixed_config = AnalysisConfig(output_dir=tmp_path / "mixed" / "reports",
                                  timeout_seconds=1, worker_count=4)
    run_corpus(mixed_entries, mixed_config)

    for entry in clean_entries:
        clean_doc = read_report_document(
            tmp_path / "clean" / "reports" / f"{entry.sha256}.json")
        mixed_doc = read_report_document(
            tmp_path / "mixed" / "reports" / f"{entry.sha256}.json")
        clean_bytes = json.dumps(deterministic_document(clean_doc),
                                 sort_keys=True)
        mixed_bytes = json.dumps(deterministic_document(mixed_doc),
                                 sort_keys=True)
        assert clean_bytes == mixed_bytes


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    config = AnalysisConfig(output_dir=blocker)
    with pytest.raises(OSError):
        run_corpus([], config)


def test_remote_entry_without_endpoint_errors(tmp_path):
    entry = CorpusEntry(sha256="a" * 64, source="remote")
    summary = run_corpus([entry], _config(tmp_path))
    assert summary.error == 1
    doc = read_report_document(tmp_path / "reports" / f"{'a' * 64}.json")
    assert "could not load app bytes" in doc["meta"]["message"]


def test_load_corpus_csv(tmp_path):
    apk = planted_apk()
    (tmp_path / "app.apk").write_bytes(apk)
    sha = sha256_digest(apk)
    csv_path = tmp_path / "corpus.csv"
    csv_path.write_text(
        "sha256,package_name,category,downloads,last_update,path_or_remote\n"
        f"{sha},com.fixture.app,Finance,12000,2021-05-01,app.apk\n"
        f"{'b' * 64},com.other.app,Tools,,,remote\n")
    entries = load_corpus_csv(csv_path)
    assert len(entries) == 2
    assert entries[0].downloads == 12000
    assert entries[0].source == str(tmp_path / "app.apk")
    assert entries[1].source == "remote"
    assert entries[1].downloads is None


class _StubHandler(BaseHTTPRequestHandler):
    fixture = b""
    fixture_sha = ""

    def do_GET(self):
        query = parse_qs(urlparse(self.path).query)
        sha = query.get("sha256", [""])[0]
        if sha == self.fixture_sha:
            body = self.fixture
        elif sha == "f" * 64:
            body = b"these are not the bytes you wanted"
        else:
            self.send_response(403)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server(fixture_apk_bytes):
    _StubHandler.fixture = fixture_apk_bytes
    _StubHandler.fixture_sha = sha256_digest(fixture_apk_bytes)
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/download"
    server.shutdown()
    server.server_close()


def test_fetch_by_hash_round_trip(stub_server, fixture_apk_bytes):
    sha = sha256_digest(fixture_apk_bytes)
    data = fetch_by_hash(sha, stub_server, "test-key")
    assert data == fixture_apk_bytes


def test_fetch_by_hash_wrong_bytes(stub_server):
    with pytest.raises(HashMismatchError):
        fetch_by_hash("f" * 64, stub_server, "test-key")


def test_fetch_by_hash_http_status(stub_server):
    with pytest.raises(HttpStatusError) as exc_info:
        fetch_by_hash("0" * 64, stub_server, "test-key")
    assert exc_info.value.code == 403
