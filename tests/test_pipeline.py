from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time
import zlib
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace
from urllib.parse import parse_qs, urlparse

import pytest

from analytika.container import MAX_ENTRY_SIZE, sha256_digest
from analytika.corpus import CorpusEntry, load_corpus_csv
from analytika import pipeline
from analytika.dex import parse_dex
from analytika.errors import (
    AnalysisTimeout,
    HashMismatchError,
    HttpStatusError,
    MalformedDexError,
    NetworkError,
)
from analytika.matchers import load_patterns
from analytika.pipeline import (
    AnalysisConfig,
    _failure_report,
    analyze_apk,
    compare_package_names,
    fetch_by_hash,
    run_corpus,
)
from analytika.report import deterministic_document, read_report_document

import conftest
from axml_encoder import manifest_bytes
from conftest import (PLANTED_PLAN, CheckCountDeadline, make_apk,
                      make_fixture_apk, planted_apk)
from dexbuild import build_fixture_dex


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
    doc = report.to_document()
    assert doc["meta"]["api_summary"] == {"keystore": True, "drm": True,
                                          "biometrics": True,
                                          "protected_confirmation": True}
    assert report.native_lib_hits == [
        ("openssl", "lib/arm64-v8a/libcrypto.so")]
    assert doc["crypto_libs"] == []
    # bytecode time is split by layer; there is no combined stage
    assert {"inflate", "dex_parse", "match"} <= report.timings.keys()
    assert "dex" not in report.timings

    by_caller = {m.caller_class: m.location for m in report.matches}
    assert by_caller["com.fixture.app.MainActivity"] == "inmain"
    assert by_caller["com.fixture.app.BioHelper"] == "inmain"
    assert by_caller["com.thirdparty.sdk.Tracker"] == "inlib"
    assert {m.package for m in report.matches} == {
        "com.fixture.app", "com.thirdparty.sdk"}


def test_analyze_single_drm_plant(tmp_path):
    apk = make_fixture_apk(dex_plans=[[
        ("com.fixture.app.Player", [("android.media.MediaDrm", "<init>")]),
    ]])
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert report.status == "ok"
    assert [m.detector for m in report.matches] == ["drm"]


def test_fingerprint_manager_from_app_code_is_one_biometrics_inmain_match(
        tmp_path):
    apk = make_fixture_apk(dex_plans=[[
        ("com.fixture.app.LegacyAuth", [
            ("android.hardware.fingerprint.FingerprintManager",
             "authenticate")]),
    ]])
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert [(m.detector, m.location) for m in report.matches] == [
        ("biometrics", "inmain")]


def test_hash_mismatch_is_error(tmp_path, fixture_apk_bytes, monkeypatch):
    # The failure report is built while the stage's exception is handled.
    raised = []

    def failure_report(*args):
        raised.append(sys.exc_info()[0])
        return _failure_report(*args)

    monkeypatch.setattr(pipeline, "_failure_report", failure_report)
    entry = CorpusEntry(sha256="0" * 64)
    report = analyze_apk(fixture_apk_bytes, entry, _config(tmp_path))
    assert raised == [HashMismatchError]
    assert report.status == "error"
    assert "hash mismatch" in report.message
    assert report.matches == []


def test_truncated_apk_is_error(tmp_path, fixture_apk_bytes):
    broken = fixture_apk_bytes[:len(fixture_apk_bytes) // 3]
    report = analyze_apk(broken, _entry_for(broken), _config(tmp_path))
    assert report.status == "error"
    assert report.matches == []


def _with_undefined_opcode(caller: str) -> bytes:
    """The planted plan plus a class that invokes no pattern entry, with
    the return-void after `caller`'s last invoke made the undefined opcode
    0x3e."""
    data = bytearray(build_fixture_dex(PLANTED_PLAN + [
        ("com.fixture.app.Plain", [("com.example.util.Helper", "doWork")])]))
    unit = parse_dex(bytes(data))
    last = max(offset for k, offset in zip(unit.invoke_callers,
                                            unit.invoke_offsets)
               if unit.class_names[k] == caller)
    assert data[last + 6:last + 8] == b"\x0e\x00"
    data[last + 6] = 0x3E
    with pytest.raises(MalformedDexError, match="invalid opcode 0x3e"):
        parse_dex(bytes(data))          # the full walk fails either way
    return make_fixture_apk(extra_entries={"classes.dex": bytes(data)})


def test_undefined_opcode_fails_the_app_only_in_code_that_can_hit(tmp_path):
    clean = make_fixture_apk(dex_plans=[PLANTED_PLAN + [
        ("com.fixture.app.Plain", [("com.example.util.Helper", "doWork")])]])
    expected = analyze_apk(clean, _entry_for(clean), _config(tmp_path))
    assert expected.status == "ok" and expected.matches

    # Code that invokes no pattern entry is not walked.
    plain = _with_undefined_opcode("com.fixture.app.Plain")
    report = analyze_apk(plain, _entry_for(plain), _config(tmp_path))
    assert (report.status, report.matches) == ("ok", expected.matches)

    # Code that also invokes a TEE API is walked, and fails the app.
    hit = _with_undefined_opcode("com.fixture.app.MainActivity")
    report = analyze_apk(hit, _entry_for(hit), _config(tmp_path))
    assert report.status == "error"
    assert "invalid opcode 0x3e" in report.message
    assert report.matches == []


def test_failed_app_keeps_no_partial_results(tmp_path):
    # classes.dex is matched before classes2.dex fails to parse; none of
    # its matches, nor the manifest or native facts, may reach the report.
    plan = PLANTED_PLAN + [
        ("com.fixture.app.Vault", [("org.bouncycastle.crypto.Digest",
                                    "update")])]
    good = make_fixture_apk(dex_plans=[plan],
                            native_libs=("lib/arm64-v8a/libcrypto.so",))
    meta = analyze_apk(good, _entry_for(good), _config(tmp_path)).to_document()
    assert meta["matches"] and meta["crypto_libs"] and meta["native_libs"]
    assert all(meta["meta"]["api_summary"].values())

    apk = make_fixture_apk(dex_plans=[plan],
                           native_libs=("lib/arm64-v8a/libcrypto.so",),
                           extra_entries={"classes2.dex": b"dex\n035\0junk"})
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert "match" in report.timings     # the failure came after matching
    doc = report.to_document()
    assert doc["meta"]["status"] == "error"
    assert doc["meta"]["package"] == ""
    assert doc["matches"] == []
    assert doc["crypto_libs"] == []
    assert doc["native_libs"] == []
    assert not any(doc["meta"]["api_summary"].values())


def test_timeout_at_any_check_keeps_no_partial_results(tmp_path,
                                                      monkeypatch):
    # Two bytecode entries, a crypto and a native hit: every stage runs,
    # and a deadline that expires at any one of its checks, the last (after
    # the native stage) included, leaves only the app's identity.
    plan = PLANTED_PLAN + [
        ("com.fixture.app.Vault", [("org.bouncycastle.crypto.Digest",
                                    "update")])]
    apk = make_fixture_apk(
        dex_plans=[plan, [("com.fixture.app.Player",
                           [("android.media.MediaDrm", "<init>")])]],
        native_libs=("lib/arm64-v8a/libcrypto.so",))
    entry, config = _entry_for(apk), _config(tmp_path)
    patterns = load_patterns()
    deadlines = []

    class ExpiresAtCheck(pipeline.Deadline):
        expires_at = 0                  # the failing check's number; 0: none

        def __init__(self, seconds: float):
            super().__init__(seconds)
            self.checks = 0
            deadlines.append(self)

        def check(self) -> None:
            self.checks += 1
            if self.checks == self.expires_at:
                raise AnalysisTimeout(f"expired at check {self.checks}")

    monkeypatch.setattr(pipeline, "Deadline", ExpiresAtCheck)
    doc = analyze_apk(apk, entry, config, patterns=patterns).to_document()
    assert doc["meta"]["status"] == "ok"
    assert doc["matches"] and doc["crypto_libs"] and doc["native_libs"]
    assert all(doc["meta"]["api_summary"].values())

    for k in range(1, deadlines[-1].checks + 1):
        ExpiresAtCheck.expires_at = k
        report = analyze_apk(apk, entry, config, patterns=patterns)
        doc = report.to_document()
        assert (doc["meta"]["status"], report.message) == (
            "timeout", f"expired at check {k}")
        assert doc["meta"]["package"] == ""
        assert doc["matches"] == []
        assert doc["crypto_libs"] == []
        assert doc["native_libs"] == []
        assert not any(doc["meta"]["api_summary"].values())


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
    assert asdict(summary) == {"analyzed": 1, "ok": 0, "timeout": 0,
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


def test_deadline_expires_once_its_seconds_pass(monkeypatch):
    clock = SimpleNamespace(now=100.0)
    monkeypatch.setattr(pipeline, "time",
                        SimpleNamespace(monotonic=lambda: clock.now))
    deadline = pipeline.Deadline(2)
    clock.now = 102.0
    deadline.check()                    # at the deadline, not past it
    clock.now = 102.001
    with pytest.raises(AnalysisTimeout, match="exceeded 2s deadline"):
        deadline.check()


def test_slow_app_times_out(tmp_path, slow_apk):
    config = _config(tmp_path, timeout_seconds=1)
    started = time.monotonic()
    report = analyze_apk(slow_apk, _entry_for(slow_apk), config)
    elapsed = time.monotonic() - started
    assert report.status == "timeout"
    assert report.matches == []
    assert elapsed < 3.0   # deadline plus bounded grace


def test_a_zero_run_times_out_partway_through_its_inflate(tmp_path,
                                                         monkeypatch):
    """8 MiB of zeros deflate to about 8 KiB, one input slice. The deadline
    is checked before each inflated piece, so one that lasts a few checks
    stops the inflate partway."""
    apk = make_apk({"AndroidManifest.xml": manifest_bytes("com.zero.app"),
                    "classes.dex": bytes(8 << 20)},
                   stored=("AndroidManifest.xml",))
    inflated = []
    real_inflater = zlib.decompressobj

    class CountingInflater:
        def __init__(self, wbits):
            self.inner = real_inflater(wbits)

        def decompress(self, data, max_length):
            piece = self.inner.decompress(data, max_length)
            inflated.append(len(piece))
            return piece

        def __getattr__(self, name):
            return getattr(self.inner, name)

    monkeypatch.setattr(zlib, "decompressobj", CountingInflater)
    monkeypatch.setattr(pipeline, "Deadline", CheckCountDeadline)
    monkeypatch.setattr(conftest, "DEADLINE_CHECKS", 6)
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert report.status == "timeout"
    assert 0 < sum(inflated) < 8 << 20


def test_crypto_and_proguard_attribution(tmp_path):
    apk = make_fixture_apk(dex_plans=[[
        ("b.d.E", [("android.media.MediaDrm", "openSession")]),
        ("com.vendor.pkg.Api", [("com.google.crypto.tink.Aead", "encrypt")]),
    ]])
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    locations = {m.caller_class: m.location for m in report.matches}
    assert locations["b.d.E"] == "inmain"
    assert report.to_document()["crypto_libs"] == ["google_tink"]

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


def test_app_with_a_non_ascii_min_sdk_is_ok(tmp_path):
    apk = make_fixture_apk(dex_plans=[PLANTED_PLAN], min_sdk="\u00b2")
    report = analyze_apk(apk, _entry_for(apk), _config(tmp_path))
    assert report.status == "ok"
    assert report.min_sdk is None


def test_compare_package_names():
    assert compare_package_names(None, "com.a") == "unchecked"
    assert compare_package_names("com.package", "com.package") == "match"
    assert compare_package_names("com.package", "com.package.xyz") == "prefix"
    assert compare_package_names("com.package.xyz", "com.package") == "prefix"
    assert compare_package_names("com.package", "com.packageX") == "mismatch"
    assert compare_package_names("org.other", "com.package") == "mismatch"


def test_upper_case_sha256_entry_names_the_lower_case_report(tmp_path):
    apk = planted_apk()
    path = tmp_path / "app.apk"
    path.write_bytes(apk)
    sha = sha256_digest(apk)
    config = _config(tmp_path)
    first = run_corpus([CorpusEntry(sha256=sha.upper(), source=str(path))],
                       config)
    assert (first.analyzed, first.ok) == (1, 1)
    second = run_corpus([CorpusEntry(sha256=sha, source=str(path))], config)
    assert (second.analyzed, second.skipped) == (0, 1)
    assert sorted(p.name for p in config.output_dir.glob("*.json")) == [
        f"{sha}.json"]


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
    assert asdict(summary) == {"analyzed": 7, "ok": 5, "timeout": 1,
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


def test_resume_reanalyzes_malformed_report(tmp_path):
    entries = _write_corpus(tmp_path, {"app": make_fixture_apk()})
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    (out_dir / f"{entries[0].sha256}.json").write_text('{"meta": []}')
    summary = run_corpus(entries, _config(tmp_path))
    assert asdict(summary) == {"analyzed": 1, "ok": 1, "timeout": 0,
                               "error": 0, "skipped": 0}


def test_empty_corpus(tmp_path):
    summary = run_corpus([], _config(tmp_path))
    assert asdict(summary) == {"analyzed": 0, "ok": 0, "timeout": 0,
                               "error": 0, "skipped": 0}


def _keychain_apps(count: int) -> dict[str, bytes]:
    """`count` distinct apps, each with one keystore match."""
    return {f"app{i}": make_fixture_apk(
        package=f"com.app{i}.main",
        dex_plans=[[(f"com.app{i}.main.M",
                     [("android.security.KeyChain", "getPrivateKey")])]])
        for i in range(count)}


def test_poisoned_fixture_does_not_affect_others(tmp_path, slow_apk):
    apps = _keychain_apps(4)
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


def _mixed_corpus(tmp_path):
    """Five good apps, a truncated one and a missing file, in that order."""
    apps = _keychain_apps(5)
    apps["broken"] = apps["app0"][:200]
    entries = _write_corpus(tmp_path, apps)
    return entries + [CorpusEntry(sha256="",
                                  source=str(tmp_path / "gone.apk"))]


def test_run_log_follows_input_order(tmp_path, monkeypatch):
    # The first app's bytes arrive last; its line still comes first.
    entries = _mixed_corpus(tmp_path)
    load = pipeline._load_entry_bytes

    def first_loads_slowly(entry, config):
        if entry is entries[0]:
            time.sleep(0.2)
        return load(entry, config)

    monkeypatch.setattr(pipeline, "_load_entry_bytes", first_loads_slowly)
    orders = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        summary = run_corpus(entries, _config(tmp_path, output_dir=out_dir,
                                              worker_count=4))
        assert (summary.analyzed, summary.error) == (7, 2)
        lines = (out_dir / "run.log").read_text(encoding="utf-8").splitlines()
        orders.append([line.split(" ", 1)[0] for line in lines])
    assert orders[0][:6] == [entry.sha256 for entry in entries[:6]]
    assert orders[0][6].startswith("unread-")
    assert orders[1] == orders[0]


def test_reports_do_not_depend_on_worker_count(tmp_path):
    entries = _mixed_corpus(tmp_path)
    runs = []
    for workers in (1, 2, 4):
        out_dir = tmp_path / f"workers{workers}"
        run_corpus(entries, _config(tmp_path, output_dir=out_dir,
                                    worker_count=workers))
        runs.append({path.name: deterministic_document(
            read_report_document(path)) for path in out_dir.glob("*.json")})
    assert len(runs[0]) == 7
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_read_ahead_depth_is_workers_minus_one(tmp_path, monkeypatch):
    # Counts the apps loaded but not yet analyzed while each analysis runs.
    entries = _write_corpus(tmp_path, _keychain_apps(8))
    load, analyze = pipeline._load_entry_bytes, pipeline._analyze_hashed
    lock = threading.Lock()
    counts = {"loaded": 0, "started": 0}
    depths = []

    def counted_load(entry, config):
        data = load(entry, config)
        with lock:
            counts["loaded"] += 1
        return data

    def slow_analysis(*args):
        with lock:
            counts["started"] += 1
        time.sleep(0.02)                # the loads ahead finish meanwhile
        report = analyze(*args)
        with lock:
            depths.append(counts["loaded"] - counts["started"])
        return report

    monkeypatch.setattr(pipeline, "_load_entry_bytes", counted_load)
    monkeypatch.setattr(pipeline, "_analyze_hashed", slow_analysis)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            counts.update(loaded=0, started=0)
            depths.clear()
            summary = run_corpus(entries, _config(
                tmp_path, output_dir=tmp_path / f"workers{workers}",
                worker_count=workers))
            assert (summary.analyzed, summary.ok) == (8, 8)
            assert len(depths) == 8
            assert max(depths) == workers - 1, (workers, depths)
    finally:
        sys.setswitchinterval(interval)


def test_digest_stage_counts_no_wait_for_the_interpreter_lock(tmp_path):
    # The hash releases the lock; while the main thread spins, the loader
    # waits a whole switch interval to take it back, which is not hashing.
    path = tmp_path / "app.apk"
    path.write_bytes(bytes(1 << 20))
    entry = CorpusEntry(sha256="", source=str(path))
    loaded = []
    loader = threading.Thread(
        target=lambda: loaded.append(pipeline._load(entry, _config(tmp_path))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.2)
    try:
        limit = time.monotonic() + 30
        loader.start()
        while not loaded and time.monotonic() < limit:
            pass
    finally:
        sys.setswitchinterval(interval)
    loader.join(timeout=30)
    assert not loader.is_alive()
    data, digest, digest_s = loaded[0]
    assert digest == sha256_digest(data)
    assert digest_s < 0.1


def test_repeated_bytes_without_a_sha256_are_analyzed_once(tmp_path):
    apk = make_fixture_apk()
    paths = [tmp_path / "one.apk", tmp_path / "two.apk"]
    for path in paths:
        path.write_bytes(apk)
    entries = [CorpusEntry(sha256="", source=str(path)) for path in paths]
    summary = run_corpus(entries, _config(tmp_path, worker_count=4))
    assert asdict(summary) == {"analyzed": 1, "ok": 1, "timeout": 0,
                               "error": 0, "skipped": 1}
    assert [p.name for p in (tmp_path / "reports").glob("*.json")] == [
        f"{sha256_digest(apk)}.json"]
    log_lines = (tmp_path / "reports" / "run.log").read_text().splitlines()
    assert len(log_lines) == 1


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    config = AnalysisConfig(output_dir=blocker)
    with pytest.raises(OSError):
        run_corpus([], config)


def test_run_refuses_an_unwritable_output_dir_before_any_analysis(
        tmp_path, monkeypatch, fixture_apk_bytes):
    apk = tmp_path / "app.apk"
    apk.write_bytes(fixture_apk_bytes)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    out_dir = blocker / "reports"
    analyzed = []
    monkeypatch.setattr(pipeline, "_analyze_hashed",
                        lambda *args: analyzed.append(args))
    with pytest.raises(OSError) as exc_info:
        run_corpus([_entry_for(fixture_apk_bytes, apk)],
                   _config(tmp_path, output_dir=out_dir))
    assert str(exc_info.value) == f"output directory not writable: {out_dir}"
    assert analyzed == []


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


def test_corpus_entry_refuses_a_sha256_that_is_not_hex():
    with pytest.raises(ValueError) as info:
        CorpusEntry(sha256="g" * 64)
    assert str(info.value) == f"not a sha256 hex digest: {'g' * 64!r}"


def test_corpus_rows_share_equal_metadata_values(tmp_path):
    csv_path = tmp_path / "corpus.csv"
    csv_path.write_text(
        "sha256,package_name,category,downloads,last_update,path_or_remote\n"
        f"{'a' * 64},com.a,Tools,12000,2021-05-01,remote\n"
        f"{'b' * 64},com.b,Tools,12000,2021-05-01,remote\n")
    first, second = load_corpus_csv(csv_path)
    assert first.category is second.category
    assert first.downloads is second.downloads
    assert first.last_update is second.last_update
    assert not hasattr(first, "__dict__")       # a slotted entry
    (again, _) = load_corpus_csv(csv_path)
    assert again.last_update == first.last_update
    assert again.last_update is not first.last_update   # one file each


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


def test_remote_entry_given_other_bytes_gets_a_hash_mismatch_report(
        stub_server, tmp_path, monkeypatch):
    from analytika.cli import main

    sha = "f" * 64
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(f"{sha},com.fixture.app,Tools,20000,2021-01-01,remote\n")
    monkeypatch.setenv("TEST_DL_KEY", "test-key")
    out_dir = tmp_path / "reports"
    assert main(["analyze", "--corpus", str(corpus), "--out", str(out_dir),
                 "--fetch-endpoint", stub_server,
                 "--api-key-env", "TEST_DL_KEY"]) == 1
    (report,) = out_dir.glob("*.json")
    assert report.name == f"{sha}.json"
    meta = json.loads(report.read_text())["meta"]
    assert meta["status"] == "error"
    computed = sha256_digest(b"these are not the bytes you wanted")
    assert meta["message"] == (
        f"hash mismatch: expected {sha}, computed {computed}")


def test_fetch_by_hash_http_status(stub_server):
    with pytest.raises(HttpStatusError) as exc_info:
        fetch_by_hash("0" * 64, stub_server, "test-key")
    assert exc_info.value.code == 403
    assert str(exc_info.value) == "HTTP status 403"


def test_fetch_by_hash_from_a_closed_port_raises_network_error():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(NetworkError):
        fetch_by_hash("0" * 64, f"http://127.0.0.1:{port}/download",
                      "test-key")


@pytest.mark.parametrize("endpoint, url", [
    ("http://dl.example/api", "http://dl.example/api?apikey=K&sha256="),
    ("http://dl.example/api?region=eu",
     "http://dl.example/api?region=eu&apikey=K&sha256="),
], ids=["bare", "own-query"])
def test_fetch_by_hash_adds_its_query_to_the_endpoints(monkeypatch, endpoint,
                                                       url):
    import io
    import urllib.request

    requested = []

    def fake_urlopen(target, timeout):
        requested.append(target)
        return io.BytesIO(b"apk")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    assert fetch_by_hash("ab" * 32, endpoint, "K") == b"apk"
    assert requested == [url + "ab" * 32]


def test_every_name_the_benchmark_trace_calls_exists():
    # bench/traced.py calls the program's functions by name and records a
    # name that no longer resolves as a missing call instead of failing.
    import importlib
    import re
    from pathlib import Path

    traced = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
    names = set(re.findall(r'layers\.call\(\s*"(\w+)\.(\w+)"',
                           traced.read_text(encoding="utf-8")))
    assert ("matchers", "match_tee_apis") in names
    for module, name in sorted(names):
        target = getattr(importlib.import_module(f"analytika.{module}"),
                         name, None)
        assert callable(target), f"analytika.{module}.{name}"


def _traced():
    """The benchmark's tracing module, imported from `bench/`."""
    from pathlib import Path

    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import traced
    finally:
        sys.path.remove(bench)
    return traced


def test_the_benchmark_trace_runs_the_stats_layers_without_a_miss(tmp_path):
    # The name check above cannot see a changed signature, or an attribute
    # the trace reads off a value the program returned; running the trace's
    # stats sequence can.
    import synth

    traced = _traced()
    rows = []
    for i, detector in enumerate(("drm", "keystore", "biometrics")):
        synth.write_report(tmp_path / "reports", synth.report_doc(
            synth.sha_for(i), matches=[synth.make_match(detector)],
            crypto=("bouncycastle",)))
        rows.append((synth.sha_for(i), f"com.app{i}", "Tools", 20_000,
                     "2021-01-01"))
    synth.write_corpus_csv(tmp_path / "corpus.csv", rows)
    tracer = traced.Tracer(False)
    traced.emulate_stats(traced.Layers(tracer), tracer, tmp_path / "reports",
                         tmp_path / "corpus.csv", tmp_path / "tables",
                         {"matches_held": 0})
    assert tracer.missing == set()
    assert (tmp_path / "tables" / "summary.json").is_file()


def test_the_benchmark_trace_runs_the_analyze_layers_to_the_known_miss():
    # The trace still reads `DexUnit.invocations`, which `DexUnit` no longer
    # has, and stops each app there. Every call and attribute it reaches
    # before that, the `LoadedPatterns` fields included, must still fit.
    traced = _traced()
    tracer = traced.Tracer(False)
    sink = dict.fromkeys(("inflated", "dex_bytes", "tee_records",
                          "crypto_records", "crypto_distinct"), 0)
    traced.emulate_app(traced.Layers(tracer), tracer, 0, planted_apk(),
                       load_patterns(), sink)
    assert tracer.missing == {"dex.DexUnit.invocations"}
    assert sink["dex_bytes"] > 0


def test_unreadable_entries_without_a_sha256_get_distinct_stable_reports(
        tmp_path):
    from analytika.aggregate import compute_stats, load_corpus

    entries = [CorpusEntry(sha256="", source=str(tmp_path / "gone1.apk")),
               CorpusEntry(sha256="", source=str(tmp_path / "gone2.apk"))]
    for _ in range(2):                  # a rerun rewrites the same two
        summary = run_corpus(entries, _config(tmp_path))
        assert (summary.analyzed, summary.error) == (2, 2)
        names = sorted(p.name for p in (tmp_path / "reports").glob("*.json"))
        assert len(names) == 2 and all(n.startswith("unread-") for n in names)
    docs = [read_report_document(tmp_path / "reports" / n) for n in names]
    assert sorted(d["meta"]["sha256"] + ".json" for d in docs) == names
    assert all(d["meta"]["status"] == "error" for d in docs)
    totals = compute_stats(load_corpus(tmp_path / "reports"))["totals"]
    assert (totals["analyzed"], totals["failed"]) == (2, 2)


@pytest.mark.parametrize("outcome", ["ok", "error", "skipped"])
def test_reading_an_app_removes_its_stale_unread_report(
        tmp_path, fixture_apk_bytes, outcome):
    from analytika.aggregate import compute_stats, load_corpus

    source = tmp_path / "app.apk"
    entries = [CorpusEntry(sha256="", source=str(source))]
    reports = tmp_path / "reports"
    data = b"not an archive" if outcome == "error" else fixture_apk_bytes
    if outcome == "skipped":            # the app's own report is already ok
        source.write_bytes(data)
        run_corpus(entries, _config(tmp_path))
        source.unlink()
    run_corpus(entries, _config(tmp_path))
    assert any(p.name.startswith("unread-") for p in reports.glob("*.json"))
    source.write_bytes(data)
    summary = run_corpus(entries, _config(tmp_path))
    assert summary.skipped == (outcome == "skipped")
    assert [p.name for p in reports.glob("*.json")] == [
        sha256_digest(data) + ".json"]
    totals = compute_stats(load_corpus(reports))["totals"]
    assert (totals["analyzed"], totals["ok"], totals["failed"]) == (
        (1, 0, 1) if outcome == "error" else (1, 1, 0))
