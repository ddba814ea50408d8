from __future__ import annotations

import argparse
import errno
import json
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import analytika
from analytika.cli import build_parser, main
from analytika.container import sha256_digest
from analytika.corpus import load_corpus_csv
from analytika.defaults import read_list
from analytika.matchers import load_pattern_file
from analytika.report import deterministic_document

import synth
from conftest import make_fixture_apk, planted_apk

_ENOENT = os.strerror(errno.ENOENT)


def test_analyze_single_apk(tmp_path, capsys):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    code = main(["analyze", str(apk_path), "--out", str(out_dir)])
    assert code == 0
    sha = sha256_digest(apk_path.read_bytes())
    doc = json.loads((out_dir / f"{sha}.json").read_text())
    assert doc["meta"]["status"] == "ok"
    assert len(doc["matches"]) == 6
    assert "analyzed=1 ok=1" in capsys.readouterr().out


def test_analyze_hashes_each_positional_apk_once(tmp_path, capsys,
                                                monkeypatch):
    from analytika import container, pipeline

    calls = []

    def counting_digest(data):
        calls.append(len(data))
        return sha256_digest(data)

    for module in (container, pipeline):
        monkeypatch.setattr(module, "sha256_digest", counting_digest)
    paths = []
    for i, package in enumerate(("com.fixture.app", "com.fixture.other")):
        paths.append(tmp_path / f"app{i}.apk")
        paths[-1].write_bytes(planted_apk(package=package))
    out_dir = tmp_path / "reports"
    argv = ["analyze", *map(str, paths), "--out", str(out_dir), "--workers", "1"]
    assert main(argv) == 0
    assert len(calls) == 2
    assert "analyzed=2 ok=2" in capsys.readouterr().out
    assert sorted(os.listdir(out_dir)) == sorted(
        [f"{sha256_digest(p.read_bytes())}.json" for p in paths] + ["run.log"])

    # A rerun reads and hashes each APK once more and skips the one whose
    # report is ok; the other now holds a different app.
    paths[0].write_bytes(planted_apk(package="com.fixture.third"))
    assert main(argv) == 0
    assert len(calls) == 4
    assert capsys.readouterr().out.splitlines()[-1] == (
        "analyzed=1 ok=1 timeout=0 error=0 skipped=1")


def test_analyze_proguard_as_main_false_moves_a_shrunk_caller_to_inlib(
        tmp_path):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(make_fixture_apk(dex_plans=[[
        ("b.d.E", [("android.media.MediaDrm", "openSession")])]]))
    sha = sha256_digest(apk_path.read_bytes())
    locations = []
    for value in ("true", "false"):
        out_dir = tmp_path / value
        assert main(["analyze", str(apk_path), "--out", str(out_dir),
                     "--proguard-as-main", value]) == 0
        doc = json.loads((out_dir / f"{sha}.json").read_text())
        locations.append([m["location"] for m in doc["matches"]])
    assert locations == [["inmain"], ["inlib"]]


def test_analyze_refuses_a_proguard_as_main_that_is_no_boolean(tmp_path,
                                                               capsys):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(apk_path), "--out", str(out_dir),
              "--proguard-as-main", "maybe"])
    assert info.value.code == 2
    assert "expected true or false, got 'maybe'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_requires_input(capsys):
    assert main(["analyze"]) == 2
    assert "nothing to analyze" in capsys.readouterr().err


def test_analyze_corpus_csv(tmp_path):
    apk = planted_apk()
    (tmp_path / "app.apk").write_bytes(apk)
    sha = sha256_digest(apk)
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "sha256,package_name,category,downloads,last_update,path_or_remote\n"
        f"{sha},com.fixture.app,Finance,20000,2021-01-01,app.apk\n")
    out_dir = tmp_path / "reports"
    assert main(["analyze", "--corpus", str(corpus),
                 "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / f"{sha}.json").read_text())
    assert doc["meta"]["package_name_check"] == "match"


def test_analyze_with_custom_pattern_dir(tmp_path):
    pattern_dir = tmp_path / "patterns"
    pattern_dir.mkdir()
    (pattern_dir / "bytecode_patterns.csv").write_text(
        "drm,tee_api,android.media.MediaDrm,openSession\n")
    (pattern_dir / "native_patterns.csv").write_text("openssl,libcrypto\n")
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    assert main(["analyze", str(apk_path), "--out", str(out_dir),
                 "--patterns", str(pattern_dir)]) == 0
    sha = sha256_digest(apk_path.read_bytes())
    doc = json.loads((out_dir / f"{sha}.json").read_text())
    # only the single remaining detector row can fire
    assert {m["detector"] for m in doc["matches"]} == {"drm"}
    assert doc["meta"]["api_summary"]["keystore"] is False


def test_analyze_error_exit_code(tmp_path):
    bad = tmp_path / "broken.apk"
    bad.write_bytes(b"not an archive at all")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "r")]) == 1


def test_analyze_timeout_exit_code(tmp_path, capsys, slow_apk):
    apk_path = tmp_path / "slow.apk"
    apk_path.write_bytes(slow_apk)
    assert main(["analyze", str(apk_path), "--out", str(tmp_path / "r")]) == 1
    assert "ok=0 timeout=1 error=0" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, field", [
    ("--workers", "0", "worker_count"),
    ("--timeout", "0.5", "timeout_seconds"),
    ("--timeout", "nan", "timeout_seconds"),
    ("--out", "{tmp}/app.apk",
     f"cannot write reports {{tmp}}/app.apk: {os.strerror(errno.ENOTDIR)}"),
], ids=["workers", "timeout", "timeout-nan", "out-is-a-file"])
def test_analyze_rejects_out_of_range_option(tmp_path, capsys, flag, value,
                                             field):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    code = main(["analyze", str(apk_path), "--out", str(out_dir),
                 flag, value.format(tmp=tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert field.format(tmp=tmp_path) in err
    assert not out_dir.exists()


@pytest.mark.parametrize("files, reason", [
    (None, _ENOENT),
    ({"bytecode_patterns.csv": "drm,tee_api,android.media.MediaDrm,open\n"},
     _ENOENT),
    ({"bytecode_patterns.csv": "drm,tee_api\n",
      "native_patterns.csv": "openssl,libcrypto\n"},
     "{patterns}/bytecode_patterns.csv:1: expected 4 columns, got 2"),
    ({"bytecode_patterns.csv": "drm,tee_api,android.media.MediaDrm,open\n",
      "native_patterns.csv": "openssl,lib/crypto\n"},
     "{patterns}/native_patterns.csv:1: bad native stem: 'lib/crypto'"),
    ({"bytecode_patterns.csv": "foo,tee_api,android.media.MediaDrm,open\n",
      "native_patterns.csv": "openssl,libcrypto\n"},
     "{patterns}/bytecode_patterns.csv:1: detector 'foo' cannot be tee_api"),
    ({"bytecode_patterns.csv": "drm,crypto_software,org.bouncycastle,*\n",
      "native_patterns.csv": "openssl,libcrypto\n"},
     "{patterns}/bytecode_patterns.csv:1: "
     "detector 'drm' cannot be crypto_software"),
    ({"bytecode_patterns.csv":
      "bouncycastle,crypto_software,org.bouncycastle,getInstance\n",
      "native_patterns.csv": "openssl,libcrypto\n"},
     "{patterns}/bytecode_patterns.csv:1: a crypto_software row matches "
     "every method, so its method must be *"),
    ({"bytecode_patterns.csv": '# note,"first\nsecond"\n'
      "drm,tee_api,android.media.MediaDrm,open\ndrm,tee_api\n",
      "native_patterns.csv": "openssl,libcrypto\n"},
     "{patterns}/bytecode_patterns.csv:4: expected 4 columns, got 2"),
    ({"bytecode_patterns.csv": 'drm,tee_api,"android.media.\nMediaDrm",open\n',
      "native_patterns.csv": "openssl,libcrypto\n"},
     "{patterns}/bytecode_patterns.csv:1: a cell holds a line break"),
], ids=["missing-directory", "missing-native-file", "short-row", "bad-stem",
        "api-kind-other-id", "crypto-kind-api-id", "crypto-method-not-any",
        "row-after-two-line-cell", "cell-with-line-break"])
def test_analyze_rejects_unreadable_patterns(tmp_path, capsys, files, reason):
    patterns = tmp_path / "patterns"
    if files is not None:
        patterns.mkdir()
        for name, text in files.items():
            (patterns / name).write_text(text)
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    code = main(["analyze", str(apk_path), "--out", str(out_dir),
                 "--patterns", str(patterns)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"cannot read patterns {patterns}: "
        + reason.format(patterns=patterns)]
    assert not out_dir.exists()


@pytest.mark.parametrize("name, text, read, expected", [
    ("corpus.csv",
     "sha256,package_name,category,downloads,last_update,path_or_remote\n"
     f"{'ab' * 32},com.x.app,GAME_CARD,5000,2021-05-01,remote\n",
     lambda path: [(e.category, e.downloads) for e in load_corpus_csv(path)],
     [("GAME_CARD", 5000)]),
    ("categories.txt", "GAME_CARD\nGAME_PUZZLE\n", read_list,
     ["GAME_CARD", "GAME_PUZZLE"]),
    ("bytecode_patterns.csv",
     "# detector,kind,class_or_prefix,method\n"
     "drm,tee_api,android.media.MediaDrm,open\n",
     lambda path: [(s.detector_id, s.rows)
                   for s in load_pattern_file(path)],
     [("drm", (("android.media.MediaDrm", "open"),))]),
], ids=["corpus-csv", "list-file", "pattern-csv"])
def test_text_inputs_read_the_same_with_a_leading_bom(tmp_path, name, text,
                                                      read, expected):
    # Spreadsheet exports start the file with U+FEFF.
    path = tmp_path / name
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert read(path) == expected


def test_analyze_unreadable_apk_path(tmp_path, capsys):
    missing = tmp_path / "missing.apk"
    out_dir = tmp_path / "reports"
    code = main(["analyze", str(missing), "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"cannot read {missing}: {os.strerror(errno.ENOENT)}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("text, reason", [
    ("abc,def\n", "{corpus}: expected 6 columns, got 2"),
    ("x" * 200_000 + "\n", "field larger than field limit (131072)"),
    (f"{'ab' * 32},com.x,Tools,20000,20210101,remote\n",
     "Invalid isoformat string: '20210101'"),
    (f"{'ab' * 32},com.x,Tools,20000,2021-W01-1,remote\n",
     "Invalid isoformat string: '2021-W01-1'"),
    (f"{'ab' * 32},com.x,Tools,-5,2021-01-01,remote\n",
     "invalid literal for int() with base 10: '-5'"),
    (f"{'ab' * 32},com.x,Tools,1_000,2021-01-01,remote\n",
     "invalid literal for int() with base 10: '1_000'"),
], ids=["short-row", "overlong-field", "basic-format-date", "week-date",
        "negative-downloads", "underscore-downloads"])
def test_analyze_malformed_corpus(tmp_path, capsys, text, reason):
    corpus = tmp_path / "bad.csv"
    corpus.write_text(text)
    out_dir = tmp_path / "reports"
    code = main(["analyze", "--corpus", str(corpus), "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"cannot read corpus {corpus}: {reason.format(corpus=corpus)}"]
    assert not out_dir.exists()


def test_analyze_missing_corpus(tmp_path, capsys):
    corpus = tmp_path / "nope.csv"
    out_dir = tmp_path / "reports"
    code = main(["analyze", "--corpus", str(corpus), "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"cannot read corpus {corpus}: {os.strerror(errno.ENOENT)}"]
    assert not out_dir.exists()


_APP_ROW = "{sha},com.x,Tools,20000,2021-01-01,app.apk"


@pytest.mark.parametrize("rows, refusal", [
    ([_APP_ROW] * 2, "sha256 {sha} is listed twice"),
    ([_APP_ROW.replace("{sha}", "{SHA}"), _APP_ROW],
     "sha256 {sha} is listed twice"),
    ([_APP_ROW.replace("{sha}", "")] * 2, None),
    (["\ufeffsha256,package_name,category,downloads,last_update,"
      "path_or_remote", "# one app", _APP_ROW], None),
    ([_APP_ROW.replace("2021-01-01", "20210101")],
     "Invalid isoformat string: '20210101'"),
    ([_APP_ROW.replace("20000", "-5")],
     "invalid literal for int() with base 10: '-5'"),
    ([_APP_ROW.replace("20000", "1_000")],
     "invalid literal for int() with base 10: '1_000'"),
], ids=["sha-twice", "sha-upper-and-lower", "two-rows-without-sha",
        "bom-header-comment", "basic-format-date", "negative-downloads",
        "underscore-downloads"])
def test_analyze_and_stats_accept_the_same_corpus_files(tmp_path, capsys,
                                                        rows, refusal):
    apk = planted_apk()
    (tmp_path / "app.apk").write_bytes(apk)
    sha = sha256_digest(apk)
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("".join(row.format(sha=sha, SHA=sha.upper()) + "\n"
                              for row in rows), encoding="utf-8")
    (tmp_path / "empty").mkdir()
    reports, tables = tmp_path / "reports", tmp_path / "tables"
    outcomes = []
    for argv in (["analyze", "--out", str(reports)],
                 ["stats", "--reports", str(tmp_path / "empty"),
                  "--out", str(tables)]):
        code = main(argv + ["--corpus", str(corpus)])
        outcomes.append((code, capsys.readouterr().err.splitlines()))
    if refusal is None:
        assert outcomes == [(0, []), (0, [])]
        # With no report to join, every data row is unmatched.
        summary = json.loads((tables / "summary.json").read_text())
        assert summary["totals"]["unmatched_metadata"] == sum(
            row.endswith("app.apk") for row in rows)
    else:
        line = f"cannot read corpus {corpus}: {refusal.format(sha=sha)}"
        assert outcomes == [(2, [line]), (2, [line])]
        assert not reports.exists() and not tables.exists()


def test_cli_import_leaves_http_and_stats_unloaded():
    probe = ("import sys, analytika.cli; print(sorted(m for m in ("
             "'urllib.request', 'http.client', 'analytika.aggregate')"
             " if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(analytika.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_analyze_remote_corpus_with_api_key_env(tmp_path, monkeypatch):
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer
    from urllib.parse import parse_qs, urlparse

    from analytika import container, pipeline

    apk = planted_apk()
    sha = sha256_digest(apk)
    seen_keys = []
    digests = []

    def counting_digest(data):
        digests.append(len(data))
        return sha256_digest(data)

    for module in (container, pipeline):
        monkeypatch.setattr(module, "sha256_digest", counting_digest)

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            query = parse_qs(urlparse(self.path).query)
            seen_keys.extend(query.get("apikey", []))
            self.send_response(200)
            self.send_header("Content-Length", str(len(apk)))
            self.end_headers()
            self.wfile.write(apk)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "sha256,package_name,category,downloads,last_update,path_or_remote\n"
            f"{sha},com.fixture.app,Finance,20000,2021-06-01,remote\n")
        monkeypatch.setenv("TEST_DL_KEY", "sekrit")
        out_dir = tmp_path / "reports"
        code = main(["analyze", "--corpus", str(corpus),
                     "--out", str(out_dir),
                     "--fetch-endpoint",
                     f"http://127.0.0.1:{server.server_port}/download",
                     "--api-key-env", "TEST_DL_KEY"])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    assert seen_keys == ["sekrit"]
    assert digests == [len(apk)]        # the one check, before analysis
    doc = json.loads((out_dir / f"{sha}.json").read_text())
    assert doc["meta"]["status"] == "ok"


def test_analyze_remote_row_without_sha256_sends_no_request(tmp_path,
                                                          monkeypatch):
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    requests = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            requests.append(self.path)
            self.send_response(404)
            self.end_headers()

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(",com.x,Tools,20000,2021-01-01,remote\n")
        monkeypatch.setenv("TEST_DL_KEY", "sekrit")
        out_dir = tmp_path / "reports"
        code = main(["analyze", "--corpus", str(corpus),
                     "--out", str(out_dir),
                     "--fetch-endpoint",
                     f"http://127.0.0.1:{server.server_port}/dl",
                     "--api-key-env", "TEST_DL_KEY"])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 1
    assert requests == []
    (report,) = out_dir.glob("*.json")
    meta = json.loads(report.read_text())["meta"]
    assert meta["status"] == "error"
    assert meta["message"] == \
        "could not load app bytes: remote entry has no sha256"


def test_analyze_missing_api_key_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    code = main(["analyze", "x.apk", "--out", str(tmp_path),
                 "--fetch-endpoint", "http://127.0.0.1:1/dl",
                 "--api-key-env", "NOPE_KEY"])
    assert code == 2
    assert "NOPE_KEY" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["dl.example/api/download",
                                      "http://127.0.0.1:9/api dl"])
def test_analyze_refuses_a_fetch_endpoint_that_is_no_http_url(
        tmp_path, monkeypatch, capsys, endpoint):
    import socket

    def no_connection(*args):
        raise AssertionError("the run opened a connection")

    monkeypatch.setattr(socket.socket, "connect", no_connection)
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(f"{'ab' * 32},com.x,Tools,20000,2021-01-01,remote\n")
    monkeypatch.setenv("TEST_DL_KEY", "sekrit-key")
    out_dir = tmp_path / "reports"
    code = main(["analyze", "--corpus", str(corpus), "--out", str(out_dir),
                 "--fetch-endpoint", endpoint, "--api-key-env", "TEST_DL_KEY"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("invalid option: fetch_endpoint must be")
    assert not out_dir.exists()
    assert "sekrit-key" not in captured.out + captured.err


def test_stats_end_to_end(tmp_path, capsys):
    report_dir = tmp_path / "reports"
    synth.random_corpus(__import__("random").Random(5), report_dir,
                        tmp_path / "corpus.csv", apps=12)
    out_dir = tmp_path / "tables"
    code = main(["stats", "--reports", str(report_dir),
                 "--corpus", str(tmp_path / "corpus.csv"),
                 "--out", str(out_dir), "--filter-defaults"])
    assert code == 0
    for name in ("prevalence.csv", "locations.csv", "categories.csv",
                 "crypto.csv", "summary.json", "top_libs_keystore.csv"):
        assert (out_dir / name).exists()
    printed = capsys.readouterr().out
    assert "keystore:" in printed
    assert "%" in printed


def test_stats_explicit_filter_flags(tmp_path):
    report_dir = tmp_path / "reports"
    synth.write_report(report_dir, synth.report_doc(synth.sha_for(0)))
    synth.write_corpus_csv(tmp_path / "corpus.csv", [
        (synth.sha_for(0), "com.a", "Tools", 500, "2018-01-01")])
    out_dir = tmp_path / "tables"
    assert main(["stats", "--reports", str(report_dir),
                 "--corpus", str(tmp_path / "corpus.csv"),
                 "--out", str(out_dir), "--min-downloads", "1000"]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["totals"]["analyzed"] == 0

    assert main(["stats", "--reports", str(report_dir),
                 "--corpus", str(tmp_path / "corpus.csv"),
                 "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["totals"]["analyzed"] == 1


def test_stats_min_date_takes_only_yyyy_mm_dd(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["stats", "--reports", str(tmp_path),
              "--out", str(tmp_path / "tables"), "--min-date", "20210101"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "analytika stats: error: argument --min-date: "
        "invalid parse_date value: '20210101'")
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("value", ["-1", "1_000", "\u0661\u0662"],
                         ids=["negative", "underscore", "arabic-indic"])
def test_stats_min_downloads_takes_only_ascii_digits(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["stats", "--reports", str(tmp_path),
              "--out", str(tmp_path / "tables"), "--min-downloads", value])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "analytika stats: error: argument --min-downloads: "
        f"invalid parse_downloads value: '{value}'")
    assert not (tmp_path / "tables").exists()


_SHA0 = synth.sha_for(0)


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


def _report_with_match(**fields) -> str:
    """An ok report holding one library-located drm match with `fields`
    replaced; a field given as None is left out."""
    doc = synth.report_doc(_SHA0, matches=[synth.make_match("drm")])
    match = doc["matches"][0]
    for key, value in fields.items():
        if value is None:
            del match[key]
        else:
            match[key] = value
    return json.dumps(doc)


_EXCLUSIVE = ("invalid option: --filter-defaults cannot be combined with "
              "--min-downloads, --min-date or --exclude-categories")


@pytest.mark.parametrize("extra, line", [
    (["--corpus", "{tmp}/nope.csv"],
     f"cannot read corpus {{tmp}}/nope.csv: {_ENOENT}"),
    (["--corpus", "{tmp}/short.csv"],
     "cannot read corpus {tmp}/short.csv: {tmp}/short.csv: "
     "expected 6 columns, got 2"),
    (["--exclude-categories", "{tmp}/nope.txt"],
     f"cannot read excluded categories {{tmp}}/nope.txt: {_ENOENT}"),
    (["--exclude-categories", ""],
     f"cannot read excluded categories : {os.strerror(errno.EISDIR)}"),
    (["--known-prefixes", "{tmp}/nope.txt"],
     f"cannot read known prefixes {{tmp}}/nope.txt: {_ENOENT}"),
    (["--reports", "{tmp}/nope"],
     f"cannot read reports {{tmp}}/nope: {_ENOENT}"),
    (["--reports", "{tmp}/short.csv"],
     f"cannot read reports {{tmp}}/short.csv: {os.strerror(errno.ENOTDIR)}"),
    (["--out", "{tmp}/short.csv"],
     f"cannot write tables {{tmp}}/short.csv: {os.strerror(errno.ENOTDIR)}"),
    (["--out", "{tmp}/short.csv/tables"],
     "cannot write tables {tmp}/short.csv/tables: "
     + os.strerror(errno.ENOTDIR)),
    (["--top-n", "0"], "invalid option: top_n must be at least 1"),
    (["--top-n", "-1"], "invalid option: top_n must be at least 1"),
    (["--filter-defaults", "--min-downloads", "100000000"], _EXCLUSIVE),
    (["--filter-defaults", "--min-date", "2020-01-01"], _EXCLUSIVE),
    (["--filter-defaults", "--exclude-categories", ""], _EXCLUSIVE),
    (["--reports", "{tmp}/not_json", "--filter-defaults",
      "--exclude-categories", "{tmp}/nope.txt"], _EXCLUSIVE),
    (["--corpus", "{tmp}/dup.csv"],
     f"cannot read corpus {{tmp}}/dup.csv: sha256 {_SHA0} is listed twice"),
    (["--reports", "{tmp}/not_json"],
     "cannot read report {tmp}/not_json/broken.json: "
     + _json_error("{not json")),
    (["--reports", "{tmp}/json_list"],
     "cannot read report {tmp}/json_list/list.json: not a JSON object"),
    (["--reports", "{tmp}/meta_list"],
     "cannot read report {tmp}/meta_list/list.json: "
     "field meta is not an object"),
    (["--reports", "{tmp}/no_detector"],
     f"cannot read report {{tmp}}/no_detector/{_SHA0}.json: "
     "field matches[0].detector is not a string"),
    (["--reports", "{tmp}/int_package"],
     f"cannot read report {{tmp}}/int_package/{_SHA0}.json: "
     "field matches[0].package is not a string"),
], ids=["missing-corpus", "short-row-corpus", "missing-exclude-categories",
        "empty-exclude-categories",
        "missing-known-prefixes", "missing-reports", "reports-not-a-directory",
        "out-is-a-file", "out-under-a-file",
        "top-n-zero", "top-n-negative",
        "defaults-and-min-downloads", "defaults-and-min-date",
        "defaults-and-empty-exclude-categories",
        "defaults-and-exclude-categories-before-reading",
        "duplicate-sha-corpus", "report-not-json",
        "report-not-an-object", "report-meta-not-an-object",
        "report-match-without-detector", "report-package-not-a-string"])
def test_stats_rejects_unusable_argument(tmp_path, capsys, extra, line):
    report_dir = tmp_path / "reports"
    synth.write_report(report_dir, synth.report_doc(_SHA0))
    (tmp_path / "short.csv").write_text("abc,def\n")
    synth.write_corpus_csv(tmp_path / "dup.csv", [
        (_SHA0, "com.a", "Tools", 20_000, "2021-01-01")] * 2)
    for name, text in (("not_json/broken.json", "{not json"),
                       ("json_list/list.json", "[]"),
                       ("meta_list/list.json", '{"meta": []}'),
                       (f"no_detector/{_SHA0}.json",
                        _report_with_match(detector=None)),
                       (f"int_package/{_SHA0}.json",
                        _report_with_match(package=5))):
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).write_text(text)
    out_dir = tmp_path / "tables"
    argv = ["stats", "--out", str(out_dir)]
    if "--reports" not in extra:
        argv += ["--reports", str(report_dir)]
    code = main(argv + [arg.format(tmp=tmp_path) for arg in extra])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [line.format(tmp=tmp_path)]
    assert not out_dir.exists()


@pytest.mark.parametrize("out", ["reports", "reports/.", "./reports",
                                 "{tmp}/reports"])
def test_stats_refuses_out_naming_the_reports_directory(tmp_path, capsys,
                                                        monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    report_dir = tmp_path / "reports"
    synth.write_report(report_dir, synth.report_doc(_SHA0))
    before = sorted(os.listdir(report_dir))
    out = out.format(tmp=tmp_path)
    code = main(["stats", "--reports", "reports", "--out", out])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot write tables {out}: it is the --reports directory"]
    assert sorted(os.listdir(report_dir)) == before


@pytest.mark.parametrize("out", ["reports/tables.json", "reports/./t.json",
                                 "{tmp}/reports/t.json/"])
def test_stats_refuses_out_a_later_run_reads_as_a_report(tmp_path, capsys,
                                                         monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    report_dir = tmp_path / "reports"
    synth.write_report(report_dir, synth.report_doc(_SHA0))
    before = sorted(os.listdir(report_dir))
    out = out.format(tmp=tmp_path)
    code = main(["stats", "--reports", "reports", "--out", out])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot write tables {out}: a later stats run would read it as a "
        "report in --reports"]
    assert sorted(os.listdir(report_dir)) == before


def test_stats_out_inside_reports_without_json_name_is_kept(tmp_path):
    report_dir = tmp_path / "reports"
    synth.write_report(report_dir, synth.report_doc(_SHA0))
    for out in ("tables", "tables.json.d"):
        assert main(["stats", "--reports", str(report_dir),
                     "--out", str(report_dir / out)]) == 0


def test_stats_reads_json_names_in_code_point_order(tmp_path, capsys,
                                                    monkeypatch):
    from analytika import aggregate

    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    for i, name in enumerate(("a.json", ".hidden.json", "b.JSON", "x.tmp",
                              "Z.json")):
        (report_dir / name).write_text(json.dumps(synth.report_doc(
            synth.sha_for(i + 1))))
    (report_dir / "sub.json").mkdir()
    read = []
    real = aggregate.read_record

    def spy(path):
        read.append(str(path))
        return real(path)

    monkeypatch.setattr(aggregate, "read_record", spy)
    out_dir = tmp_path / "tables"
    code = main(["stats", "--reports", str(report_dir),
                 "--out", str(out_dir)])
    assert code == 2
    assert read == [str(report_dir / name) for name in
                    (".hidden.json", "Z.json", "a.json", "sub.json")]
    assert capsys.readouterr().err.splitlines() == [
        f"cannot read report {report_dir / 'sub.json'}: "
        + os.strerror(errno.EISDIR)]
    assert not out_dir.exists()


def test_stats_names_the_later_report_repeating_a_sha256(tmp_path, capsys):
    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    for name in ("m.json", "k.json"):
        (report_dir / name).write_text(json.dumps(synth.report_doc(_SHA0)))
    code = main(["stats", "--reports", str(report_dir),
                 "--out", str(tmp_path / "tables")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"cannot read report {report_dir / 'm.json'}: "
        f"sha256 {_SHA0} repeats an earlier report"]


def test_stats_names_the_first_of_two_bad_reports_and_writes_no_table(
        tmp_path, capsys):
    report_dir = tmp_path / "reports"
    synth.random_corpus(__import__("random").Random(3), report_dir,
                        tmp_path / "corpus.csv", apps=5)
    (report_dir / "x.json").write_text('{"meta": {"status": "done"}}')
    (report_dir / "g.json").write_text(_report_with_match(package=5))
    out_dir = tmp_path / "tables"
    code = main(["stats", "--reports", str(report_dir), "--corpus",
                 str(tmp_path / "corpus.csv"), "--out", str(out_dir),
                 "--filter-defaults"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot read report {report_dir / 'g.json'}: "
        "field matches[0].package is not a string"]
    assert not out_dir.exists()


@pytest.mark.parametrize("cwd, arg", [
    ("", "reports"), ("", "./reports"), ("", "reports/"), ("reports", "."),
], ids=["bare", "dot-slash", "trailing-slash", "dot"])
def test_stats_names_a_bad_report_as_reports_arg_slash_name(
        tmp_path, capsys, monkeypatch, cwd, arg):
    (tmp_path / "reports").mkdir()
    (tmp_path / "reports" / "broken.json").write_text("{not json")
    monkeypatch.chdir(tmp_path / cwd)
    code = main(["stats", "--reports", arg, "--out", str(tmp_path / "tables")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"cannot read report {Path(arg) / 'broken.json'}: "
        + _json_error("{not json")]


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package under test."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(analytika.__file__).parents[1]))
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def test_stats_leaves_analysis_modules_unloaded(tmp_path):
    report_dir = tmp_path / "reports"
    synth.random_corpus(__import__("random").Random(5), report_dir,
                        tmp_path / "corpus.csv", apps=12)
    probe = ("import sys; from analytika.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(sorted(m for m in ('analytika.container', 'analytika.dex',"
             " 'analytika.manifest', 'analytika.pipeline', 'logging')"
             " if m in sys.modules));"
             " sys.exit(code)")
    done = _python("-c", probe, "stats", "--reports", str(report_dir),
                   "--corpus", str(tmp_path / "corpus.csv"),
                   "--out", str(tmp_path / "tables"), "--filter-defaults")
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "tables" / "prevalence.csv").exists()


def test_analyze_reanalyzes_report_stats_would_refuse(tmp_path):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    assert main(["analyze", str(apk_path), "--out", str(out_dir)]) == 0
    report = out_dir / f"{sha256_digest(apk_path.read_bytes())}.json"
    clean = json.loads(report.read_text())
    broken = json.loads(report.read_text())
    broken["matches"][0]["detector"] = 5
    report.write_text(json.dumps(broken))

    probe = ("import sys; from analytika.cli import main; "
             "code = main(sys.argv[1:]); "
             "print('analytika.aggregate' in sys.modules); sys.exit(code)")
    done = _python("-c", probe, "analyze", str(apk_path), "--out", str(out_dir))
    summary, aggregate_loaded = done.stdout.splitlines()[-2:]
    assert summary.startswith("analyzed=1 ")
    assert summary.endswith(" skipped=0")
    assert aggregate_loaded == "False"
    assert (deterministic_document(json.loads(report.read_text()))
            == deterministic_document(clean))
    assert main(["stats", "--reports", str(out_dir),
                 "--out", str(tmp_path / "tables")]) == 0


def test_a_clean_analyze_run_prints_only_its_summary_line(tmp_path):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    done = _python("-c", "import sys; from analytika.cli import main; "
                   "sys.exit(main(sys.argv[1:]))", "analyze", str(apk_path),
                   "--out", str(tmp_path / "reports"))
    assert done.stdout == "analyzed=1 ok=1 timeout=0 error=0 skipped=0\n"
    assert done.stderr == ""


def test_analyze_reanalyzes_a_report_naming_another_app(tmp_path, capsys):
    paths = []
    for i, package in enumerate(("com.fixture.a", "com.fixture.b")):
        paths.append(tmp_path / f"app{i}.apk")
        paths[-1].write_bytes(planted_apk(package=package))
    out_dir = tmp_path / "reports"
    argv = ["analyze", *map(str, paths), "--out", str(out_dir)]
    assert main(argv) == 0
    a, b = (out_dir / f"{sha256_digest(p.read_bytes())}.json" for p in paths)
    clean_b = json.loads(b.read_text())
    b.write_bytes(a.read_bytes())       # b's name, a's report

    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "analyzed=1 ok=1 timeout=0 error=0 skipped=1")
    assert (deterministic_document(json.loads(b.read_text()))
            == deterministic_document(clean_b))
    assert main(["stats", "--reports", str(out_dir),
                 "--out", str(tmp_path / "tables")]) == 0


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_every_written_file_takes_its_mode_from_the_umask(tmp_path, umask,
                                                          mode):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    report_dir, out_dir = tmp_path / "reports", tmp_path / "tables"
    old = os.umask(umask)
    try:
        assert main(["analyze", str(apk_path), "--out", str(report_dir)]) == 0
        assert main(["stats", "--reports", str(report_dir),
                     "--out", str(out_dir)]) == 0
    finally:
        os.umask(old)
    written = [*report_dir.iterdir(), *out_dir.iterdir()]
    assert len(written) == 2 + 10       # report and run.log; 9 CSVs, summary
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {
        p.name: mode for p in written}


def _cli_writing_at_most(limit: int, *args) -> subprocess.CompletedProcess:
    """Run the CLI in a child process that can write no file past `limit`
    bytes (RLIMIT_FSIZE, set in the child only)."""
    import resource

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(analytika.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "analytika.cli", *args], env=env,
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                              (limit, limit)))


def test_stats_that_cannot_write_its_tables_leaves_the_last_summary_whole(
        tmp_path):
    report_dir, out_dir = tmp_path / "reports", tmp_path / "tables"
    synth.random_corpus(random.Random(5), report_dir,
                        tmp_path / "corpus.csv", apps=12)
    args = ["stats", "--reports", str(report_dir), "--out", str(out_dir)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    # Every table fits under the limit and summary.json does not.
    limit = max(len(v) for k, v in before.items() if k.endswith(".csv"))
    assert len(before["summary.json"]) > limit
    done = _cli_writing_at_most(limit, *args)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"cannot write tables {out_dir}: {os.strerror(errno.EFBIG)}\n")
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def _tables_and_rerun(tmp_path) -> tuple[Path, list[str], dict[str, bytes]]:
    """A default stats run's --out and its files, and the argv of a
    --top-n 3 rerun into it that would change three of the files."""
    report_dir, out_dir = tmp_path / "reports", tmp_path / "tables"
    synth.random_corpus(random.Random(5), report_dir,
                        tmp_path / "corpus.csv", apps=40)
    args = ["stats", "--reports", str(report_dir), "--out", str(out_dir)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    rerun = [*args[:-1], str(tmp_path / "rerun"), "--top-n", "3"]
    assert main(rerun) == 0
    changed = {p.name for p in (tmp_path / "rerun").iterdir()
               if p.read_bytes() != before[p.name]}
    assert changed == {"summary.json", "top_libs_biometrics.csv",
                       "top_libs_keystore.csv",
                       "top_libs_protected_confirmation.csv"}
    return out_dir, [*args, "--top-n", "3"], before


def test_stats_rerun_that_cannot_write_every_file_leaves_the_last_set_whole(
        tmp_path):
    out_dir, rerun, before = _tables_and_rerun(tmp_path)
    # Every new table fits under the limit and summary.json does not.
    limit = max(len(v) for k, v in before.items() if k.endswith(".csv"))
    done = _cli_writing_at_most(limit, *rerun)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"cannot write tables {out_dir}: {os.strerror(errno.EFBIG)}\n")
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_stats_refuses_a_table_that_is_a_directory_before_writing_any(
        tmp_path, capsys):
    out_dir, rerun, before = _tables_and_rerun(tmp_path)
    capsys.readouterr()
    (out_dir / "crypto.csv").unlink()
    (out_dir / "crypto.csv").mkdir()
    del before["crypto.csv"]
    assert main(rerun) == 2
    assert capsys.readouterr().err == (
        f"cannot write tables {out_dir}: {os.strerror(errno.EISDIR)}\n")
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()
            if p.is_file()} == before
    assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == [
        "crypto.csv"]


def test_stats_refuses_a_report_of_another_format_and_analyze_redoes_it(
        tmp_path, capsys):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    report_dir = tmp_path / "reports"
    analyze = ["analyze", str(apk_path), "--out", str(report_dir)]
    stats = ["stats", "--reports", str(report_dir),
             "--out", str(tmp_path / "tables")]
    assert main(analyze) == 0
    report = report_dir / f"{sha256_digest(apk_path.read_bytes())}.json"
    clean = report.read_bytes()
    doc = json.loads(clean)
    doc["meta"]["format"] = 2
    report.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main(stats) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"cannot read report {report}: report format 2 is not format 1, "
        "the one this version reads\n"))
    assert not (tmp_path / "tables").exists()

    assert main(analyze) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "analyzed=1 ok=1 timeout=0 error=0 skipped=0")
    rewritten = json.loads(report.read_text())
    assert "format" not in rewritten["meta"]
    assert (deterministic_document(rewritten)
            == deterministic_document(json.loads(clean)))
    assert main(stats) == 0


def test_analyze_that_cannot_write_a_report_exits_2_with_one_line(tmp_path):
    apk_path = tmp_path / "app.apk"
    apk_path.write_bytes(planted_apk())
    out_dir = tmp_path / "reports"
    done = _cli_writing_at_most(1024, "analyze", str(apk_path),
                                "--out", str(out_dir))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"cannot write reports {out_dir}: {os.strerror(errno.EFBIG)}\n")
    assert list(out_dir.iterdir()) == []
    assert main(["analyze", str(apk_path), "--out", str(out_dir)]) == 0
    (report,) = out_dir.glob("*.json")
    assert report.stat().st_size > 1024


def test_package_root_imports_no_submodule():
    done = _python("-c", "import sys, analytika; print(sorted("
                   "m for m in sys.modules if m.startswith('analytika.')))")
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(
    "analytika" if path.stem == "__init__" else f"analytika.{path.stem}"
    for path in Path(analytika.__file__).parent.glob("*.py")))
def test_module_imports_alone(module):
    _python("-c", f"import {module}")


def _readme_usage_flags(command: str) -> set[str]:
    """The --flags of the README usage block that runs `command`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = [block for block in readme.read_text(encoding="utf-8").split("```")[1::2]
              if f"analytika {command} " in block]
    assert len(blocks) == 1, f"one usage block for {command}"
    return set(re.findall(r"--[a-z][a-z0-9-]*", blocks[0]))


@pytest.mark.parametrize("command", ["analyze", "stats"])
def test_readme_usage_lists_exactly_the_parser_options(command):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = [action.option_strings
               for action in subparsers.choices[command]._actions
               if action.option_strings and action.dest != "help"]
    documented = _readme_usage_flags(command)
    assert [o for o in options if not documented & set(o)] == []
    accepted = {flag for strings in options for flag in strings}
    assert documented - accepted == set()
