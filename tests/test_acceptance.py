"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Criterion 2 uses APKs from $ANALYTIKA_SMOKE_DIR when that
variable points at a directory of real packages; otherwise it falls back
to the generated smoke corpus.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
import zipfile
from collections import Counter
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import pytest

from analytika.aggregate import (
    SelectionFilter,
    api_prevalence,
    apply_filter,
    category_breakdown,
    compute_stats,
    crypto_table,
    load_corpus,
    location_split,
    top_libraries,
    write_stats,
)
from analytika.attribution import classify_location, load_known_prefixes, parse_package
from analytika.container import sha256_digest
from analytika.corpus import CorpusEntry
from analytika.defaults import (
    default_game_categories_path,
    default_known_prefixes_path,
)
from analytika.dex import descriptor_to_dotted, parse_dex
from analytika.matchers import (
    NativeLibPattern,
    load_patterns,
    match_native_libs,
    match_tee_apis,
)
from analytika.pipeline import AnalysisConfig, analyze_apk, run_corpus
from analytika.report import deterministic_document, read_report_document

import golden_corpus
import stats_oracle
import synth
from conftest import (
    PLANTED_EXPECTED,
    PLANTED_PLAN,
    UNREFERENCED_PATTERN_STRING,
    invocation_multiset,
    invokes,
    make_fixture_apk,
    plan_multiset,
    random_plan,
)
from dexbuild import build_fixture_dex
from dexlister import list_invokes


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {number:02d}] {title}: FAIL")
        raise
    print(f"\n[ACCEPTANCE {number:02d}] {title}: PASS")


def test_ac01_dex_round_trip_property():
    with criterion(1, "DEX round-trip over 500 random fixture plans"):
        rng = random.Random(0xDEC0DE)
        started = time.perf_counter()
        for _ in range(500):
            plan = random_plan(rng, max_classes=50, max_targets=10)
            unit = parse_dex(build_fixture_dex(plan))
            assert invocation_multiset(unit) == plan_multiset(plan)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


def _smoke_apks(smoke_corpus):
    override = os.environ.get("ANALYTIKA_SMOKE_DIR")
    if override:
        paths = sorted(Path(override).glob("*.apk"))
        if len(paths) >= 5:
            return [(p.stem, p.read_bytes()) for p in paths]
    return smoke_corpus


def test_ac02_disassembler_oracle_parity(smoke_corpus):
    with criterion(2, "invocation parity with independent lister on smoke corpus"):
        apks = _smoke_apks(smoke_corpus)
        assert len(apks) >= 5
        for _name, apk in apks:
            zf = zipfile.ZipFile(io.BytesIO(apk))
            mine = set()
            theirs = set()
            for entry in zf.namelist():
                if not entry.endswith(".dex") or "/" in entry:
                    continue
                raw = zf.read(entry)
                unit = parse_dex(raw, entry)
                mine |= {(inv.caller_class, inv.target.defining_class,
                          inv.target.method_name) for inv in invokes(unit)}
                theirs |= {(descriptor_to_dotted(c), descriptor_to_dotted(t), m)
                           for c, t, m in list_invokes(raw)}
            missing = theirs - mine
            extra = mine - theirs
            assert not missing and not extra, (missing, extra)


def test_ac03_planted_detection_and_false_positive_rule():
    with criterion(3, "planted fixture yields exactly the expected detections"):
        patterns = load_patterns()
        data = build_fixture_dex(
            PLANTED_PLAN, extra_strings=(UNREFERENCED_PATTERN_STRING,))
        assert UNREFERENCED_PATTERN_STRING.encode() in data
        unit = parse_dex(data)
        records = match_tee_apis(unit, patterns.tee_sets)
        assert len(records) == 6
        assert {(r.detector, r.target_class, r.target_method)
                for r in records} == PLANTED_EXPECTED
        assert all(r.target_class != "android.security.keystore.KeyProperties"
                   for r in records)


def test_ac04_attribution_partition(tmp_path, smoke_corpus):
    with criterion(4, "location partition sums and prefix boundary rules"):
        app = parse_package("com.package")
        assert classify_location(app, parse_package("com.packageX")) == "inlib"
        assert classify_location(app, parse_package("com.package.xyz")) == "inmain"

        config = AnalysisConfig(output_dir=tmp_path / "reports")
        for package, apk in smoke_corpus:
            entry = CorpusEntry(sha256=sha256_digest(apk))
            report = analyze_apk(apk, entry, config)
            assert report.status == "ok"
            by_location = Counter(m.location for m in report.matches)
            assert sum(by_location.values()) == len(report.matches)
            assert set(by_location) <= {"inmain", "inlib", "obfuscated"}


_NEAR_MISSES = [
    "libraryA", "libraryA.txt", "libraryAso", "libraryA_so", "libraryA-so",
    "libraryA.s", "libraryA.0so", "libraryAx.so", "libraryA2.so",
    "libraryAplus.so", "liblibraryA.so", "xlibraryA.so", "my-libraryA.so",
    "toolslibraryA.so", "librarya_helper", "libraryB.so", "librar.so",
    "libraryA_1.2.3", "libraryA-v2", "libraryA.version", "so.libraryA",
    "libraryA.os", "libraryA_os.1", "alibraryA.so", "libraryAA.so",
    "libraryA$1.so", "libsodium.txt", "libraryA~1.so", "LIBRARYAX.SO",
    "libraryA.sx",
]


def test_ac05_native_lib_filename_rule():
    with criterion(5, "native library filename variants and near misses"):
        patterns = [NativeLibPattern("liba", "libraryA")]
        hits = match_native_libs(
            ["lib/x86/libraryA_10.2.3.so", "lib/x86/libraryA.so.1.2"], patterns)
        assert [h[1] for h in hits] == ["lib/x86/libraryA_10.2.3.so",
                                        "lib/x86/libraryA.so.1.2"]
        assert len(_NEAR_MISSES) >= 30
        false_hits = match_native_libs(_NEAR_MISSES, patterns)
        assert false_hits == [], false_hits


def test_ac06_pipeline_robustness(tmp_path, slow_apk):
    with criterion(6, "corpus run isolates one slow and one broken app"):
        good = {}
        for i in range(18):
            package = f"com.good{i}.app"
            good[f"good{i}"] = make_fixture_apk(
                package=package,
                dex_plans=[[(f"{package}.Main",
                             [("android.media.MediaDrm", "openSession"),
                              ("android.security.KeyChain", "getPrivateKey")])]],
                native_libs=("lib/arm64-v8a/libsodium.so",) if i % 3 == 0 else ())

        def entries_for(directory, apps):
            directory.mkdir(parents=True, exist_ok=True)
            entries = []
            for name, data in apps.items():
                path = directory / f"{name}.apk"
                path.write_bytes(data)
                entries.append(CorpusEntry(sha256=sha256_digest(data),
                                           source=str(path)))
            return entries

        mixed = dict(good)
        mixed["slow"] = slow_apk
        mixed["broken"] = good["good0"][:300]
        mixed_entries = entries_for(tmp_path / "mixed", mixed)
        mixed_config = AnalysisConfig(output_dir=tmp_path / "mixed" / "out",
                                      timeout_seconds=1, worker_count=4)
        started = time.perf_counter()
        summary = run_corpus(mixed_entries, mixed_config)
        wall = time.perf_counter() - started
        assert summary.ok == 18 and summary.timeout == 1 and summary.error == 1
        assert wall < 30.0, f"run took {wall:.1f}s"

        clean_entries = entries_for(tmp_path / "clean", good)
        clean_config = AnalysisConfig(output_dir=tmp_path / "clean" / "out",
                                      timeout_seconds=30, worker_count=4)
        run_corpus(clean_entries, clean_config)
        for entry in clean_entries:
            mixed_doc = read_report_document(
                tmp_path / "mixed" / "out" / f"{entry.sha256}.json")
            clean_doc = read_report_document(
                tmp_path / "clean" / "out" / f"{entry.sha256}.json")
            assert (json.dumps(deterministic_document(mixed_doc), sort_keys=True)
                    == json.dumps(deterministic_document(clean_doc),
                                  sort_keys=True))


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _check_corpus_against_oracle(report_dir, csv_path, prefixes_path):
    corpus = load_corpus(report_dir, csv_path)
    prefixes = load_known_prefixes(prefixes_path)
    apps = stats_oracle.read_everything(report_dir, csv_path)

    mine = api_prevalence(corpus)
    ref = stats_oracle.prevalence(apps)
    assert mine["ok_apps"] == ref["ok_apps"]
    for api in synth.APIS:
        assert mine["per_api"][api]["apps"] == ref[api][0]
        assert _close(mine["per_api"][api]["share"], ref[api][1])
    assert mine["any_api"]["apps"] == ref["any"][0]
    assert mine["no_api"]["apps"] == ref["none"][0]
    assert mine["all_four"]["apps"] == ref["all_four"][0]
    assert (mine["all_excl_protected_confirmation"]["apps"]
            == ref["all_excl_pc"][0])

    mine = location_split(corpus, prefixes)
    ref = stats_oracle.locations(apps, prefixes_path)
    assert mine["matched_apps"] == ref["matched_apps"]
    assert mine["match_counts"] == ref["counts"]
    assert mine["total_matches"] == ref["total"]
    for key in ("inlib_match_share", "apps_with_inlib_share",
                "apps_with_inmain_share", "apps_with_obfuscated_share",
                "apps_exclusively_inmain_share", "libraries_per_app_mean",
                "libraries_per_app_median"):
        assert _close(mine[key], ref[key]), key

    for api in synth.APIS:
        table = top_libraries(corpus, api, 10, prefixes)
        rows, unique = stats_oracle.top_libraries(apps, api, 10, prefixes_path)
        assert table["rows"] == rows
        assert table["unique_libraries"] == unique

    ref_categories = stats_oracle.categories(apps)
    for row in category_breakdown(corpus):
        ref_row = ref_categories[row["category"]]
        assert row["ok_apps"] == ref_row["ok_apps"]
        for api in synth.APIS:
            assert row[api]["apps"] == ref_row[api][0]
            assert _close(row[api]["share"], ref_row[api][1])
    assert len(category_breakdown(corpus)) == len(ref_categories)

    mine = crypto_table(corpus)
    ref = stats_oracle.crypto(apps)
    for lib, count in ref["software"].items():
        assert mine["software"].get(lib, 0) == count
    assert all(count == 0 for lib, count in mine["software"].items()
               if lib not in ref["software"])
    for lib, count in ref["native"].items():
        assert mine["native"].get(lib, 0) == count
    assert mine["apps_with_software"] == ref["apps_with_software"]
    assert mine["apps_with_native"] == ref["apps_with_native"]


def test_ac07_aggregator_matches_brute_force_oracle(tmp_path):
    with criterion(7, "aggregator equals brute-force recomputation on 10 corpora"):
        prefixes_path = default_known_prefixes_path()
        for i in range(10):
            rng = random.Random(1000 + i)
            report_dir = tmp_path / f"corpus{i}" / "reports"
            csv_path = tmp_path / f"corpus{i}" / "corpus.csv"
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            synth.random_corpus(rng, report_dir, csv_path,
                                apps=rng.randint(5, 20))
            _check_corpus_against_oracle(report_dir, csv_path, prefixes_path)


def test_ac08_filter_boundary_semantics(tmp_path):
    with criterion(8, "selection filter boundary values"):
        triples = [
            ("Tools", 9_999, "2021-06-01", False),
            ("Tools", 10_000, "2021-06-01", True),
            ("Tools", 50_000, "2019-12-31", False),
            ("Tools", 50_000, "2020-01-01", True),
            ("Casino", 50_000, "2021-06-01", False),
            ("Educational", 50_000, "2021-06-01", False),
            ("Education", 50_000, "2021-06-01", True),
        ]
        docs, rows = [], []
        for i, (category, downloads, updated, _kept) in enumerate(triples):
            docs.append(synth.report_doc(synth.sha_for(i)))
            rows.append((synth.sha_for(i), f"com.app{i}", category,
                         downloads, updated))
        report_dir = tmp_path / "reports"
        for doc in docs:
            synth.write_report(report_dir, doc)
        synth.write_corpus_csv(tmp_path / "corpus.csv", rows)
        corpus = load_corpus(report_dir, tmp_path / "corpus.csv")
        kept = {r.sha256 for r in apply_filter(corpus, SelectionFilter())}
        expected = {synth.sha_for(i)
                    for i, (*_rest, keep) in enumerate(triples) if keep}
        assert kept == expected


def test_ac09_table_shapes_match_golden_files(tmp_path):
    with criterion(9, "emitted tables match the golden files byte for byte"):
        golden_corpus.build(tmp_path / "reports", tmp_path / "corpus.csv")
        corpus = load_corpus(tmp_path / "reports", tmp_path / "corpus.csv")
        files = write_stats(compute_stats(corpus), tmp_path / "out")
        golden_dir = Path(__file__).parent / "data" / "golden"
        checked = 0
        for path in files:
            golden = golden_dir / path.name
            assert golden.exists(), f"missing golden file {path.name}"
            assert path.read_bytes() == golden.read_bytes(), path.name
            checked += 1
        assert checked == 10


def test_ac10_throughput_sanity(tmp_path, smoke_corpus):
    with criterion(10, "median smoke-corpus analysis below two seconds"):
        config = AnalysisConfig(output_dir=tmp_path / "reports")
        patterns = load_patterns()
        durations = []
        for _package, apk in smoke_corpus:
            entry = CorpusEntry(sha256=sha256_digest(apk))
            started = time.perf_counter()
            report = analyze_apk(apk, entry, config, patterns=patterns)
            durations.append(time.perf_counter() - started)
            assert report.status == "ok"
        durations.sort()
        median = durations[len(durations) // 2]
        assert median < 2.0, f"median {median:.2f}s"
