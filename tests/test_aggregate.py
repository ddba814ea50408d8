from __future__ import annotations

import json
import os
import random
from datetime import date

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
from analytika import defaults
from analytika.attribution import load_known_prefixes
from analytika.defaults import default_known_prefixes_path
from analytika.errors import DuplicateSha256Error, MalformedReportError
from analytika.matchers import load_patterns

import synth
from synth import make_match, report_doc, sha_for, write_corpus_csv, write_report

PREFIXES = load_known_prefixes(default_known_prefixes_path())


def _corpus(tmp_path, docs, rows=None):
    report_dir = tmp_path / "reports"
    for doc in docs:
        write_report(report_dir, doc)
    csv_path = None
    if rows is not None:
        csv_path = write_corpus_csv(tmp_path / "corpus.csv", rows)
    return load_corpus(report_dir, csv_path)


def test_load_corpus_full_join(tmp_path):
    docs = [report_doc(sha_for(i)) for i in range(3)]
    rows = [(sha_for(i), f"com.app{i}", "Tools", 20_000, "2021-01-01")
            for i in range(3)]
    corpus = _corpus(tmp_path, docs, rows)
    records = list(corpus)
    assert len(records) == 3
    assert all(r.category == "Tools" for r in records)
    assert compute_stats(corpus)["totals"]["unmatched_metadata"] == 0


def test_load_corpus_partial_metadata(tmp_path):
    docs = [report_doc(sha_for(i)) for i in range(3)]
    rows = [(sha_for(i), f"com.app{i}", "Tools", 20_000, "2021-01-01")
            for i in range(2)]
    records = list(_corpus(tmp_path, docs, rows))
    assert len(records) == 3
    assert sum(1 for r in records if r.category is None) == 1


def test_load_corpus_counts_unmatched_rows(tmp_path):
    docs = [report_doc(sha_for(1))]
    rows = [(sha_for(1), "com.a", "Tools", 20_000, "2021-01-01"),
            (sha_for(2), "com.b", "Tools", 20_000, "2021-01-01")]
    corpus = _corpus(tmp_path, docs, rows)
    assert compute_stats(corpus)["totals"]["unmatched_metadata"] == 1


def test_duplicate_sha_in_csv(tmp_path):
    (tmp_path / "reports").mkdir()      # refused before any report is read
    (tmp_path / "reports" / "broken.json").write_text("{not json")
    docs = [report_doc(sha_for(1))]
    rows = [(sha_for(1), "com.a", "Tools", 20_000, "2021-01-01"),
            (sha_for(1), "com.a", "Tools", 20_000, "2021-01-01")]
    with pytest.raises(DuplicateSha256Error):
        _corpus(tmp_path, docs, rows)


def _broken(doc, *path_and_value):
    """`doc` with the value at the key path replaced; None deletes it."""
    *keys, last, value = path_and_value
    target = doc
    for key in keys:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.mark.parametrize("change, field", [
    (("meta", []), "meta"),
    (("meta", "sha256", 7), "meta.sha256"),
    (("meta", "status", "done"), "meta.status"),
    (("matches", {}), "matches"),
    (("matches", 0, "x"), "matches[0].detector"),
    (("matches", 0, "detector", None), "matches[0].detector"),
    (("matches", 0, "location", ["inlib"]), "matches[0].location"),
    (("matches", 0, "package", 5), "matches[0].package"),
    (("crypto_libs", "bouncycastle"), "crypto_libs"),
    (("crypto_libs", [["bouncycastle"]]), "crypto_libs"),
    (("native_libs", 0, "library", 3), "native_libs[0].library"),
], ids=["meta-list", "sha-int", "status-unknown", "matches-object",
        "match-not-object", "detector-missing", "location-list", "package-int",
        "crypto-string", "crypto-nested", "native-library-int"])
def test_malformed_report_field_names_file_and_field(tmp_path, change, field):
    doc = report_doc(sha_for(1), matches=[make_match("drm")],
                     crypto=("bouncycastle",), native=("openssl",))
    path = tmp_path / "reports" / f"{sha_for(1)}.json"
    path.parent.mkdir()
    path.write_text(json.dumps(_broken(doc, *change)), encoding="utf-8")
    corpus = load_corpus(tmp_path / "reports")
    with pytest.raises(MalformedReportError) as info:
        compute_stats(corpus)
    assert str(info.value).startswith(f"{path}: field {field} is not ")


def _meta_corpus(tmp_path, triples):
    """One record per (category, downloads, last_update) triple."""
    docs, rows = [], []
    for i, (category, downloads, last_update) in enumerate(triples):
        docs.append(report_doc(sha_for(i)))
        rows.append((sha_for(i), f"com.app{i}", category, downloads,
                     last_update))
    return _corpus(tmp_path, docs, rows)


def test_filter_boundaries(tmp_path):
    corpus = _meta_corpus(tmp_path, [
        ("Tools", 9_999, "2021-01-01"),      # downloads below threshold
        ("Tools", 10_000, "2021-01-01"),     # boundary kept
        ("Tools", 20_000, "2019-12-31"),     # stale
        ("Tools", 20_000, "2020-01-01"),     # boundary kept
        ("Educational", 20_000, "2021-01-01"),   # game category
        ("Education", 20_000, "2021-01-01"),     # non-game counterpart
    ])
    kept = apply_filter(corpus, SelectionFilter())
    assert {r.sha256 for r in kept} == {sha_for(1), sha_for(3), sha_for(5)}


def test_filter_monotonicity(tmp_path):
    rng = random.Random(42)
    report_dir = tmp_path / "reports"
    synth.random_corpus(rng, report_dir, tmp_path / "corpus.csv", apps=25)
    corpus = load_corpus(report_dir, tmp_path / "corpus.csv")
    base = SelectionFilter(min_downloads=0, min_last_update=date.min,
                           excluded_categories=frozenset())
    counts = [len(list(apply_filter(corpus, base)))]
    for tighter in (
            SelectionFilter(min_downloads=10_000,
                            min_last_update=date.min,
                            excluded_categories=frozenset()),
            SelectionFilter(min_downloads=10_000,
                            min_last_update=date(2020, 1, 1),
                            excluded_categories=frozenset()),
            SelectionFilter(min_downloads=10_000,
                            min_last_update=date(2020, 1, 1)),
            SelectionFilter(min_downloads=1_000_000,
                            min_last_update=date(2022, 1, 1))):
        counts.append(len(list(apply_filter(corpus, tighter))))
    assert counts == sorted(counts, reverse=True)


def test_chained_filters_keep_what_both_keep(tmp_path):
    corpus = _meta_corpus(tmp_path, [
        ("Tools", 20_000, "2019-12-31"),     # popular, stale
        ("Tools", 5_000, "2021-01-01"),      # recent, unpopular
        ("Tools", 20_000, "2021-01-01"),     # both
        ("Tools", 5_000, "2019-12-31"),      # neither
    ])
    popular = SelectionFilter(min_downloads=10_000, min_last_update=date.min,
                              excluded_categories=frozenset())
    recent = SelectionFilter(min_downloads=0,
                             min_last_update=date(2020, 1, 1),
                             excluded_categories=frozenset())

    def kept(view):
        return {r.sha256 for r in view}

    assert kept(apply_filter(corpus, popular)) == {sha_for(0), sha_for(2)}
    assert kept(apply_filter(corpus, recent)) == {sha_for(1), sha_for(2)}
    assert kept(apply_filter(apply_filter(corpus, popular), recent)) \
        == kept(apply_filter(apply_filter(corpus, recent), popular)) \
        == {sha_for(2)}
    assert len(kept(corpus)) == 4       # a filter leaves its source view as is


def test_corpus_is_a_view_read_afresh_by_each_pass(tmp_path):
    corpus = _corpus(tmp_path, [report_doc(sha_for(0))])
    assert not hasattr(corpus, "records")
    assert [r.sha256 for r in corpus] == [sha_for(0)]
    assert [r.sha256 for r in corpus] == [sha_for(0)]
    write_report(tmp_path / "reports",
                 report_doc(sha_for(1), matches=[make_match("drm")]))
    assert compute_stats(corpus)["totals"]["analyzed"] == 2
    assert api_prevalence(corpus)["per_api"]["drm"]["apps"] == 1


def test_each_pass_names_the_first_bad_report_in_name_order(tmp_path):
    report_dir = tmp_path / "reports"
    write_report(report_dir, report_doc(sha_for(0)))
    (report_dir / "m.json").write_text('{"meta": []}')
    (report_dir / "b.json").write_text("[]")
    (report_dir / "z.json").write_text("{not json")
    corpus = load_corpus(report_dir)        # reads no report
    passes = (compute_stats, api_prevalence, category_breakdown, crypto_table,
              lambda c: location_split(c, PREFIXES),
              lambda c: top_libraries(c, "drm", 3, PREFIXES), list)
    for one_pass in passes:
        with pytest.raises(MalformedReportError) as info:
            one_pass(corpus)
        assert str(info.value) == f"{report_dir / 'b.json'}: not a JSON object"


_SELECTIONS = {
    "none": None,
    "defaults": SelectionFilter(),
    "recent": SelectionFilter(min_downloads=0,
                              min_last_update=date(2020, 1, 1),
                              excluded_categories=frozenset()),
}


@pytest.mark.parametrize("seed", [7, 21, 42])
@pytest.mark.parametrize("selection", sorted(_SELECTIONS))
def test_each_table_function_is_its_part_of_compute_stats(tmp_path, seed,
                                                          selection):
    report_dir = tmp_path / "reports"
    synth.random_corpus(random.Random(seed), report_dir,
                        tmp_path / "corpus.csv", apps=30)
    corpus = load_corpus(report_dir, tmp_path / "corpus.csv")
    if _SELECTIONS[selection] is not None:
        corpus = apply_filter(corpus, _SELECTIONS[selection])
    stats = compute_stats(corpus, top_n=3, known_prefixes=PREFIXES)
    records = list(corpus)
    assert stats["totals"]["analyzed"] == len(records)
    assert stats["totals"]["ok"] == sum(r.status == "ok" for r in records)
    assert stats["totals"]["unmatched_metadata"] >= 1      # the ghost row
    assert api_prevalence(corpus) == stats["prevalence"]
    assert location_split(corpus, PREFIXES) == stats["locations"]
    for d in synth.APIS:
        assert (top_libraries(corpus, d, 3, PREFIXES)
                == stats["top_libraries"][d])
    assert category_breakdown(corpus) == stats["categories"]
    assert crypto_table(corpus) == stats["crypto"]


def test_summary_json_is_the_compute_stats_mapping(tmp_path):
    synth.random_corpus(random.Random(7), tmp_path / "reports",
                        tmp_path / "corpus.csv", apps=30)
    stats = compute_stats(load_corpus(tmp_path / "reports",
                                      tmp_path / "corpus.csv"),
                          top_n=3, known_prefixes=PREFIXES)
    write_stats(stats, tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary == json.loads(json.dumps(stats))
    assert sorted(summary) == ["categories", "crypto", "locations",
                               "prevalence", "top_libraries", "totals"]
    assert all(table.keys() == {"rows", "unique_libraries"}
               for table in summary["top_libraries"].values())


def test_prevalence_hand_computed(tmp_path):
    docs = []
    for i in range(10):
        matches = []
        if i < 3:
            matches = [make_match("keystore")]
        docs.append(report_doc(sha_for(i), matches=matches))
    corpus = _corpus(tmp_path, docs)
    stats = api_prevalence(corpus)
    assert stats["per_api"]["keystore"] == {"apps": 3, "share": 0.3}
    assert stats["any_api"]["apps"] == 3
    assert stats["no_api"]["apps"] == 7


def test_prevalence_app_counts_once(tmp_path):
    docs = [report_doc(sha_for(0),
                       matches=[make_match("keystore", offset=i)
                                for i in range(5)])]
    corpus = _corpus(tmp_path, docs)
    assert api_prevalence(corpus)["per_api"]["keystore"]["apps"] == 1


def test_prevalence_empty_and_failed(tmp_path):
    docs = [report_doc(sha_for(0), status="error"),
            report_doc(sha_for(1), status="timeout")]
    corpus = _corpus(tmp_path, docs)
    stats = api_prevalence(corpus)
    assert stats["ok_apps"] == 0
    assert all(stats["per_api"][d] == {"apps": 0, "share": 0.0}
               for d in synth.APIS)


def test_prevalence_intersections(tmp_path):
    all_four = [make_match(d) for d in synth.APIS]
    trio = [make_match(d) for d in ("keystore", "drm", "biometrics")]
    docs = [report_doc(sha_for(0), matches=all_four),
            report_doc(sha_for(1), matches=trio),
            report_doc(sha_for(2))]
    stats = api_prevalence(_corpus(tmp_path, docs))
    assert stats["all_four"]["apps"] == 1
    assert stats["all_excl_protected_confirmation"]["apps"] == 2


def test_location_split_hand_computed(tmp_path):
    docs = [
        report_doc(sha_for(0), matches=[
            make_match("keystore", "inlib", "com.appsflyer.core", offset=i)
            for i in range(3)]),
        report_doc(sha_for(1), matches=[
            make_match("drm", "inlib", "com.appsflyer.core"),
            make_match("drm", "inlib", "androidx.biometric", offset=7),
            make_match("drm", "inlib", "androidx.biometric", offset=9)]),
        report_doc(sha_for(2), matches=[
            make_match("keystore", "inlib", "mono.android.drm", offset=i)
            for i in range(3)]),
        report_doc(sha_for(3), matches=[
            make_match("keystore", "inmain", "com.app.main")]),
    ]
    stats = location_split(_corpus(tmp_path, docs), PREFIXES)
    assert stats["match_counts"] == {"inmain": 1, "inlib": 9, "obfuscated": 0}
    assert stats["inlib_match_share"] == pytest.approx(0.9)
    assert stats["apps_with_inlib_share"] == pytest.approx(3 / 4)
    assert stats["apps_with_inmain_share"] == pytest.approx(1 / 4)
    assert stats["apps_exclusively_inmain_share"] == pytest.approx(1 / 4)
    # distinct libraries: app0 -> 1, app1 -> 2, app2 -> 1
    assert stats["libraries_per_app_mean"] == pytest.approx(4 / 3)
    assert stats["libraries_per_app_median"] == pytest.approx(1.0)


def test_unknown_location_disqualifies_exclusively_inmain(tmp_path):
    docs = [
        report_doc(sha_for(0), matches=[
            make_match("keystore", "inmain", "com.app.main"),
            make_match("keystore", "elsewhere", "com.app.main", offset=9)]),
        report_doc(sha_for(1), matches=[
            make_match("keystore", "inmain", "com.app.main")]),
    ]
    stats = location_split(_corpus(tmp_path, docs), PREFIXES)
    assert stats["apps_exclusively_inmain_share"] == 0.5
    assert stats["total_matches"] == 2      # the unknown location counts nowhere


def test_records_hold_per_app_facts_not_matches(tmp_path):
    matches = [make_match("drm", "inlib", "com.appsflyer.core", offset=i)
               for i in range(50)]
    matches.append(make_match("bouncycastle", "inmain", "com.app.main"))
    doc = report_doc(sha_for(0), matches=matches, crypto=("bouncycastle",))
    (record,) = _corpus(tmp_path, [doc])
    assert not hasattr(record, "matches")
    assert record.detectors == {"drm"}
    assert record.location_counts == {"inlib": 50}
    assert record.inlib_packages == {"drm": {"com.appsflyer.core"}}
    assert record.crypto_libs == {"bouncycastle"}


def test_location_obfuscated_only_app(tmp_path):
    docs = [report_doc(sha_for(0), matches=[
        make_match("keystore", "obfuscated", "")])]
    stats = location_split(_corpus(tmp_path, docs), PREFIXES)
    assert stats["apps_with_obfuscated_share"] == 1.0
    assert stats["apps_with_inlib_share"] == 0.0
    assert stats["apps_with_inmain_share"] == 0.0


def test_location_split_empty(tmp_path):
    stats = location_split(_corpus(tmp_path, [report_doc(sha_for(0))]),
                           PREFIXES)
    assert stats["total_matches"] == 0
    assert stats["inlib_match_share"] == 0.0
    assert stats["libraries_per_app_mean"] == 0.0


def test_top_libraries_ranked(tmp_path):
    docs = []
    for i in range(3):
        docs.append(report_doc(sha_for(i), matches=[
            make_match("keystore", "inlib", "com.appsflyer.core")]))
    docs.append(report_doc(sha_for(3), matches=[
        make_match("biometrics", "inlib", "androidx.biometric")]))
    corpus = _corpus(tmp_path, docs)
    table = top_libraries(corpus, "keystore", 10, PREFIXES)
    assert table["rows"][0] == ("com.appsflyer", 3)
    assert table["unique_libraries"] == 1
    assert top_libraries(corpus, "drm", 10, PREFIXES)["rows"] == []


def test_top_libraries_refuses_an_empty_ranking(tmp_path):
    corpus = _corpus(tmp_path, [report_doc(sha_for(0))])
    with pytest.raises(ValueError) as info:
        top_libraries(corpus, "keystore", 0, PREFIXES)
    assert str(info.value) == "n must be at least 1"


def test_selection_filter_refuses_negative_min_downloads():
    with pytest.raises(ValueError) as info:
        SelectionFilter(min_downloads=-1)
    assert str(info.value) == "min_downloads must be non-negative"


def test_top_libraries_tie_break(tmp_path):
    docs = [
        report_doc(sha_for(0), matches=[
            make_match("keystore", "inlib", "org.zzz.libb.core")]),
        report_doc(sha_for(1), matches=[
            make_match("keystore", "inlib", "org.aaa.liba.core")]),
    ]
    table = top_libraries(_corpus(tmp_path, docs), "keystore", 10,
                          PREFIXES)
    assert table["rows"] == [("org.aaa.liba.core", 1), ("org.zzz.libb.core", 1)]


def test_category_breakdown_hand_computed(tmp_path):
    docs, rows = [], []
    for i in range(4):
        matches = [make_match("keystore")] if i < 3 else []
        docs.append(report_doc(sha_for(i), matches=matches))
        rows.append((sha_for(i), f"com.app{i}", "Finance", 20_000,
                     "2021-01-01"))
    # a category with only failed apps must not appear
    docs.append(report_doc(sha_for(9), status="error"))
    rows.append((sha_for(9), "com.f", "Tools", 20_000, "2021-01-01"))
    corpus = _corpus(tmp_path, docs, rows)
    breakdown = category_breakdown(corpus)
    assert [row["category"] for row in breakdown] == ["Finance"]
    finance = breakdown[0]
    assert finance["ok_apps"] == 4
    assert finance["keystore"] == {"apps": 3, "share": 0.75}


def test_category_shares_can_exceed_one(tmp_path):
    docs = [report_doc(sha_for(0), matches=[make_match("keystore"),
                                            make_match("drm", offset=9)])]
    rows = [(sha_for(0), "com.a", "Finance", 20_000, "2021-01-01")]
    breakdown = category_breakdown(_corpus(tmp_path, docs, rows))
    finance = breakdown[0]
    total = sum(finance[d]["share"] for d in synth.APIS)
    assert total == pytest.approx(2.0)


def test_crypto_table_hand_computed(tmp_path):
    docs = [
        report_doc(sha_for(0), crypto=("bouncycastle",)),
        report_doc(sha_for(1), crypto=("bouncycastle",)),
        report_doc(sha_for(2), native=("openssl",)),
    ]
    table = crypto_table(_corpus(tmp_path, docs))
    assert table["software"]["bouncycastle"] == 2
    assert table["native"]["openssl"] == 1
    assert table["apps_with_software"] == 2
    assert table["apps_with_native"] == 1
    # default universe rows surface even when unused
    assert table["software"]["apache_tuweni"] == 0


def test_crypto_table_extras_follow_defaults_sorted(tmp_path):
    # Reports are read in sha order, which here is reverse name order, and
    # the last report's library set has no order of its own.
    docs = [report_doc(sha_for(0), crypto=("custom_d",), native=("native_d",)),
            report_doc(sha_for(1), crypto=("custom_c",), native=("native_c",)),
            report_doc(sha_for(2), crypto=("custom_b", "custom_a"),
                       native=("native_b", "native_a"))]
    table = crypto_table(_corpus(tmp_path, docs))
    shipped = load_patterns()
    software = [s.detector_id for s in shipped.crypto_sets]
    # one library may have several file name rows; its first one places it
    native = list(dict.fromkeys(p.library for p in shipped.native_patterns))
    assert software and native
    assert list(table["software"]) == software + [
        "custom_a", "custom_b", "custom_c", "custom_d"]
    assert list(table["native"]) == native + [
        "native_a", "native_b", "native_c", "native_d"]
    assert table["software"]["custom_a"] == 1
    assert table["software"][software[0]] == 0


def test_crypto_table_empty(tmp_path):
    table = crypto_table(_corpus(tmp_path, [report_doc(sha_for(0))]))
    assert table["apps_with_software"] == 0
    assert table["apps_with_native"] == 0


def test_crypto_table_two_files_one_library_count_once(tmp_path):
    doc = report_doc(sha_for(0))
    doc["native_libs"] = [
        {"library": "openssl", "file": "lib/arm64-v8a/libssl.so"},
        {"library": "openssl", "file": "lib/arm64-v8a/libcrypto.so"},
    ]
    table = crypto_table(_corpus(tmp_path, [doc]))
    assert table["native"]["openssl"] == 1
    assert table["apps_with_native"] == 1


def test_category_breakdown_excludes_null_category(tmp_path):
    docs = [report_doc(sha_for(0), matches=[make_match("drm")]),
            report_doc(sha_for(1))]
    rows = [(sha_for(1), "com.known", "Tools", 20_000, "2021-01-01")]
    breakdown = category_breakdown(_corpus(tmp_path, docs, rows))
    assert [row["category"] for row in breakdown] == ["Tools"]


def test_conservation_invariant(tmp_path):
    rng = random.Random(7)
    report_dir = tmp_path / "reports"
    synth.random_corpus(rng, report_dir, tmp_path / "corpus.csv", apps=30)
    corpus = load_corpus(report_dir, tmp_path / "corpus.csv")
    stats = location_split(corpus, PREFIXES)
    assert sum(stats["match_counts"].values()) == stats["total_matches"]
    prevalence = api_prevalence(corpus)
    for d in synth.APIS:
        assert prevalence["per_api"][d]["apps"] <= prevalence["any_api"]["apps"]
    assert prevalence["any_api"]["apps"] <= prevalence["ok_apps"]


def test_write_stats_idempotent(tmp_path):
    rng = random.Random(21)
    report_dir = tmp_path / "reports"
    synth.random_corpus(rng, report_dir, tmp_path / "corpus.csv", apps=15)
    corpus = load_corpus(report_dir, tmp_path / "corpus.csv")
    stats = compute_stats(corpus)
    first = write_stats(stats, tmp_path / "out1")
    second = write_stats(compute_stats(corpus), tmp_path / "out2")
    for a, b in zip(first, second):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()


def test_write_stats_writes_every_file_before_it_renames_any(tmp_path,
                                                              monkeypatch):
    synth.random_corpus(random.Random(21), tmp_path / "reports",
                        tmp_path / "corpus.csv", apps=15)
    stats = compute_stats(load_corpus(tmp_path / "reports"))
    calls, steps = [], []
    real_write, real_open, real_replace = (defaults.write_text, os.open,
                                           os.replace)

    def write_text(texts):
        calls.append(list(texts))
        return real_write(texts)

    def open_(path, *args):
        steps.append(("open", path.name.split(".")[0]))
        return real_open(path, *args)

    def replace(new, path):
        steps.append(("replace", path.name.split(".")[0]))
        return real_replace(new, path)

    monkeypatch.setattr(defaults, "write_text", write_text)
    monkeypatch.setattr(os, "open", open_)
    monkeypatch.setattr(os, "replace", replace)
    written = write_stats(stats, tmp_path / "out")
    assert calls == [written]
    assert len(written) == 10 and written[-1].name == "summary.json"
    names = [p.name.split(".")[0] for p in written]
    assert steps == ([("open", n) for n in names]
                     + [("replace", n) for n in names])
