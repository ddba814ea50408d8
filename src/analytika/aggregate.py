"""Corpus-level statistics over a directory of per-app reports.

Reports are joined with corpus metadata on sha256, optionally filtered by
popularity / recency / category, and reduced to the result tables: per-API
prevalence, match-location splits, top library rankings, per-category
shares, and crypto library counts. Machine CSV output keeps full float
precision; rounding to presentation form is left to the caller.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from . import defaults
from .attribution import (LOCATION_INLIB, LOCATION_INMAIN, LOCATION_OBFUSCATED,
                          load_known_prefixes, normalize_library, parse_package)
from .corpus import load_corpus_csv
from .errors import DuplicateSha256Error, MalformedReportError
from .matchers import TEE_DETECTORS, load_patterns
from .report import STATUS_OK, CorpusRecord, SharedValues, read_record

LOCATIONS = (LOCATION_INMAIN, LOCATION_INLIB, LOCATION_OBFUSCATED)


@dataclass
class Corpus:
    records: list[CorpusRecord]
    unmatched_metadata: int = 0

    def ok_records(self) -> list[CorpusRecord]:
        return [r for r in self.records if r.status == STATUS_OK]


@dataclass(frozen=True)
class SelectionFilter:
    min_downloads: int = 10_000
    min_last_update: date = date(2020, 1, 1)
    excluded_categories: frozenset[str] = field(
        default_factory=defaults.load_game_categories)

    def __post_init__(self):
        if self.min_downloads < 0:
            raise ValueError("min_downloads must be non-negative")

    def keeps(self, record: CorpusRecord) -> bool:
        return ((record.downloads or 0) >= self.min_downloads
                and (record.last_update or date.min) >= self.min_last_update
                and record.category not in self.excluded_categories)


def load_corpus(report_dir, corpus_csv=None) -> Corpus:
    """Join report files with the rows of a corpus CSV (see join_reports)."""
    entries = load_corpus_csv(corpus_csv) if corpus_csv is not None else ()
    return join_reports(report_dir, entries)


def join_reports(report_dir, entries) -> Corpus:
    """Join report_dir's *.json files with corpus metadata on sha256.

    Reports are read in name order, each reduced to a CorpusRecord as it is
    read, so memory grows with apps, not matches. Equal record values are
    one shared object (see SharedValues), and a joined record takes its
    sha256 and metadata objects from the entry. Reports without metadata
    keep a null category; metadata rows without a report are only counted.
    A repeated entry sha256 raises DuplicateSha256Error before any read.
    """
    meta_by_sha: dict[str, object] = {}
    for entry in entries:
        if entry.sha256 in meta_by_sha:
            raise DuplicateSha256Error(f"sha256 {entry.sha256} is listed twice")
        meta_by_sha[entry.sha256] = entry

    table = SharedValues()
    records = []
    seen = set()
    prefix = str(Path(report_dir) / "_")[:-1]  # as str(Path(report_dir) / name)
    for name in sorted(name for name in os.listdir(report_dir)
                       if name.endswith(".json")):
        path = prefix + name
        record = table.share(read_record(path))
        if record.sha256 in seen:
            raise MalformedReportError(
                f"{path}: sha256 {record.sha256} repeats an earlier report")
        entry = meta_by_sha.get(record.sha256)
        if entry is not None:
            (record.sha256, record.category, record.downloads,
             record.last_update) = (entry.sha256, entry.category,
                                    entry.downloads, entry.last_update)
        seen.add(record.sha256)
        records.append(record)

    return Corpus(records, unmatched_metadata=len(meta_by_sha.keys() - seen))


def apply_filter(corpus: Corpus, selection: SelectionFilter) -> Corpus:
    return Corpus(records=[r for r in corpus.records if selection.keeps(r)],
                  unmatched_metadata=corpus.unmatched_metadata)


def _share(count: int, total: int) -> float:
    return count / total if total else 0.0


def _libraries(packages, known_prefixes) -> set[str]:
    return {normalize_library(parse_package(p), known_prefixes)
            for p in packages}


def api_prevalence(corpus: Corpus) -> dict:
    """Per-detector app counts and shares over successfully analyzed apps.

    An app counts once per detector no matter how many matches it has.
    Intersections mirror the result table: all four detectors, and all
    detectors except the rarely present confirmation dialog one.
    """
    ok = corpus.ok_records()
    counts = {d: sum(1 for r in ok if d in r.detectors) for d in TEE_DETECTORS}
    any_count = sum(1 for r in ok if r.detectors)
    all_four = sum(1 for r in ok if len(r.detectors) == len(TEE_DETECTORS))
    non_pc = {d for d in TEE_DETECTORS if d != "protected_confirmation"}
    all_excl_pc = sum(1 for r in ok if non_pc <= r.detectors)

    return {
        "ok_apps": len(ok),
        "per_api": {d: {"apps": counts[d], "share": _share(counts[d], len(ok))}
                    for d in TEE_DETECTORS},
        "any_api": {"apps": any_count, "share": _share(any_count, len(ok))},
        "no_api": {"apps": len(ok) - any_count,
                   "share": _share(len(ok) - any_count, len(ok))},
        "all_four": {"apps": all_four, "share": _share(all_four, len(ok))},
        "all_excl_protected_confirmation": {
            "apps": all_excl_pc, "share": _share(all_excl_pc, len(ok))},
    }


def location_split(corpus: Corpus, known_prefixes) -> dict:
    """Where matches live: per-match location shares plus per-app views.

    App-level shares are relative to apps that have at least one detector
    match. The libraries-per-app distribution counts distinct normalized
    libraries among apps that have at least one library-located match.
    """
    ok = corpus.ok_records()

    match_counts = {loc: 0 for loc in LOCATIONS}
    matched_apps = 0
    apps_with = {loc: 0 for loc in LOCATIONS}
    exclusively_inmain = 0
    libs_per_app = []
    for record in ok:
        if not record.detectors:
            continue
        matched_apps += 1
        counts = record.location_counts
        for loc in LOCATIONS:
            if loc in counts:
                match_counts[loc] += counts[loc]
                apps_with[loc] += 1
        if counts.keys() == {LOCATION_INMAIN}:
            exclusively_inmain += 1
        inlib_libs = _libraries(set().union(*record.inlib_packages.values()),
                                known_prefixes)
        if inlib_libs:
            libs_per_app.append(len(inlib_libs))

    total_matches = sum(match_counts.values())
    return {
        "ok_apps": len(ok),
        "matched_apps": matched_apps,
        "match_counts": match_counts,
        "total_matches": total_matches,
        "inlib_match_share": _share(match_counts["inlib"], total_matches),
        "apps_with_inlib_share": _share(apps_with["inlib"], matched_apps),
        "apps_with_inmain_share": _share(apps_with["inmain"], matched_apps),
        "apps_with_obfuscated_share": _share(apps_with["obfuscated"],
                                             matched_apps),
        "apps_exclusively_inmain_share": _share(exclusively_inmain,
                                                matched_apps),
        "libraries_per_app_mean": (statistics.fmean(libs_per_app)
                                   if libs_per_app else 0.0),
        "libraries_per_app_median": (float(statistics.median(libs_per_app))
                                     if libs_per_app else 0.0),
    }


def top_libraries(corpus: Corpus, detector: str, n: int,
                  known_prefixes) -> dict:
    """Rank libraries by how many apps embed a matching call for `detector`.

    Only library-located matches count; ties break lexicographically.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    apps_per_library = Counter(
        library for record in corpus.ok_records()
        for library in _libraries(record.inlib_packages.get(detector, ()),
                                  known_prefixes))
    ranked = sorted(apps_per_library.items(),
                    key=lambda pair: (-pair[1], pair[0]))
    return {"detector": detector,
            "rows": ranked[:n],
            "unique_libraries": len(apps_per_library)}


def category_breakdown(corpus: Corpus) -> list[dict]:
    """Per-category detector shares among that category's analyzed apps.

    Apps without metadata (null category) are excluded. An app carrying
    several detectors contributes to each of their shares, so a category's
    shares may sum past 1.
    """
    by_category: dict[str, list[CorpusRecord]] = {}
    for record in corpus.ok_records():
        if record.category is not None:
            by_category.setdefault(record.category, []).append(record)

    rows = []
    for category in sorted(by_category):
        records = by_category[category]
        row = {"category": category, "ok_apps": len(records)}
        for d in TEE_DETECTORS:
            apps = sum(1 for r in records if d in r.detectors)
            row[d] = {"apps": apps, "share": _share(apps, len(records))}
        rows.append(row)
    return rows


def crypto_table(corpus: Corpus, software_libs=None, native_libs=None) -> dict:
    """Distinct-app counts per crypto library, software and native.

    Libraries from the default pattern universe appear even with zero apps;
    anything else observed in the reports is appended in sorted order. An
    explicitly empty list means no default rows for that kind.
    """
    if software_libs is None or native_libs is None:
        patterns = load_patterns()
        if software_libs is None:
            software_libs = [s.detector_id for s in patterns.crypto_sets]
        if native_libs is None:
            native_libs = [p.library for p in patterns.native_patterns]
    ok = corpus.ok_records()

    software = Counter(lib for r in ok for lib in r.crypto_libs)
    native = Counter(lib for r in ok for lib in r.native_libs)
    return {
        "software": _universe_first(software, software_libs),
        "native": _universe_first(native, native_libs),
        "apps_with_software": sum(1 for r in ok if r.crypto_libs),
        "apps_with_native": sum(1 for r in ok if r.native_libs),
        "ok_apps": len(ok),
    }


def _universe_first(counts: Counter, universe) -> dict:
    """Universe libraries in their order, then the others sorted by name."""
    extras = sorted(counts.keys() - set(universe))
    return {lib: counts[lib] for lib in [*universe, *extras]}


@dataclass
class CorpusStats:
    totals: dict
    prevalence: dict
    locations: dict
    top_libs: dict
    categories: list
    crypto: dict


def compute_stats(corpus: Corpus, top_n: int = 10,
                  known_prefixes=None) -> CorpusStats:
    """All result tables; known prefixes default to the shipped file."""
    if known_prefixes is None:
        known_prefixes = load_known_prefixes(
            defaults.default_known_prefixes_path())
    records = corpus.records
    totals = {
        "analyzed": len(records),
        "ok": sum(1 for r in records if r.status == STATUS_OK),
        "failed": sum(1 for r in records if r.status != STATUS_OK),
        "unmatched_metadata": corpus.unmatched_metadata,
    }
    return CorpusStats(
        totals=totals,
        prevalence=api_prevalence(corpus),
        locations=location_split(corpus, known_prefixes),
        top_libs={d: top_libraries(corpus, d, top_n, known_prefixes)
                  for d in TEE_DETECTORS},
        categories=category_breakdown(corpus),
        crypto=crypto_table(corpus))


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_stats(stats: CorpusStats, out_dir) -> list[Path]:
    """Emit the result tables as CSV plus one machine-readable summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    prevalence_rows = []
    for d in TEE_DETECTORS:
        cell = stats.prevalence["per_api"][d]
        prevalence_rows.append([d, cell["apps"], cell["share"]])
    for metric in ("any_api", "no_api", "all_four",
                   "all_excl_protected_confirmation"):
        cell = stats.prevalence[metric]
        prevalence_rows.append([metric, cell["apps"], cell["share"]])
    written.append(_write_csv(out_dir / "prevalence.csv",
                              ["metric", "apps", "share"], prevalence_rows))

    loc = stats.locations
    location_rows = [["matched_apps", loc["matched_apps"]],
                     ["matches_total", loc["total_matches"]]]
    location_rows += [[f"matches_{where}", loc["match_counts"][where]]
                      for where in LOCATIONS]
    location_rows += [[key, loc[key]] for key in (
        "inlib_match_share", "apps_with_inlib_share", "apps_with_inmain_share",
        "apps_with_obfuscated_share", "apps_exclusively_inmain_share",
        "libraries_per_app_mean", "libraries_per_app_median")]
    written.append(_write_csv(out_dir / "locations.csv", ["metric", "value"],
                              location_rows))

    for detector, table in stats.top_libs.items():
        written.append(_write_csv(out_dir / f"top_libs_{detector}.csv",
                                  ["library", "apps"], table["rows"]))

    wide_rows = []
    long_rows = []
    for row in stats.categories:
        wide_rows.append([row["category"], row["ok_apps"]]
                         + [row[d]["share"] for d in TEE_DETECTORS])
        for d in TEE_DETECTORS:
            long_rows.append([row["category"], d, row[d]["apps"],
                              row[d]["share"]])
    written.append(_write_csv(
        out_dir / "categories.csv",
        ["category", "ok_apps"] + [f"{d}_share" for d in TEE_DETECTORS],
        wide_rows))
    written.append(_write_csv(out_dir / "categories_long.csv",
                              ["category", "detector", "apps", "share"],
                              long_rows))

    crypto_rows = [["software", lib, count]
                   for lib, count in stats.crypto["software"].items()]
    crypto_rows += [["native", lib, count]
                    for lib, count in stats.crypto["native"].items()]
    crypto_rows.append(["software", "(any)", stats.crypto["apps_with_software"]])
    crypto_rows.append(["native", "(any)", stats.crypto["apps_with_native"]])
    written.append(_write_csv(out_dir / "crypto.csv",
                              ["kind", "library", "apps"], crypto_rows))

    summary = {
        "totals": stats.totals,
        "prevalence": stats.prevalence,
        "locations": stats.locations,
        "top_libraries": {d: {"rows": [list(r) for r in t["rows"]],
                              "unique_libraries": t["unique_libraries"]}
                          for d, t in stats.top_libs.items()},
        "categories": stats.categories,
        "crypto": stats.crypto,
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(path)
    return written
