"""Corpus-level statistics over a directory of per-app reports.

Reports are joined with corpus metadata on sha256, optionally filtered by
popularity / recency / category, and reduced to the result tables: per-API
prevalence, match-location splits, top library rankings, per-category
shares, and crypto library counts. Machine CSV output keeps full float
precision; rounding to presentation form is left to the caller.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

from . import defaults
from .attribution import (LOCATION_INLIB, LOCATION_INMAIN, LOCATION_OBFUSCATED,
                          load_known_prefixes, normalize_library, parse_package)
from .corpus import load_corpus_csv
from .errors import MalformedReportError
from .matchers import TEE_DETECTORS, load_patterns
from .report import STATUS_OK, CorpusRecord, read_record

LOCATIONS = (LOCATION_INMAIN, LOCATION_INLIB, LOCATION_OBFUSCATED)


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


@dataclass(frozen=True)
class Corpus:
    """A lazy view of a report directory, joined on sha256 with corpus
    metadata rows (category, downloads, last_update) and narrowed by every
    selection. Each iteration reads the reports afresh and holds one record
    at a time, so a view keeps no record."""

    report_dir: str | Path
    metadata: Mapping[str, tuple] = field(default_factory=dict)
    selections: tuple[SelectionFilter, ...] = ()
    unkeyed: int = 0        # metadata rows without a sha256, never joined

    def __iter__(self) -> Iterator[CorpusRecord]:
        return self.scan(dict(self.metadata))

    def scan(self, unjoined: dict) -> Iterator[CorpusRecord]:
        """The kept records, read in code-point name order. Each report's
        metadata row is popped from `unjoined`, a copy of the metadata, so
        the rows left at the end have no report. A repeated sha256 raises
        MalformedReportError, as does a report `read_record` refuses."""
        unlisted = set()            # the sha256s of reports without a row
        prefix = str(Path(self.report_dir) / "_")[:-1]  # as str(dir / name)
        for name in sorted(name for name in os.listdir(self.report_dir)
                           if name.endswith(".json")):
            path = prefix + name
            record = read_record(path)
            row = unjoined.pop(record.sha256, None)
            if row is not None:
                record.category, record.downloads, record.last_update = row
            elif record.sha256 in unlisted or record.sha256 in self.metadata:
                raise MalformedReportError(
                    f"{path}: sha256 {record.sha256} repeats an earlier report")
            else:
                unlisted.add(record.sha256)
            if all(selection.keeps(record) for selection in self.selections):
                yield record


def load_corpus(report_dir, corpus_csv=None) -> Corpus:
    """The view of report_dir's *.json files joined on sha256 with the
    category, downloads and last update of the corpus CSV's rows, equal rows
    one tuple. Reports without metadata keep a null category; metadata rows
    without a report, and rows without a sha256, are only counted. No report
    is read here."""
    entries = load_corpus_csv(corpus_csv) if corpus_csv is not None else ()
    metadata: dict[str, tuple] = {}
    rows: dict[tuple, tuple] = {}
    for entry in (entry for entry in entries if entry.sha256):
        row = (entry.category, entry.downloads, entry.last_update)
        metadata[entry.sha256] = rows.setdefault(row, row)
    return Corpus(report_dir, metadata, unkeyed=len(entries) - len(metadata))


def apply_filter(corpus: Corpus, selection: SelectionFilter) -> Corpus:
    """The view keeping what `corpus` and `selection` both keep."""
    return replace(corpus, selections=corpus.selections + (selection,))


class _Tally:
    """Every table's counts, folded from one pass over a corpus's records.
    Library-located packages are grouped under `known_prefixes`, each
    distinct package once."""

    def __init__(self, known_prefixes):
        self.known_prefixes = known_prefixes
        self.library_of: dict[str, str] = {}
        self.analyzed = self.ok = 0
        self.apps = Counter()      # ok apps per detector and per table row
        self.match_counts = {loc: 0 for loc in LOCATIONS}
        self.apps_with = {loc: 0 for loc in LOCATIONS}
        self.libs_per_app: list[int] = []
        self.top_libs = {d: Counter() for d in TEE_DETECTORS}
        self.categories: dict[str, Counter] = {}   # "ok_apps" and detectors
        self.software, self.native = Counter(), Counter()

    def add(self, record: CorpusRecord) -> None:
        self.analyzed += 1
        if record.status != STATUS_OK:
            return
        self.ok += 1
        detectors = record.detectors
        if record.category is not None:
            cell = self.categories.setdefault(record.category, Counter())
            cell["ok_apps"] += 1
            cell.update(detectors)
        self.software.update(record.crypto_libs)
        self.native.update(record.native_libs)
        self.apps["software"] += bool(record.crypto_libs)
        self.apps["native"] += bool(record.native_libs)
        if not detectors:
            return
        self.apps.update(detectors)
        self.apps["any_api"] += 1
        self.apps["all_four"] += len(detectors) == len(TEE_DETECTORS)
        self.apps["all_excl_protected_confirmation"] += _NON_PC <= detectors
        counts = record.location_counts
        for loc in LOCATIONS:
            if loc in counts:
                self.match_counts[loc] += counts[loc]
                self.apps_with[loc] += 1
        self.apps["exclusively_inmain"] += counts.keys() == {LOCATION_INMAIN}
        libraries = set()
        for detector, packages in record.inlib_packages.items():
            found = set(map(self._library, packages))
            self.top_libs[detector].update(found)
            libraries |= found
        if libraries:
            self.libs_per_app.append(len(libraries))

    def _library(self, package: str) -> str:
        library = self.library_of.get(package)
        if library is None:
            library = self.library_of[package] = normalize_library(
                parse_package(package), self.known_prefixes)
        return library


_NON_PC = frozenset(d for d in TEE_DETECTORS if d != "protected_confirmation")


def _share(count: int, total: int) -> float:
    return count / total if total else 0.0


def _cell(count: int, total: int) -> dict:
    return {"apps": count, "share": _share(count, total)}


def _universe_first(counts: Counter, universe) -> dict:
    """Universe libraries in their order, then the others sorted by name."""
    extras = sorted(counts.keys() - set(universe))
    return {lib: counts[lib] for lib in [*universe, *extras]}


def compute_stats(corpus: Corpus, top_n: int = 10,
                  known_prefixes=None) -> dict:
    """All result tables from one pass over `corpus`, as the mapping that
    `summary.json` holds; known prefixes default to the shipped file. The
    table functions below document each section."""
    if top_n < 1:
        raise ValueError("n must be at least 1")
    if known_prefixes is None:
        known_prefixes = load_known_prefixes(
            defaults.default_known_prefixes_path())
    t = _Tally(known_prefixes)
    unjoined = dict(corpus.metadata)
    for record in corpus.scan(unjoined):
        t.add(record)
    ok, matched = t.ok, t.apps["any_api"]
    total_matches = sum(t.match_counts.values())
    libs = t.libs_per_app
    patterns = load_patterns()
    return {
        "totals": {"analyzed": t.analyzed, "ok": ok,
                   "failed": t.analyzed - ok,
                   "unmatched_metadata": len(unjoined) + corpus.unkeyed},
        "prevalence": {
            "ok_apps": ok,
            "per_api": {d: _cell(t.apps[d], ok) for d in TEE_DETECTORS},
            "any_api": _cell(matched, ok),
            "no_api": _cell(ok - matched, ok),
            "all_four": _cell(t.apps["all_four"], ok),
            "all_excl_protected_confirmation": _cell(
                t.apps["all_excl_protected_confirmation"], ok),
        },
        "locations": {
            "ok_apps": ok,
            "matched_apps": matched,
            "match_counts": t.match_counts,
            "total_matches": total_matches,
            "inlib_match_share": _share(t.match_counts["inlib"],
                                        total_matches),
            "apps_with_inlib_share": _share(t.apps_with["inlib"], matched),
            "apps_with_inmain_share": _share(t.apps_with["inmain"], matched),
            "apps_with_obfuscated_share": _share(t.apps_with["obfuscated"],
                                                 matched),
            "apps_exclusively_inmain_share": _share(
                t.apps["exclusively_inmain"], matched),
            "libraries_per_app_mean": statistics.fmean(libs) if libs else 0.0,
            "libraries_per_app_median": (float(statistics.median(libs))
                                         if libs else 0.0),
        },
        "top_libraries": {
            d: {"rows": sorted(apps_per_library.items(),
                               key=lambda pair: (-pair[1], pair[0]))[:top_n],
                "unique_libraries": len(apps_per_library)}
            for d, apps_per_library in t.top_libs.items()},
        "categories": [
            {"category": category, "ok_apps": cell["ok_apps"],
             **{d: _cell(cell[d], cell["ok_apps"]) for d in TEE_DETECTORS}}
            for category, cell in sorted(t.categories.items())],
        "crypto": {
            "software": _universe_first(
                t.software, [s.detector_id for s in patterns.crypto_sets]),
            "native": _universe_first(
                t.native, [p.library for p in patterns.native_patterns]),
            "apps_with_software": t.apps["software"],
            "apps_with_native": t.apps["native"],
            "ok_apps": ok,
        },
    }


def api_prevalence(corpus: Corpus) -> dict:
    """Per-detector app counts and shares over successfully analyzed apps.

    An app counts once per detector no matter how many matches it has.
    Intersections mirror the result table: all four detectors, and all
    detectors except the rarely present confirmation dialog one.
    """
    return compute_stats(corpus)["prevalence"]


def location_split(corpus: Corpus, known_prefixes) -> dict:
    """Where matches live: per-match location shares plus per-app views.

    App-level shares are relative to apps that have at least one detector
    match. The libraries-per-app distribution counts distinct normalized
    libraries among apps that have at least one library-located match.
    """
    return compute_stats(corpus, known_prefixes=known_prefixes)["locations"]


def top_libraries(corpus: Corpus, detector: str, n: int,
                  known_prefixes) -> dict:
    """Rank libraries by how many apps embed a matching call for `detector`.

    Only library-located matches count; ties break lexicographically.
    """
    return compute_stats(corpus, n, known_prefixes)["top_libraries"][detector]


def category_breakdown(corpus: Corpus) -> list[dict]:
    """Per-category detector shares among that category's analyzed apps.

    Apps without metadata (null category) are excluded. An app carrying
    several detectors contributes to each of their shares, so a category's
    shares may sum past 1.
    """
    return compute_stats(corpus)["categories"]


def crypto_table(corpus: Corpus) -> dict:
    """Distinct-app counts per crypto library, software and native.

    Libraries of the shipped pattern files appear even with zero apps;
    anything else observed in the reports is appended in sorted order.
    """
    return compute_stats(corpus)["crypto"]


def _csv_text(header: list[str], rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def write_stats(stats: dict, out_dir) -> list[Path]:
    """Render `compute_stats`'s mapping as the nine CSV tables plus the
    mapping itself as `summary.json`, written as one set."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {}

    prevalence = stats["prevalence"]
    prevalence_rows = []
    for d in TEE_DETECTORS:
        cell = prevalence["per_api"][d]
        prevalence_rows.append([d, cell["apps"], cell["share"]])
    for metric in ("any_api", "no_api", "all_four",
                   "all_excl_protected_confirmation"):
        cell = prevalence[metric]
        prevalence_rows.append([metric, cell["apps"], cell["share"]])
    texts[out_dir / "prevalence.csv"] = _csv_text(["metric", "apps", "share"],
                                                  prevalence_rows)

    loc = stats["locations"]
    location_rows = [["matched_apps", loc["matched_apps"]],
                     ["matches_total", loc["total_matches"]]]
    location_rows += [[f"matches_{where}", loc["match_counts"][where]]
                      for where in LOCATIONS]
    location_rows += [[key, loc[key]] for key in (
        "inlib_match_share", "apps_with_inlib_share", "apps_with_inmain_share",
        "apps_with_obfuscated_share", "apps_exclusively_inmain_share",
        "libraries_per_app_mean", "libraries_per_app_median")]
    texts[out_dir / "locations.csv"] = _csv_text(["metric", "value"],
                                                 location_rows)

    for detector, table in stats["top_libraries"].items():
        texts[out_dir / f"top_libs_{detector}.csv"] = _csv_text(
            ["library", "apps"], table["rows"])

    wide_rows = []
    long_rows = []
    for row in stats["categories"]:
        wide_rows.append([row["category"], row["ok_apps"]]
                         + [row[d]["share"] for d in TEE_DETECTORS])
        for d in TEE_DETECTORS:
            long_rows.append([row["category"], d, row[d]["apps"],
                              row[d]["share"]])
    texts[out_dir / "categories.csv"] = _csv_text(
        ["category", "ok_apps"] + [f"{d}_share" for d in TEE_DETECTORS],
        wide_rows)
    texts[out_dir / "categories_long.csv"] = _csv_text(
        ["category", "detector", "apps", "share"], long_rows)

    crypto = stats["crypto"]
    crypto_rows = [["software", lib, count]
                   for lib, count in crypto["software"].items()]
    crypto_rows += [["native", lib, count]
                    for lib, count in crypto["native"].items()]
    crypto_rows.append(["software", "(any)", crypto["apps_with_software"]])
    crypto_rows.append(["native", "(any)", crypto["apps_with_native"]])
    texts[out_dir / "crypto.csv"] = _csv_text(["kind", "library", "apps"],
                                              crypto_rows)

    texts[out_dir / "summary.json"] = json.dumps(stats, indent=2,
                                                 sort_keys=True) + "\n"
    return defaults.write_text(texts)
