"""Brute-force recomputation of every `stats` table from raw files.

Reads report JSON and the corpus CSV with the standard library only and
recounts each table literally, per the README's definitions; nothing is
imported from the package under test. The package's data files (game
categories, known library prefixes, pattern universe) are read as data.
`compare_tables` checks a `stats --out` directory against the result, one
verdict per output file.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date
from pathlib import Path

APIS = ("keystore", "drm", "biometrics", "protected_confirmation")
LOCATIONS = ("inmain", "inlib", "obfuscated")
MIN_DOWNLOADS = 10_000
MIN_DATE = date(2020, 1, 1)
TOP_N = 10


def _data_lines(path: Path) -> list:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def program_data(src: Path) -> dict:
    """Game categories, known prefixes and the crypto library universe."""
    data = src / "analytika" / "data"
    software, native = [], []
    for line in _data_lines(data / "patterns" / "bytecode_patterns.csv"):
        cells = [c.strip() for c in line.split(",")]
        if cells[1] == "crypto_software" and cells[0] not in software:
            software.append(cells[0])
    for line in _data_lines(data / "patterns" / "native_patterns.csv"):
        lib = line.split(",")[0].strip()
        if lib not in native:
            native.append(lib)
    return {"games": set(_data_lines(data / "game_categories.txt")),
            "prefixes": [p.split(".") for p in
                         _data_lines(data / "known_prefixes.txt")],
            "software": software, "native": native}


def read_corpus(report_dir: Path, corpus_csv: Path) -> tuple:
    meta = {}
    with open(corpus_csv, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row or row[0].lstrip().startswith("#") \
                    or row[0].strip().lower() == "sha256":
                continue
            downloads, updated = row[3].strip(), row[4].strip()
            meta[row[0].strip().lower()] = (
                row[2].strip() or None,
                int(downloads) if downloads else None,
                date.fromisoformat(updated) if updated else None)
    apps = []
    for path in sorted(report_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        sha = doc["meta"]["sha256"]
        category, downloads, updated = meta.get(sha, (None, None, None))
        apps.append({"sha": sha, "status": doc["meta"]["status"],
                     "matches": doc["matches"],
                     "crypto_libs": doc["crypto_libs"],
                     "native_libs": doc["native_libs"],
                     "category": category, "downloads": downloads,
                     "updated": updated})
    shas = {a["sha"] for a in apps}
    unmatched = len([s for s in meta if s not in shas])
    return apps, unmatched


def _normalize(package: str, prefixes) -> str:
    segs = package.split(".") if package else []
    best = None
    for p in prefixes:
        if len(segs) >= len(p) and segs[:len(p)] == p:
            if best is None or len(p) > len(best):
                best = p
    return ".".join(best if best is not None else segs[:4])


def _share(n, total):
    return n / total if total else 0.0


def expected_tables(report_dir: Path, corpus_csv: Path, data: dict) -> dict:
    """Every output table, as lists of rows, after the default filter."""
    apps, unmatched = read_corpus(report_dir, corpus_csv)
    kept = [a for a in apps
            if (a["downloads"] or 0) >= MIN_DOWNLOADS
            and (a["updated"] or date.min) >= MIN_DATE
            and a["category"] not in data["games"]]
    ok = [a for a in kept if a["status"] == "ok"]
    api = {a["sha"]: [m for m in a["matches"] if m["detector"] in APIS]
           for a in ok}
    dets = {sha: {m["detector"] for m in ms} for sha, ms in api.items()}
    n = len(ok)

    prevalence = []
    for d in APIS:
        c = len([s for s in dets.values() if d in s])
        prevalence.append([d, c, _share(c, n)])
    any_n = len([s for s in dets.values() if s])
    prevalence.append(["any_api", any_n, _share(any_n, n)])
    prevalence.append(["no_api", n - any_n, _share(n - any_n, n)])
    c = len([s for s in dets.values() if len(s) == 4])
    prevalence.append(["all_four", c, _share(c, n)])
    c = len([s for s in dets.values()
             if {"keystore", "drm", "biometrics"} <= s])
    prevalence.append(["all_excl_protected_confirmation", c, _share(c, n)])

    matched = [sha for sha, ms in api.items() if ms]
    counts = {loc: 0 for loc in LOCATIONS}
    for sha in matched:
        for m in api[sha]:
            counts[m["location"]] += 1
    total = sum(counts.values())
    with_loc = {loc: len([s for s in matched
                          if any(m["location"] == loc for m in api[s])])
                for loc in LOCATIONS}
    exclusive = len([s for s in matched
                     if all(m["location"] == "inmain" for m in api[s])])
    libs_per_app = sorted(
        k for k in (len({_normalize(m["package"], data["prefixes"])
                         for m in api[s] if m["location"] == "inlib"})
                    for s in matched) if k)
    if libs_per_app:
        mean = sum(libs_per_app) / len(libs_per_app)
        mid = len(libs_per_app) // 2
        median = float(libs_per_app[mid]) if len(libs_per_app) % 2 else \
            (libs_per_app[mid - 1] + libs_per_app[mid]) / 2
    else:
        mean = median = 0.0
    m = len(matched)
    locations = [
        ["matched_apps", m], ["matches_total", total],
        ["matches_inmain", counts["inmain"]],
        ["matches_inlib", counts["inlib"]],
        ["matches_obfuscated", counts["obfuscated"]],
        ["inlib_match_share", _share(counts["inlib"], total)],
        ["apps_with_inlib_share", _share(with_loc["inlib"], m)],
        ["apps_with_inmain_share", _share(with_loc["inmain"], m)],
        ["apps_with_obfuscated_share", _share(with_loc["obfuscated"], m)],
        ["apps_exclusively_inmain_share", _share(exclusive, m)],
        ["libraries_per_app_mean", mean],
        ["libraries_per_app_median", median],
    ]

    tables = {"prevalence.csv": prevalence, "locations.csv": locations}
    unique_libs = {}
    for d in APIS:
        by_lib = {}
        for sha, ms in api.items():
            for mt in ms:
                if mt["detector"] == d and mt["location"] == "inlib":
                    lib = _normalize(mt["package"], data["prefixes"])
                    by_lib.setdefault(lib, set()).add(sha)
        ranked = sorted(([lib, len(s)] for lib, s in by_lib.items()),
                        key=lambda r: (-r[1], r[0]))
        tables[f"top_libs_{d}.csv"] = ranked[:TOP_N]
        unique_libs[d] = len(by_lib)

    wide, long_ = [], []
    for cat in sorted({a["category"] for a in ok if a["category"] is not None}):
        members = [a for a in ok if a["category"] == cat]
        row = [cat, len(members)]
        for d in APIS:
            c = len([a for a in members if d in dets[a["sha"]]])
            row.append(_share(c, len(members)))
            long_.append([cat, d, c, _share(c, len(members))])
        wide.append(row)
    tables["categories.csv"] = wide
    tables["categories_long.csv"] = long_

    software = {lib: 0 for lib in data["software"]}
    native = {lib: 0 for lib in data["native"]}
    any_sw = any_native = 0
    for a in ok:
        libs = set(a["crypto_libs"])
        any_sw += bool(libs)
        for lib in libs:
            software[lib] = software.get(lib, 0) + 1
        nlibs = {h["library"] for h in a["native_libs"]}
        any_native += bool(nlibs)
        for lib in nlibs:
            native[lib] = native.get(lib, 0) + 1
    tables["crypto.csv"] = (
        [["software", lib, c] for lib, c in software.items()]
        + [["native", lib, c] for lib, c in native.items()]
        + [["software", "(any)", any_sw], ["native", "(any)", any_native]])
    tables["summary.json"] = {
        "totals": {"analyzed": len(kept), "ok": n, "failed": len(kept) - n,
                   "unmatched_metadata": unmatched},
        "unique_libraries": unique_libs,
        "any_api": any_n, "matches_total": total,
    }
    return tables


def _same_cell(got: str, want) -> bool:
    if isinstance(want, float):
        try:
            return math.isclose(float(got), want, rel_tol=1e-12, abs_tol=1e-15)
        except ValueError:
            return False
    return got == str(want)


def _same_rows(path: Path, want_rows) -> bool:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return len(rows) == len(want_rows) and all(
        len(r) == len(w) and all(_same_cell(g, x) for g, x in zip(r, w))
        for r, w in zip(rows, want_rows))


def _same_summary(path: Path, want: dict) -> bool:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return (doc["totals"] == want["totals"]
            and {d: t["unique_libraries"]
                 for d, t in doc["top_libraries"].items()}
            == want["unique_libraries"]
            and doc["prevalence"]["any_api"]["apps"] == want["any_api"]
            and doc["locations"]["total_matches"] == want["matches_total"])


def compare_tables(out_dir: Path, tables: dict) -> dict:
    """{file name: True when the written table equals the recomputation}."""
    verdicts = {}
    for name, want in tables.items():
        path = out_dir / name
        try:
            verdicts[name] = (_same_summary(path, want)
                              if name == "summary.json"
                              else _same_rows(path, want))
        except (OSError, ValueError, KeyError, TypeError):
            verdicts[name] = False
    return verdicts
