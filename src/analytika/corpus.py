"""The corpus CSV: one row of metadata and source per app.

`analyze` reads it to find the apps, `stats` to join reports with their
category, downloads and last update.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from datetime import date
from pathlib import Path

REMOTE_SOURCE = "remote"


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    sha256: str
    expected_package_name: str | None = None
    category: str | None = None
    downloads: int | None = None
    last_update: date | None = None
    source: str = ""            # filesystem path, or "remote"

    def __post_init__(self):
        if self.sha256 and not _is_sha256(self.sha256):
            raise ValueError(f"not a sha256 hex digest: {self.sha256!r}")


def _is_sha256(text: str) -> bool:
    return len(text) == 64 and not text.lower().strip("0123456789abcdef")


def load_corpus_csv(path) -> list[CorpusEntry]:
    """Read corpus metadata rows.

    Columns: sha256,package_name,category,downloads,last_update,path_or_remote.
    A header row is recognized by its literal first cell. Relative paths are
    resolved against the CSV's own directory. Download counts must already be
    plain integers (bucketed strings resolved upstream). Equal categories,
    download counts and dates are one object each across the file's rows.
    """
    path = Path(path)
    entries = []
    shared: dict = {}

    def one(value):
        return shared.setdefault(value, value)

    with open(path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.reader(handle):
            first = row[0].strip().lower() if row else ""
            if not row or first.startswith("#") or first == "sha256":
                continue
            if len(row) != 6:
                raise ValueError(f"{path}: expected 6 columns, got {len(row)}")
            sha, package, category, downloads, last_update, source = \
                (cell.strip() for cell in row)
            if source and source != REMOTE_SOURCE and not os.path.isabs(source):
                source = str(path.parent / source)
            entries.append(CorpusEntry(
                sha256=sha.lower(),
                expected_package_name=package or None,
                category=one(category) if category else None,
                downloads=one(int(downloads)) if downloads else None,
                last_update=(one(date.fromisoformat(last_update))
                             if last_update else None),
                source=source))
    return entries
