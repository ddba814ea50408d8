"""The corpus CSV: one row of metadata and source per app.

`analyze` reads it to find the apps, `stats` to join reports with their
category, downloads and last update.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .defaults import read_rows
from .errors import DuplicateSha256Error

REMOTE_SOURCE = "remote"

_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


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
        object.__setattr__(self, "sha256", self.sha256.lower())


def _is_sha256(text: str) -> bool:
    return len(text) == 64 and not text.lower().strip("0123456789abcdef")


def parse_date(text: str) -> date:
    """A YYYY-MM-DD date. `date.fromisoformat` alone would also take
    `20210101` and `2021-W01-1` from Python 3.11 on."""
    if not _DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def parse_downloads(text: str) -> int:
    """A download count of ASCII digits. `int` alone would also take `-5`,
    `1_000` and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def load_corpus_csv(path) -> list[CorpusEntry]:
    """Read corpus metadata rows.

    Columns: sha256,package_name,category,downloads,last_update,path_or_remote.
    A header row is recognized by its literal first cell. Relative paths are
    resolved against the CSV's own directory. Download counts must already be
    ASCII digits (bucketed strings resolved upstream). Equal categories,
    download counts and dates are one object each across the file's rows.
    Once every row parses, a sha256 listed twice raises DuplicateSha256Error.
    """
    path = Path(path)
    entries = []
    shared: dict = {}

    def one(value):
        return shared.setdefault(value, value)

    for _, row in read_rows(path):
        if row[0].lower() == "sha256":
            continue
        if len(row) != 6:
            raise ValueError(f"{path}: expected 6 columns, got {len(row)}")
        sha, package, category, downloads, last_update, source = row
        if source and source != REMOTE_SOURCE and not os.path.isabs(source):
            source = str(path.parent / source)
        entries.append(CorpusEntry(
            sha256=sha,
            expected_package_name=package or None,
            category=one(category) if category else None,
            downloads=one(parse_downloads(downloads)) if downloads else None,
            last_update=one(parse_date(last_update)) if last_update else None,
            source=source))
    listed = set()
    for sha in (entry.sha256 for entry in entries if entry.sha256):
        if sha in listed:
            raise DuplicateSha256Error(f"sha256 {sha} is listed twice")
        listed.add(sha)
    return entries
