"""Per-app report documents and their on-disk JSON format.

One report file per app, named <sha256>.json. Everything except the
"timing" section is deterministic for a given input, so two runs can be
compared byte-for-byte after dropping that one key. The field names below,
and a match's (`MatchRecord`'s), are a stable contract for downstream
tooling; `read_record` reads them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .attribution import LOCATION_INLIB
from .defaults import write_text
from .errors import MalformedReportError
from .matchers import MatchRecord, TEE_DETECTORS

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
_STATUSES = (STATUS_OK, STATUS_TIMEOUT, STATUS_ERROR)
# The one report format `read_record` accepts. A report without meta.format
# is format 1, and `to_document` writes format 1 without the key.
REPORT_FORMAT = 1


@dataclass
class AppReport:
    sha256: str
    package_name: str = ""
    expected_package_name: str | None = None
    status: str = STATUS_OK
    message: str = ""
    package_name_check: str = "unchecked"   # match | prefix | mismatch | unchecked
    permissions: tuple[str, ...] = ()
    min_sdk: int | None = None
    matches: list[MatchRecord] = field(default_factory=list)
    native_lib_hits: list[tuple[str, str]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_document(self) -> dict:
        detectors = {m.detector for m in self.matches}
        return {
            "meta": {
                "package": self.package_name,
                "expected_package": self.expected_package_name,
                "sha256": self.sha256,
                "status": self.status,
                "message": self.message,
                "package_name_check": self.package_name_check,
                "permissions": list(self.permissions),
                "min_sdk": self.min_sdk,
                "api_summary": {d: d in detectors for d in TEE_DETECTORS},
            },
            "matches": [m._asdict() for m in self.matches],
            "native_libs": [{"library": lib, "file": name}
                            for lib, name in self.native_lib_hits],
            "crypto_libs": sorted(detectors.difference(TEE_DETECTORS)),
            "timing": {
                "total_s": self.timings.get("total", 0.0),
                "stages": {k: v for k, v in self.timings.items()
                           if k != "total"},
            },
        }


def deterministic_document(doc: dict) -> dict:
    """The report minus its timing section, for byte-stable comparison."""
    return {k: v for k, v in doc.items() if k != "timing"}


def report_path(out_dir, sha256: str) -> Path:
    return Path(out_dir) / f"{sha256}.json"


def write_report(report: AppReport, out_dir) -> Path:
    """Write the report, whole or not at all, into the existing `out_dir`."""
    return write_text({report_path(out_dir, report.sha256): json.dumps(
        report.to_document(), indent=2, sort_keys=True) + "\n"})[0]


def read_report_document(path) -> dict:
    with open(path, "rb", buffering=0) as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:            # line ends as text mode reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc


@dataclass(slots=True)
class CorpusRecord:
    """One report reduced to the per-app facts the tables read: match facts
    for ok reports only, packages raw (known prefixes are a table argument),
    and the corpus metadata as the stats join fills it in."""

    sha256: str
    status: str
    detectors: frozenset[str] = frozenset()     # TEE detectors hit
    location_counts: dict[str, int] = field(default_factory=dict)
    inlib_packages: dict[str, frozenset[str]] = field(default_factory=dict)
    crypto_libs: frozenset[str] = frozenset()
    native_libs: frozenset[str] = frozenset()
    category: str | None = None
    downloads: int | None = None
    last_update: date | None = None


def _malformed(path, field: str, expected: str) -> MalformedReportError:
    return MalformedReportError(f"{path}: field {field} is not {expected}")


def _list(path, doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise _malformed(path, key, "a list")
    return value


def read_record(path: str | Path) -> CorpusRecord:
    """The checked record of the report file at `path`, a str or Path. A
    missing meta or status reads as an error record and a missing list as
    empty; an unreadable file, another report format or a bad kept field
    raises MalformedReportError.
    """
    try:
        doc = read_report_document(path)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MalformedReportError(f"{path}: {reason}") from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise _malformed(path, "meta", "an object")
    found = meta.get("format", REPORT_FORMAT)
    if type(found) is not int or found != REPORT_FORMAT:
        raise MalformedReportError(
            f"{path}: report format {json.dumps(found)} is not format "
            f"{REPORT_FORMAT}, the one this version reads")
    sha = meta["sha256"] if "sha256" in meta else Path(path).stem
    if not isinstance(sha, str):
        raise _malformed(path, "meta.sha256", "a string")
    status = meta.get("status", STATUS_ERROR)
    if status not in _STATUSES:
        raise _malformed(path, "meta.status", "one of " + ", ".join(_STATUSES))
    if status != STATUS_OK:
        return CorpusRecord(sha256=sha, status=status)
    detectors = set()
    location_counts: dict[str, int] = {}
    inlib: dict[str, set[str]] = {}
    for i, m in enumerate(_list(path, doc, "matches")):
        detector = m.get("detector") if isinstance(m, dict) else None
        if not isinstance(detector, str):
            raise _malformed(path, f"matches[{i}].detector", "a string")
        if detector not in TEE_DETECTORS:
            continue
        detectors.add(detector)
        location = m.get("location")
        if not isinstance(location, str):
            raise _malformed(path, f"matches[{i}].location", "a string")
        location_counts[location] = location_counts.get(location, 0) + 1
        if location == LOCATION_INLIB:
            package = m.get("package")
            if not isinstance(package, str):
                raise _malformed(path, f"matches[{i}].package", "a string")
            inlib.setdefault(detector, set()).add(package)
    crypto_libs = _list(path, doc, "crypto_libs")
    if not all(isinstance(lib, str) for lib in crypto_libs):
        raise _malformed(path, "crypto_libs", "a list of strings")
    native_libs = []
    for i, hit in enumerate(_list(path, doc, "native_libs")):
        library = hit.get("library") if isinstance(hit, dict) else None
        if not isinstance(library, str):
            raise _malformed(path, f"native_libs[{i}].library", "a string")
        native_libs.append(library)
    return CorpusRecord(
        sha256=sha, status=status, detectors=frozenset(detectors),
        location_counts=location_counts,
        inlib_packages={d: frozenset(p) for d, p in inlib.items()},
        crypto_libs=frozenset(crypto_libs), native_libs=frozenset(native_libs))
