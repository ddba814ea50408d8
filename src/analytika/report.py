"""Per-app report documents and their on-disk JSON format.

One report file per app, named <sha256>.json. Everything except the
"timing" section is deterministic for a given input, so two runs can be
compared byte-for-byte after dropping that one key. The field names below
are a stable contract for downstream tooling.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .matchers import MatchRecord, TEE_DETECTORS

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


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
    crypto_software_libs: list[str] = field(default_factory=list)
    api_summary: dict[str, bool] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_document(self) -> dict:
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
                "api_summary": {d: bool(self.api_summary.get(d))
                                for d in TEE_DETECTORS},
            },
            "matches": [
                {
                    "detector": m.detector_id,
                    "target_class": m.target_class,
                    "target_method": m.target_method,
                    "caller_class": m.caller_class,
                    "dex_file": m.dex_file,
                    "code_offset": m.code_offset,
                    "location": m.location,
                    "package": m.attributed_package,
                }
                for m in self.matches
            ],
            "native_libs": [{"library": lib, "file": name}
                            for lib, name in self.native_lib_hits],
            "crypto_libs": list(self.crypto_software_libs),
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
    """Serialize atomically: temp file in the target dir, then rename."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = report_path(out_dir, report.sha256)
    payload = json.dumps(report.to_document(), indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def read_report_document(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc
