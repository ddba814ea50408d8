"""Per-app analysis orchestration and corpus runs.

Each app is analyzed independently: verify digest, open the archive, parse
the manifest and every bytecode entry, run the detectors, attribute each
match, and write one JSON report. A cooperative deadline is checked at
stage boundaries and inside the long loops (entry decompression, per-class
bytecode parsing), so a stuck app is abandoned shortly after its deadline
without affecting its siblings' reports. Failed apps keep no partial
results. A corpus run analyzes one app at a time, in input order, while
loader threads read and hash the next few apps ahead of it.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .attribution import (
    classify_location,
    compare_package_names,
    package_of_class,
    parse_package,
    render_package,
)
from .container import (
    enumerate_dex,
    enumerate_native_libs,
    open_archive,
    read_entry,
    sha256_digest,
)
from .corpus import REMOTE_SOURCE, CorpusEntry
from .defaults import write_text
from .dex import parse_dex
from .errors import (
    AnalysisTimeout,
    AnalytikaError,
    EntryNotFoundError,
    HashMismatchError,
    HttpStatusError,
    MalformedReportError,
    NetworkError,
)
from .manifest import extract_manifest_info, parse_binary_xml
from .matchers import (
    MATCH_ORDER,
    LoadedPatterns,
    UnitHits,
    load_patterns,
    match_native_libs,
)
from .report import (
    AppReport,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    read_record,
    report_path,
    write_report,
)

MANIFEST_ENTRY = "AndroidManifest.xml"
_FETCH_TIMEOUT_S = 60.0        # seconds per download request


class Deadline:
    """Wall-clock budget checked cooperatively from long-running loops."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._expires = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self._expires:
            raise AnalysisTimeout(f"analysis exceeded {self.seconds}s deadline")


@dataclass
class AnalysisConfig:
    output_dir: Path = Path("reports")
    timeout_seconds: float = 900
    worker_count: int = 4
    proguard_as_main: bool = True
    force: bool = False
    fetch_endpoint: str | None = None
    api_key: str | None = None

    def __post_init__(self):
        if not self.timeout_seconds >= 1:      # NaN is refused too
            raise ValueError("timeout_seconds must be at least 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")
        # Checked before any download: a URL that fails to open fails with
        # the whole query, API key included, in its message, and a request
        # drops a fragment with whatever query follows it.
        endpoint = self.fetch_endpoint
        if endpoint is not None:
            parts = urlsplit(endpoint)
            if (parts.scheme not in ("http", "https") or not parts.hostname
                    or " " in endpoint or not endpoint.isprintable()
                    or "#" in endpoint):
                raise ValueError("fetch_endpoint must be an http or https "
                                 "URL with a host, no whitespace and no "
                                 "fragment")


@contextmanager
def _stage(timings: dict, name: str, deadline: Deadline):
    """Add the stage's time to `timings[name]`; check `deadline` once the
    stage completes."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
    deadline.check()


def analyze_apk(data: bytes, entry: CorpusEntry, config: AnalysisConfig,
                patterns: LoadedPatterns | None = None) -> AppReport:
    """Analyze one app end to end; never raises.

    Any failure (digest mismatch, malformed input, deadline) is captured in
    the report status and all partial analysis results are dropped, so
    failed apps cannot leak into corpus statistics.
    """
    if patterns is None:
        patterns = load_patterns()
    return _analyze_hashed(data, *_timed_digest(data), entry, config,
                           patterns)


def _timed_digest(data: bytes) -> tuple[str, float]:
    """The sha256 of `data` and the hashing thread's CPU seconds for it, so
    a loader thread's wait for the interpreter lock is not counted."""
    started = time.thread_time()
    return sha256_digest(data), time.thread_time() - started


def _analyze_hashed(data: bytes, digest: str, digest_s: float,
                    entry: CorpusEntry, config: AnalysisConfig,
                    patterns: LoadedPatterns) -> AppReport:
    """`analyze_apk` past the digest of `data`, which took `digest_s`."""
    deadline = Deadline(config.timeout_seconds)
    timings = {"digest": digest_s}
    started = time.perf_counter() - digest_s
    try:
        if entry.sha256 and digest != entry.sha256:
            raise HashMismatchError(
                f"hash mismatch: expected {entry.sha256}, computed {digest}")

        with _stage(timings, "archive", deadline):
            index = open_archive(data)

        with _stage(timings, "manifest", deadline):
            try:
                manifest_bytes = read_entry(index, MANIFEST_ENTRY,
                                            cancel_check=deadline.check)
            except EntryNotFoundError:
                raise AnalytikaError("archive has no manifest entry") from None
            info = extract_manifest_info(parse_binary_xml(manifest_bytes))

        records = []
        for dex_name in enumerate_dex(index):
            with _stage(timings, "inflate", deadline):
                raw = read_entry(index, dex_name, cancel_check=deadline.check)
            hits = UnitHits(patterns.index)
            with _stage(timings, "dex_parse", deadline):
                unit = parse_dex(raw, dex_name, cancel_check=deadline.check,
                                 wanted=hits)
            with _stage(timings, "match", deadline):
                records += hits.records(unit)

        with _stage(timings, "attribution", deadline):
            app_pkg = parse_package(info.package_name)
            for k, record in enumerate(records):
                pkg = (package_of_class(record.caller_class)
                       if record.caller_class else ())
                records[k] = record._replace(
                    location=classify_location(
                        app_pkg, pkg, proguard_as_main=config.proguard_as_main),
                    package=render_package(pkg))

        with _stage(timings, "native", deadline):
            native_hits = match_native_libs(enumerate_native_libs(index),
                                            patterns.native_patterns)

        report = AppReport(
            sha256=entry.sha256 or digest,
            package_name=info.package_name,
            expected_package_name=entry.expected_package_name,
            status=STATUS_OK,
            package_name_check=compare_package_names(
                entry.expected_package_name, info.package_name),
            permissions=info.permissions,
            min_sdk=info.min_sdk,
            matches=sorted(records, key=MATCH_ORDER),
            native_lib_hits=native_hits)
    except AnalysisTimeout as exc:
        report = _failure_report(entry, STATUS_TIMEOUT, str(exc), digest)
    except Exception as exc:  # any stage failure excludes the app
        report = _failure_report(entry, STATUS_ERROR, str(exc), digest)

    timings["total"] = time.perf_counter() - started
    report.timings = timings
    return report


def _failure_report(entry: CorpusEntry, status: str, message: str,
                    digest: str) -> AppReport:
    """A report holding only the app's identity, whatever stage failed, so
    failure reports stay deterministic and carry no partial results."""
    return AppReport(sha256=entry.sha256 or digest,
                     expected_package_name=entry.expected_package_name,
                     status=status, message=message)


@dataclass
class RunSummary:
    analyzed: int = 0
    ok: int = 0
    timeout: int = 0
    error: int = 0
    skipped: int = 0


def _probe_writable(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # A random name, so the probe replaces and removes no user's file.
        os.unlink(*write_text({out_dir / f"probe-{os.urandom(8).hex()}": ""}))
    except OSError as exc:
        raise OSError(f"output directory not writable: {out_dir}") from exc


def _has_ok_report(out_dir: Path, sha256: str) -> bool:
    """Whether `read_record` reads the app's report as ok and as the
    report of `sha256`, not of an app whose report was copied or renamed."""
    try:
        record = read_record(report_path(out_dir, sha256))
        return record.status == STATUS_OK and record.sha256 == sha256
    except MalformedReportError:
        return False            # missing, or a report stats would refuse


def _load_entry_bytes(entry: CorpusEntry, config: AnalysisConfig) -> bytes:
    if entry.source == REMOTE_SOURCE:
        if not entry.sha256:
            raise AnalytikaError("remote entry has no sha256")
        if not config.fetch_endpoint or not config.api_key:
            raise AnalytikaError("remote entry but no fetch endpoint configured")
        return fetch_by_hash(entry.sha256, config.fetch_endpoint, config.api_key)
    if not entry.source:
        raise AnalytikaError("corpus entry has no source path")
    return Path(entry.source).read_bytes()


def _unread_name(entry: CorpusEntry) -> str:
    """The stand-in digest naming the report of an entry without a sha256
    whose bytes could not be read: stable across runs, and distinct for
    entries with distinct sources or package names. Its key is a name, not
    app bytes, so it is hashed apart from the app digests."""
    key = os.fsencode(f"{entry.source}\0{entry.expected_package_name or ''}")
    return f"unread-{hashlib.sha256(key).hexdigest()}"


def _load(entry: CorpusEntry, config: AnalysisConfig):
    """Read (or download) and hash one app's bytes: work that releases the
    interpreter lock, so it can run beside the analysis of another app.

    Gives (bytes, digest, digest seconds), or, if the bytes cannot be read,
    the app's error report, its total time being the failed load's.
    """
    started = time.perf_counter()
    try:
        data = _load_entry_bytes(entry, config)
    except Exception as exc:
        report = _failure_report(entry, STATUS_ERROR,
                                 f"could not load app bytes: {exc}",
                                 _unread_name(entry))
        report.timings = {"total": time.perf_counter() - started}
        return report
    return (data, *_timed_digest(data))


def _read_ahead(entries, config: AnalysisConfig, loaders: Executor):
    """Yield (entry, future of its `_load`) in input order, with the loads
    of the next `config.worker_count - 1` entries started on `loaders`
    before each entry is yielded."""
    pending = deque()
    for entry in entries:
        pending.append((entry, loaders.submit(_load, entry, config)))
        if len(pending) == config.worker_count:
            yield pending.popleft()
    while pending:
        yield pending.popleft()


def run_corpus(entries, config: AnalysisConfig,
               patterns: LoadedPatterns | None = None) -> RunSummary:
    """Analyze a corpus in input order; one report file per app.

    Apps whose report `read_record` reads as ok, with a `meta.sha256` that
    names the app, are skipped unless config.force is set, which makes
    interrupted runs cheap to resume.
    Each app is analyzed in the calling thread, one at a time, while loader
    threads read (or download) and hash up to `config.worker_count - 1`
    apps ahead of it; so at most `worker_count` apps are in flight. An
    entry without a sha256 is checked once its bytes are hashed, just
    before its analysis, so a repeat of an earlier entry's bytes is
    skipped; that one digest also names its report. If its bytes cannot be
    read, its error report is named by `_unread_name` instead, and a later
    run that reads them removes that report. Patterns not given are the
    shipped ones, loaded before the output directory is made.
    `run.log` gets one line per analyzed app, in input order.
    """
    if patterns is None:
        patterns = load_patterns()
    out_dir = Path(config.output_dir)
    _probe_writable(out_dir)

    summary = RunSummary()
    todo = []
    for entry in entries:
        if entry.sha256 and not config.force and _has_ok_report(
                out_dir, entry.sha256):
            summary.skipped += 1
        else:
            todo.append(entry)

    log_path = out_dir / "run.log"
    loaders = ThreadPoolExecutor(max_workers=max(config.worker_count - 1, 1))
    with loaders:
        for entry, loading in _read_ahead(todo, config, loaders):
            loaded = loading.result()
            if isinstance(loaded, AppReport):
                report = loaded         # its bytes could not be read
            else:
                data, digest, digest_s = loaded
                if not entry.sha256:
                    # Its bytes are read, so an earlier run's report that
                    # they could not be is stale, whatever comes of them.
                    report_path(out_dir, _unread_name(entry)).unlink(
                        missing_ok=True)
                    if not config.force and _has_ok_report(out_dir, digest):
                        summary.skipped += 1
                        continue
                report = _analyze_hashed(data, digest, digest_s, entry,
                                         config, patterns)
            write_report(report, out_dir)
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(f"{report.sha256} {report.status} "
                             f"{report.timings.get('total', 0.0):.3f}s "
                             f"{report.message}\n")
            summary.analyzed += 1
            if report.status == STATUS_OK:
                summary.ok += 1
            elif report.status == STATUS_TIMEOUT:
                summary.timeout += 1
            else:
                summary.error += 1
    return summary


def fetch_by_hash(sha256: str, endpoint: str, api_key: str) -> bytes:
    """Download one APK by its sha256; `analyze_apk` checks the bytes."""
    # Imported here: the HTTP stack costs every other run its start-up.
    import urllib.error
    import urllib.parse
    import urllib.request

    # The endpoint's own query, if any, keeps its place before ours.
    parts = urllib.parse.urlsplit(endpoint)
    query = urllib.parse.urlencode({"apikey": api_key, "sha256": sha256})
    url = urllib.parse.urlunsplit(parts._replace(
        query=f"{parts.query}&{query}" if parts.query else query))
    try:
        with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT_S) as response:
            data = response.read()
    except urllib.error.HTTPError as exc:
        exc.close()             # the error holds the response connection
        raise HttpStatusError(exc.code) from exc
    except urllib.error.URLError as exc:
        raise NetworkError(str(exc)) from exc
    return data
