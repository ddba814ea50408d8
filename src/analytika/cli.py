"""Command-line interface: `analytika analyze` and `analytika stats`."""

from __future__ import annotations

import argparse
import csv
import errno
import os
import sys
from contextlib import contextmanager
from datetime import date
from pathlib import Path

from .corpus import parse_date, parse_downloads

# Each command imports its own modules when it runs, so `stats` never loads
# the archive, DEX and manifest readers and `analyze` never loads `aggregate`.


class _Unusable(Exception):
    """An argument the command cannot use; `main` prints it and exits 2."""


@contextmanager
def _cannot(action: str):
    """Turn a failure to `action` into one `_Unusable` line."""
    try:
        yield
    except (OSError, ValueError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _Unusable(f"cannot {action}: {reason}") from None


def _check_out(path: str) -> None:
    """Raise the OSError that making `path` a writable directory would meet,
    creating nothing, so a command refuses it before doing any work."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    if not os.access(probe, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _bool_flag(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analytika",
        description="Detect hardware-backed security API and crypto library "
                    "usage in Android app packages.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze APK files or a corpus")
    analyze.add_argument("apk", nargs="*", help="APK file paths")
    analyze.add_argument("--corpus", help="corpus CSV with metadata and sources")
    analyze.add_argument("--patterns", help="directory with pattern CSV files")
    analyze.add_argument("--out", default="reports", help="report output directory")
    analyze.add_argument("--timeout", type=float, default=900,
                         help="per-app deadline in seconds")
    analyze.add_argument("--workers", type=int, default=4,
                         help="apps in flight: one analyzed, the rest read "
                              "and hashed ahead")
    analyze.add_argument("--fetch-endpoint",
                         help="download endpoint for remote corpus entries")
    analyze.add_argument("--api-key-env", default="ANALYTIKA_API_KEY",
                         help="environment variable holding the download API key")
    analyze.add_argument("--force", action="store_true",
                         help="re-analyze apps that already have an ok report")
    analyze.add_argument("--proguard-as-main", type=_bool_flag, default=True,
                         metavar="BOOL",
                         help="attribute shrinker-shaped packages to the main app")

    stats = sub.add_parser("stats", help="aggregate reports into result tables")
    stats.add_argument("--reports", required=True, help="report directory")
    stats.add_argument("--corpus", help="corpus CSV with metadata")
    stats.add_argument("--out", required=True, help="table output directory")
    stats.add_argument("--filter-defaults", action="store_true",
                       help="apply the default selection filter")
    stats.add_argument("--min-downloads", type=parse_downloads,
                       help="keep apps with at least this many downloads")
    stats.add_argument("--min-date", type=parse_date, metavar="YYYY-MM-DD",
                       help="keep apps updated on or after this date")
    stats.add_argument("--exclude-categories",
                       help="file with one excluded category per line")
    stats.add_argument("--known-prefixes",
                       help="file with known library prefixes for ranking")
    stats.add_argument("--top-n", type=int, default=10,
                       help="libraries listed per detector in the rankings")
    return parser


def _cmd_analyze(args) -> int:
    from .corpus import CorpusEntry, load_corpus_csv
    from .matchers import load_patterns
    from .pipeline import AnalysisConfig, run_corpus

    if not args.apk and not args.corpus:
        raise _Unusable("nothing to analyze: give APK paths or --corpus")

    api_key = None
    if args.fetch_endpoint:
        api_key = os.environ.get(args.api_key_env)
        if not api_key:
            raise _Unusable(
                f"--fetch-endpoint given but ${args.api_key_env} is unset")

    try:
        config = AnalysisConfig(
            output_dir=Path(args.out),
            timeout_seconds=args.timeout,
            worker_count=args.workers,
            proguard_as_main=args.proguard_as_main,
            force=args.force,
            fetch_endpoint=args.fetch_endpoint,
            api_key=api_key)
    except ValueError as exc:
        raise _Unusable(f"invalid option: {exc}") from None

    with _cannot(f"write reports {args.out}"):
        _check_out(args.out)
    with _cannot(f"read patterns {args.patterns}"):
        patterns = load_patterns(args.patterns)
    entries = []
    if args.corpus:
        with _cannot(f"read corpus {args.corpus}"):
            entries = load_corpus_csv(args.corpus)
    # The run reads and hashes each APK once; here each path only opens.
    for apk_path in args.apk:
        with _cannot(f"read {apk_path}"):
            open(apk_path, "rb").close()
        entries.append(CorpusEntry(sha256="", source=apk_path))

    with _cannot(f"write reports {args.out}"):
        summary = run_corpus(entries, config, patterns=patterns)
    print(f"analyzed={summary.analyzed} ok={summary.ok} "
          f"timeout={summary.timeout} error={summary.error} "
          f"skipped={summary.skipped}")
    return 1 if summary.error or summary.timeout else 0


def _pct(share: float) -> str:
    return f"{share * 100:.1f}%"


def _cmd_stats(args) -> int:
    from . import aggregate, defaults
    from .attribution import load_known_prefixes
    from .errors import MalformedReportError

    # Every argument file is read and checked before the reports, so an
    # unusable one fails fast and no table is written.
    with _cannot(f"read reports {args.reports}"):
        os.scandir(args.reports).close()
    with _cannot(f"write tables {args.out}"):
        _check_out(args.out)
    if os.path.exists(args.out) and os.path.samefile(args.out, args.reports):
        raise _Unusable(f"cannot write tables {args.out}: "
                        "it is the --reports directory")
    # stats reads every *.json name in --reports as a report.
    parent, name = os.path.split(os.path.abspath(args.out))
    if name.endswith(".json") and os.path.isdir(parent) \
            and os.path.samefile(parent, args.reports):
        raise _Unusable(f"cannot write tables {args.out}: a later stats run "
                        "would read it as a report in --reports")
    if args.top_n < 1:
        raise _Unusable("invalid option: top_n must be at least 1")
    explicit = (args.min_downloads is not None or args.min_date is not None
                or args.exclude_categories is not None)
    if args.filter_defaults and explicit:
        raise _Unusable("invalid option: --filter-defaults cannot be combined "
                        "with --min-downloads, --min-date or "
                        "--exclude-categories")
    selection = None
    if args.filter_defaults:
        selection = aggregate.SelectionFilter()
    elif explicit:
        excluded = frozenset()
        if args.exclude_categories is not None:
            with _cannot(f"read excluded categories {args.exclude_categories}"):
                excluded = defaults.load_game_categories(
                    args.exclude_categories)
        selection = aggregate.SelectionFilter(
            min_downloads=args.min_downloads or 0,
            min_last_update=args.min_date or date.min,
            excluded_categories=excluded)
    prefixes_path = (args.known_prefixes
                     or defaults.default_known_prefixes_path())
    with _cannot(f"read known prefixes {prefixes_path}"):
        prefixes = load_known_prefixes(prefixes_path)
    with _cannot(f"read corpus {args.corpus}"):
        corpus = aggregate.load_corpus(args.reports, args.corpus or None)
    if selection is not None:
        corpus = aggregate.apply_filter(corpus, selection)
    try:
        stats = aggregate.compute_stats(corpus, top_n=args.top_n,
                                        known_prefixes=prefixes)
    except MalformedReportError as exc:
        raise _Unusable(f"cannot read report {exc}") from None
    with _cannot(f"write tables {args.out}"):
        written = aggregate.write_stats(stats, args.out)

    totals = stats["totals"]
    print(f"apps: analyzed={totals['analyzed']} ok={totals['ok']} "
          f"failed={totals['failed']}")
    for detector in aggregate.TEE_DETECTORS:
        cell = stats["prevalence"]["per_api"][detector]
        print(f"  {detector}: {cell['apps']} ({_pct(cell['share'])})")
    any_cell = stats["prevalence"]["any_api"]
    print(f"  any: {any_cell['apps']} ({_pct(any_cell['share'])})")
    inlib_share = stats["locations"]["inlib_match_share"]
    print(f"  library-located match share: {_pct(inlib_share)}")
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _cmd_analyze if args.command == "analyze" else _cmd_stats
    try:
        return command(args)
    except _Unusable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
