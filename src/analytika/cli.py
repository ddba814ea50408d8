"""Command-line interface: `analytika analyze` and `analytika stats`."""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from datetime import date
from pathlib import Path

from . import defaults
from .attribution import load_known_prefixes
from .container import sha256_digest
from .pipeline import AnalysisConfig, CorpusEntry, load_corpus_csv, run_corpus


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
    analyze.add_argument("--workers", type=int, default=4)
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
    stats.add_argument("--min-downloads", type=int)
    stats.add_argument("--min-date", type=date.fromisoformat, metavar="YYYY-MM-DD")
    stats.add_argument("--exclude-categories",
                       help="file with one excluded category per line")
    stats.add_argument("--known-prefixes",
                       help="file with known library prefixes for ranking")
    stats.add_argument("--top-n", type=int, default=10)
    return parser


def _cmd_analyze(args) -> int:
    if not args.apk and not args.corpus:
        print("nothing to analyze: give APK paths or --corpus", file=sys.stderr)
        return 2

    api_key = None
    if args.fetch_endpoint:
        api_key = os.environ.get(args.api_key_env)
        if not api_key:
            print(f"--fetch-endpoint given but ${args.api_key_env} is unset",
                  file=sys.stderr)
            return 2

    try:
        config = AnalysisConfig(
            output_dir=Path(args.out),
            timeout_seconds=args.timeout,
            worker_count=args.workers,
            pattern_dir=Path(args.patterns) if args.patterns else None,
            proguard_as_main=args.proguard_as_main,
            force=args.force,
            fetch_endpoint=args.fetch_endpoint,
            api_key=api_key)
    except ValueError as exc:
        print(f"invalid option: {exc}", file=sys.stderr)
        return 2

    entries: list[CorpusEntry] = []
    if args.corpus:
        try:
            entries.extend(load_corpus_csv(args.corpus))
        except (OSError, ValueError, csv.Error) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"cannot read corpus {args.corpus}: {reason}",
                  file=sys.stderr)
            return 2
    for apk_path in args.apk:
        try:
            data = Path(apk_path).read_bytes()
        except OSError as exc:
            print(f"cannot read {apk_path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        entries.append(CorpusEntry(sha256=sha256_digest(data), source=apk_path))

    summary = run_corpus(entries, config)
    print(f"analyzed={summary.analyzed} ok={summary.ok} "
          f"timeout={summary.timeout} error={summary.error} "
          f"skipped={summary.skipped}")
    return 0 if summary.error == 0 else 1


def _pct(share: float) -> str:
    return f"{share * 100:.1f}%"


def _cmd_stats(args) -> int:
    from . import aggregate     # only stats needs it; analyze starts faster

    corpus = aggregate.load_corpus(args.reports, args.corpus)

    selection = None
    if args.filter_defaults:
        selection = aggregate.SelectionFilter()
    elif (args.min_downloads is not None or args.min_date is not None
          or args.exclude_categories):
        selection = aggregate.SelectionFilter(
            min_downloads=args.min_downloads or 0,
            min_last_update=args.min_date or date.min,
            excluded_categories=(
                defaults.load_game_categories(args.exclude_categories)
                if args.exclude_categories else frozenset()))
    if selection is not None:
        corpus = aggregate.apply_filter(corpus, selection)

    prefixes = load_known_prefixes(
        args.known_prefixes or defaults.default_known_prefixes_path())
    stats = aggregate.compute_stats(corpus, top_n=args.top_n,
                                    known_prefixes=prefixes)
    written = aggregate.write_stats(stats, args.out)

    totals = stats.totals
    print(f"apps: analyzed={totals['analyzed']} ok={totals['ok']} "
          f"failed={totals['failed']}")
    for detector in aggregate.TEE_DETECTORS:
        cell = stats.prevalence["per_api"][detector]
        print(f"  {detector}: {cell['apps']} ({_pct(cell['share'])})")
    any_cell = stats.prevalence["any_api"]
    print(f"  any: {any_cell['apps']} ({_pct(any_cell['share'])})")
    loc = stats.locations
    print(f"  library-located match share: {_pct(loc['inlib_match_share'])}")
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_stats(args)


if __name__ == "__main__":
    sys.exit(main())
