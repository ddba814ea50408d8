"""analytika benchmark: end-to-end CLI runs or an in-process traced run.

    python3 bench/run.py --workload analyze-corpus --seed 1 --seconds 20 --trace 0

The program under test is the `src/analytika` beside this directory,
always started as `python -m analytika.cli` in a fresh interpreter for
timed runs. Inputs are generated from the seed and cached under
`.bench_work/` beside it. Every output is checked against the generator's plan or a
brute-force recomputation. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats_check  # noqa: E402
from workloads import (ANALYZE_CORPUS, STATS_CORPUS, WORKLOADS,  # noqa: E402
                       ensure_inputs)

SETUP_RUNS = 7


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def worker_count() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


def command(workload: str, root: Path, plan: dict, out: Path,
            one: bool) -> list:
    """The workload's own command line, on its full or one-item input."""
    if workload == STATS_CORPUS:
        base = root / "one" if one else root
        return ["stats", "--reports", str(base / "reports"), "--corpus",
                str(base / "corpus.csv"), "--out", str(out),
                "--filter-defaults"]
    if workload == ANALYZE_CORPUS:
        corpus = root / "one" / "corpus.csv" if one else root / "corpus.csv"
        return ["analyze", "--corpus", str(corpus), "--out", str(out),
                "--workers", str(worker_count())]
    paths = ([str(root / "one" / "app.apk")] if one
             else [str(root / a["path"]) for a in plan["apps"]])
    return ["analyze", *paths, "--out", str(out), "--workers", "1"]


def report_verdicts(out: Path, apps: list) -> list:
    """One bool per planned app: its report equals the planned one."""
    verdicts = []
    for app in apps:
        try:
            doc = json.loads((out / f"{app['sha256']}.json").read_text())
        except (OSError, ValueError):
            verdicts.append(False)
            continue
        doc.pop("timing", None)
        message = doc.get("meta", {}).pop("message", None)
        ok_status = app["expected"]["meta"]["status"] == "ok"
        verdicts.append(doc == app["expected"]
                        and (message == "") == ok_status)
    return verdicts


def expected_counts(apps: list) -> str:
    error = sum(1 for a in apps if a["expected"]["meta"]["status"] != "ok")
    return (f"analyzed={len(apps)} ok={len(apps) - error} timeout=0 "
            f"error={error} skipped=0")


def check_analyze_run(result, out: Path, apps: list) -> tuple:
    """(structure right, per-app verdicts) for one analyze invocation."""
    # The CLI exits 1 whenever an app errors, so the printed counts, not
    # the exit status, tell a right run from a wrong one.
    want = expected_counts(apps)
    structure = (want in result.stdout
                 and {p.stem for p in out.glob("*.json")}
                 == {a["sha256"] for a in apps})
    if not structure:
        log(f"analyze run: exit {result.returncode}, printed "
            f"{result.stdout.strip()!r}, wanted {want!r}")
    return structure, report_verdicts(out, apps)


class Checker:
    """The expected outputs of one workload's command, full or one-item.

    Calling it on a finished run gives (run right as a whole, one verdict
    per operation): per app for analyze, per output table for stats.
    """

    def __init__(self, repo: Path, root: Path, plan: dict, workload: str):
        self.is_stats = workload == STATS_CORPUS
        if self.is_stats:
            data = stats_check.program_data(repo / "src")
            self.full = stats_check.expected_tables(
                root / "reports", root / "corpus.csv", data)
            self.one = stats_check.expected_tables(
                root / "one" / "reports", root / "one" / "corpus.csv", data)
        else:
            self.full, self.one = plan["apps"], [plan["setup"]]

    def __call__(self, result, out: Path, one: bool) -> tuple:
        expected = self.one if one else self.full
        if self.is_stats:
            verdicts = stats_check.compare_tables(out, expected)
            return result.returncode == 0, list(verdicts.values())
        return check_analyze_run(result, out, expected)


def warm(root: Path) -> None:
    """Read every input file once so timed runs start from a warm cache."""
    for path in root.rglob("*"):
        if path.is_file():
            with open(path, "rb") as handle:
                while handle.read(1 << 20):
                    pass


def timed_run(repo: Path, work: Path, workload: str, seed: int,
              seconds: float) -> dict:
    from cli_runner import CliRunner
    root, plan = ensure_inputs(work, workload, seed)
    runs = work / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(runs, ignore_errors=True)
    runner = CliRunner(repo, runs)
    check = Checker(repo, root, plan, workload)
    items = (plan["reports"] if workload == STATS_CORPUS
             else len(plan["apps"]))
    warm(root)

    def one_run(name: str, one: bool):
        out = runs / name
        result = runner.run(command(workload, root, plan, out, one))
        structure, verdicts = check(result, out, one)
        shutil.rmtree(out, ignore_errors=True)
        return result, structure, verdicts

    # An untimed warm-up, then set-up runs alternate with full rounds, so
    # that both sample the same stretch of host time.
    _, structure, verdicts = one_run("warm-up", one=True)
    correct = structure and all(verdicts)
    setup, rates, raw_rates, peaks, cpu, steal = [], [], [], [], [], []
    attempted = failed = 0
    measured = 0.0
    while measured < seconds or len(setup) < SETUP_RUNS:
        result, structure, verdicts = one_run(f"setup{len(setup)}", one=True)
        correct &= structure and all(verdicts)
        setup.append(result.steal_free_s)
        if measured >= seconds:
            continue
        result, structure, verdicts = one_run(f"round{len(rates)}", one=False)
        correct &= structure
        attempted += len(verdicts)
        failed += verdicts.count(False)
        measured += result.wall_s
        rates.append(items / result.steal_free_s)
        raw_rates.append(items / result.wall_s)
        peaks.append(result.peak_rss_mb)
        cpu.append(result.cpu_s)
        steal.append(result.steal_s)
    shutil.rmtree(runs, ignore_errors=True)
    log(f"{workload} seed={seed}: {len(rates)} rounds, apps/s "
        f"{[round(r, 2) for r in raw_rates]}, peak MB {[round(p, 1) for p in peaks]}, "
        f"cpu s {[round(c, 2) for c in cpu]}, host steal s "
        f"{[round(c, 2) for c in steal]}, steal-free setup s "
        f"{[round(s, 3) for s in setup]}, steal-free apps/s "
        f"{[round(r, 2) for r in rates]}")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "apps_per_s": {"value": statistics.median(rates),
                           "unit": "apps/s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = HERE.parent
    if not (repo / "src" / "analytika" / "cli.py").is_file():
        log(f"no program to measure: {repo / 'src' / 'analytika'} is missing")
        return 2
    work = repo / ".bench_work"
    if args.trace:
        from traced import traced_run
        result = traced_run(repo, work, args.workload, args.seed)
    else:
        result = timed_run(repo, work, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
