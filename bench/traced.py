"""In-process traced run: per-layer spans around the program's public calls.

The run imports `src/analytika` and calls each module's public functions
in the order `analyze_apk` and `stats` use them, with a span around each
call (name, start, end, parent, app). Spans are kept in memory, written to
.bench_work/traces/ at the end, and reduced to self times and counts. A
call whose name or signature no longer fits is recorded as missing and
the run goes on without it; an exception raised inside the program
propagates.

Only the layers the workload's command runs are called: the analyze
sequence on the analyze workloads, the stats sequence on stats-corpus.
The metrics of the other layers read 0. The same apps also go through the
real `analyze_apk` and `write_report` (pipeline.* metrics), the workload's
command runs once through the CLI (the run's correctness and operations,
and effective parallelism), and the emulated sequence runs twice more
with spans off, once before and once after the traced pass (for trace
overhead).
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from run import STATS_CORPUS, Checker, command, log, warm
from workloads import ensure_inputs

MANIFEST = "AndroidManifest.xml"
TOP_N = 10


class Missing(Exception):
    """A layer call that no longer fits; recorded, never fatal."""


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []          # [name, start, end, parent, app]
        self._stack = []
        self.missing = set()

    @contextmanager
    def span(self, name: str, app=None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, app])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """{span name: [total self seconds, count]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            cell = out.setdefault(name, [0.0, 0])
            cell[0] += (end - start) - child[i]
            cell[1] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, app in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "app": app}) + "\n")


class Layers:
    """The program's modules, resolved by name at call time."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.mods = {}
        for name in ("container", "manifest", "dex", "matchers",
                     "attribution", "report", "pipeline", "aggregate",
                     "defaults", "errors"):
            try:
                self.mods[name] = importlib.import_module(f"analytika.{name}")
            except ImportError:
                tracer.missing.add(f"analytika.{name}")
        errors = self.mods.get("errors")
        self.domain_error = getattr(errors, "AnalytikaError", Exception)

    def call(self, qualname: str, *args, **kwargs):
        """Call a public function if its name and signature still fit."""
        module, func = qualname.split(".")
        fn = getattr(self.mods.get(module), func, None)
        if fn is None:
            self.tracer.missing.add(qualname)
            raise Missing(qualname)
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            self.tracer.missing.add(f"{qualname}: {exc}")
            raise Missing(qualname) from None
        except ValueError:
            pass                      # no signature to check (builtins)
        return fn(*args, **kwargs)


def _attr(layers, obj, name, qualname):
    """An attribute of a value the program returned, or Missing."""
    if not hasattr(obj, name):
        layers.tracer.missing.add(f"{qualname}.{name}")
        raise Missing(qualname)
    return getattr(obj, name)


_RECORD_KEY = ("detector_id", "target_class", "target_method",
               "caller_class", "dex_file", "code_offset")


def emulate_app(layers: Layers, tracer: Tracer, app_id, data: bytes,
                patterns, sink: dict) -> None:
    """analyze_apk's layer sequence for one app, one span per call."""
    span = tracer.span
    with span("app", app_id):
        try:
            tee_sets, crypto_sets, native_patterns = (
                _attr(layers, patterns, k, "pipeline.load_patterns")
                for k in ("tee_sets", "crypto_sets", "native_patterns"))
            with span("container.digest", app_id):
                layers.call("container.sha256_digest", data)
            with span("container.open_archive", app_id):
                index = layers.call("container.open_archive", data)
            with span("container.inflate", app_id):
                raw = layers.call("container.read_entry", index, MANIFEST)
            sink["inflated"] += len(raw)
            with span("manifest.parse", app_id):
                info = layers.call("manifest.extract_manifest_info",
                                   layers.call("manifest.parse_binary_xml",
                                               raw))
            app_pkg = _attr(layers, info, "package_name", "manifest")
            records = []
            for name in layers.call("container.enumerate_dex", index):
                with span("container.inflate", app_id):
                    raw = layers.call("container.read_entry", index, name)
                sink["inflated"] += len(raw)
                sink["dex_bytes"] += len(raw)
                with span("dex.parse", app_id):
                    unit = layers.call("dex.parse_dex", raw, name)
                invocations = _attr(layers, unit, "invocations",
                                    "dex.DexUnit")
                with span("matchers.tee", app_id):
                    tee = layers.call("matchers.match_tee_apis", invocations,
                                      tee_sets)
                with span("matchers.crypto", app_id):
                    crypto = layers.call("matchers.match_crypto_packages",
                                         unit, crypto_sets)
                sink["tee_records"] += len(tee)
                sink["crypto_records"] += len(crypto)
                sink["crypto_distinct"] += len({
                    tuple(_attr(layers, r, k, "matchers.MatchRecord")
                          for k in _RECORD_KEY)
                    for r in crypto})
                records += tee + crypto
                del unit, invocations
            callers = [_attr(layers, r, "caller_class", "matchers.MatchRecord")
                       for r in records]
            with span("attribution", app_id):
                pkg_app = layers.call("attribution.parse_package", app_pkg)
                for caller in callers:
                    pkg = (layers.call("attribution.package_of_class", caller)
                           if caller else ())
                    layers.call("attribution.render_package", pkg)
                    layers.call("attribution.classify_location", pkg_app, pkg)
            with span("matchers.native", app_id):
                layers.call("matchers.match_native_libs",
                            layers.call("container.enumerate_native_libs",
                                        index),
                            native_patterns)
        except Missing:
            pass
        except layers.domain_error:
            pass                      # malformed app: stops like analyze_apk


def _load_patterns(layers):
    try:
        return layers.call("pipeline.load_patterns")
    except Missing:
        return None


def emulate_stats(layers: Layers, tracer: Tracer, report_dir: Path,
                  corpus_csv: Path, out: Path, sink: dict):
    """stats' layer sequence over one report directory."""
    span = tracer.span
    try:
        for path in sorted(report_dir.glob("*.json")):
            with span("report.read"):
                layers.call("report.read_report_document", path)
        with span("aggregate.load"):
            corpus = layers.call("aggregate.load_corpus", report_dir,
                                 corpus_csv)
        records = getattr(corpus, "records", None)
        if records is not None:
            sink["matches_held"] = sum(len(getattr(r, "matches", ()))
                                       for r in records)
        with span("aggregate.filter"):
            corpus = layers.call("aggregate.apply_filter", corpus,
                                 layers.call("aggregate.SelectionFilter"))
        prefixes = layers.call(
            "attribution.load_known_prefixes",
            layers.call("defaults.default_known_prefixes_path"))
        passes = (
            ("aggregate.prevalence", "aggregate.api_prevalence", ()),
            ("aggregate.locations", "aggregate.location_split", (prefixes,)),
            ("aggregate.categories", "aggregate.category_breakdown", ()),
            ("aggregate.crypto", "aggregate.crypto_table", ()))
        for span_name, qualname, extra in passes:
            with span(span_name):
                try:
                    layers.call(qualname, corpus, *extra)
                except Missing:
                    pass
        with span("aggregate.top_libs"):
            for detector in ("keystore", "drm", "biometrics",
                             "protected_confirmation"):
                layers.call("aggregate.top_libraries", corpus, detector,
                            TOP_N, prefixes)
        with span("aggregate.compute"):
            stats = layers.call("aggregate.compute_stats", corpus,
                                top_n=TOP_N, known_prefixes=prefixes)
        with span("aggregate.write"):
            layers.call("aggregate.write_stats", stats, out)
    except Missing:
        pass


def _median_ms(fn, runs=5) -> float:
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


def ref_loop() -> None:
    total = 0
    for i in range(300_000):
        total += i * i


def import_ms(repo: Path) -> float:
    """Cumulative import time of analytika.cli in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    values = []
    for _ in range(5):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import analytika.cli"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=60)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*analytika\.cli$",
                         line.rstrip())
            if m:
                values.append(int(m.group(1)) / 1000)
    return statistics.median(values) if values else 0.0


def _pct(values, q) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def traced_run(repo: Path, work: Path, workload: str, seed: int) -> dict:
    from cli_runner import CliRunner, host_steal_s
    run_started, steal_started = time.perf_counter(), host_steal_s()
    sys.path.insert(0, str(repo / "src"))
    root, plan = ensure_inputs(work, workload, seed)
    warm(root)
    scratch = work / "runs" / f"trace-{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    is_stats = workload == STATS_CORPUS

    # The workload's command on its one-item input (a warm-up), then once
    # on the full input. Checked as in a timed run, these give the run's
    # correctness and its operations, so that the share that fails is the
    # same as in the timed runs; the in-process calls below only time.
    runner = CliRunner(repo, scratch)
    check = Checker(repo, root, plan, workload)
    correct = True
    for one in (True, False):
        out = scratch / f"cli-{'one' if one else 'full'}"
        cli = runner.run(command(workload, root, plan, out, one))
        structure, verdicts = check(cli, out, one)
        shutil.rmtree(out, ignore_errors=True)
        correct &= structure and (all(verdicts) or not one)
    attempted, failed = len(verdicts), verdicts.count(False)

    probe = Tracer(enabled=False)
    layers = Layers(probe)
    metrics = {}
    apps = plan["apps"]
    blobs = [(root / a["path"]).read_bytes() for a in apps]

    # Real pipeline: analyze_apk + write_report per app, timed from outside.
    config_cls = getattr(layers.mods.get("pipeline"), "AnalysisConfig", None)
    entry_cls = getattr(layers.mods.get("pipeline"), "CorpusEntry", None)
    patterns = None if is_stats else _load_patterns(layers)
    reports, walls, cpus = [], [], []
    real_dir = scratch / "reports"
    real_dir.mkdir(parents=True)
    if apps and config_cls and entry_cls:
        config = config_cls(output_dir=real_dir, worker_count=1)
        for app, blob in zip(apps, blobs):
            meta = app["expected"]["meta"]
            entry = entry_cls(sha256=app["sha256"],
                              expected_package_name=meta["expected_package"])
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                report = layers.call("pipeline.analyze_apk", blob, entry,
                                     config, patterns=patterns)
                layers.call("report.write_report", report, real_dir)
            except Missing:
                report = None
            walls.append(time.perf_counter() - w0)
            cpus.append(time.thread_time() - c0)
            reports.append(report)
    report_dir = root / "reports" if is_stats else real_dir

    def emulated(tracer, out_dir):
        lay = Layers(tracer)
        sink = {k: 0 for k in ("inflated", "dex_bytes", "tee_records",
                               "crypto_records", "crypto_distinct",
                               "matches_held")}
        started = time.perf_counter()
        if is_stats:
            emulate_stats(lay, tracer, report_dir, root / "corpus.csv",
                          out_dir / "tables", sink)
        for i, blob in enumerate(blobs):
            emulate_app(lay, tracer, i, blob, patterns, sink)
        written = out_dir / "reports"
        written.mkdir(parents=True)
        for i, report in enumerate(reports):
            if report is None:
                continue
            with tracer.span("report.write", i):
                try:
                    lay.call("report.write_report", report, written)
                except Missing:
                    pass
        return time.perf_counter() - started, sink

    # Untraced runs on both sides of the traced one, so that a drift of
    # the host during the run does not read as tracing overhead.
    plain_s, _ = emulated(Tracer(enabled=False), scratch / "plain0")
    tracer = Tracer(enabled=True)
    traced_s, sink = emulated(tracer, scratch / "traced")
    plain_s = (plain_s + emulated(Tracer(enabled=False),
                                  scratch / "plain1")[0]) / 2
    tracer.missing |= probe.missing
    tracer.write(work / "traces" / f"{workload}-{seed}.jsonl")

    # Memory: tracemalloc around the largest app's parse_dex calls (analyze),
    # or around load + filter + compute of the stats layer (stats).
    dex_peak = 0.0
    if blobs:
        largest = max(blobs, key=len)
        try:
            index = layers.call("container.open_archive", largest)
            for name in layers.call("container.enumerate_dex", index):
                raw = layers.call("container.read_entry", index, name)
                tracemalloc.start()
                unit = layers.call("dex.parse_dex", raw, name)
                dex_peak = max(dex_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                del unit
        except Missing:
            tracemalloc.stop()
    agg_peak = 0.0
    if is_stats:
        try:
            tracemalloc.start()
            corpus = layers.call("aggregate.load_corpus", report_dir,
                                 root / "corpus.csv")
            corpus = layers.call("aggregate.apply_filter", corpus,
                                 layers.call("aggregate.SelectionFilter"))
            layers.call("aggregate.compute_stats", corpus, top_n=TOP_N)
            agg_peak = tracemalloc.get_traced_memory()[1]
            del corpus
        except Missing:
            pass
        finally:
            tracemalloc.stop()

    st = tracer.self_times()
    n_apps = max(1, len(blobs))

    def per_app_ms(name):
        return st.get(name, [0.0, 0])[0] * 1000 / n_apps if blobs else 0.0

    def per_call_ms(name):
        total, count = st.get(name, [0.0, 0])
        return total * 1000 / count if count else 0.0

    props = [a["props"] for a in apps if a["props"]]

    def prop_sum(key):
        return sum(p.get(key, 0) for p in props)

    n_reports = len(list(report_dir.glob("*.json")))
    report_sizes = [p.stat().st_size for p in report_dir.glob("*.json")]
    per_1k = 1000 / max(1, n_reports)
    dex_s = st.get("dex.parse", [0.0, 0])[0]
    crypto_records = sink["crypto_records"]
    analyze_walls = [w for w, r in zip(walls, reports) if r is not None]
    values = {
        "container.digest_ms": per_app_ms("container.digest"),
        "container.open_archive_ms": per_app_ms("container.open_archive"),
        "container.entries": prop_sum("entries") / len(props) if props else 0,
        "container.inflate_ms": per_app_ms("container.inflate"),
        "container.inflated_mb": sink["inflated"] / 1e6 / n_apps
        if blobs else 0.0,
        "manifest.parse_ms": per_app_ms("manifest.parse"),
        "dex.parse_ms": per_app_ms("dex.parse"),
        "dex.parse_mb_per_s": sink["dex_bytes"] / 1e6 / dex_s if dex_s else 0.0,
        "dex.traced_peak_mb": dex_peak / 1e6,
        "dex.invocations": prop_sum("invocations") / len(props)
        if props else 0,
        "dex.method_refs": prop_sum("method_refs") / len(props)
        if props else 0,
        "dex.invokes_per_method_ref": prop_sum("invocations")
        / prop_sum("method_refs") if props else 0.0,
        "dex.non_ascii_string_share": prop_sum("non_ascii_strings")
        / prop_sum("strings") if props else 0.0,
        "matchers.tee_ms": per_app_ms("matchers.tee"),
        "matchers.crypto_ms": per_app_ms("matchers.crypto"),
        "matchers.native_ms": per_app_ms("matchers.native"),
        "matchers.tee_records": sink["tee_records"] / n_apps if blobs else 0,
        "matchers.crypto_records": crypto_records / n_apps if blobs else 0,
        "matchers.crypto_unique_share": sink["crypto_distinct"]
        / crypto_records if crypto_records else 0.0,
        "attribution.ms": per_app_ms("attribution"),
        "report.write_ms": per_call_ms("report.write"),
        "report.kb": statistics.fmean(report_sizes) / 1024
        if report_sizes else 0.0,
        "report.read_ms": per_call_ms("report.read"),
        "pipeline.analyze_apk_ms_p50": _pct(analyze_walls, 0.5) * 1000,
        "pipeline.analyze_apk_ms_p95": _pct(analyze_walls, 0.95) * 1000,
        "pipeline.load_patterns_ms": 0.0 if is_stats else _median_ms(
            lambda: _load_patterns(layers)),
        "pipeline.cpu_ms_per_app": statistics.fmean(cpus) * 1000
        if cpus else 0.0,
        # Both sides are free of host steal: CPU time of the in-process
        # calls, and the CLI run's steal-free wall time.
        "pipeline.effective_parallelism": sum(cpus) / cli.steal_free_s
        if cpus else 0.0,
        "aggregate.load_ms_per_1k": st.get("aggregate.load", [0.0])[0]
        * 1000 * per_1k,
        "aggregate.compute_ms_per_1k": st.get("aggregate.compute", [0.0])[0]
        * 1000 * per_1k,
        "aggregate.prevalence_ms": per_call_ms("aggregate.prevalence"),
        "aggregate.locations_ms": per_call_ms("aggregate.locations"),
        "aggregate.top_libs_ms": per_call_ms("aggregate.top_libs"),
        "aggregate.categories_ms": per_call_ms("aggregate.categories"),
        "aggregate.crypto_ms": per_call_ms("aggregate.crypto"),
        "aggregate.write_ms": per_call_ms("aggregate.write"),
        "aggregate.traced_peak_mb": agg_peak / 1e6,
        "aggregate.matches_held": sink["matches_held"],
        "cli.import_ms": import_ms(repo),
        "host.ref_loop_ms": _median_ms(ref_loop),
        "host.steal_share": (host_steal_s() - steal_started)
        / ((time.perf_counter() - run_started) * (os.cpu_count() or 1)),
        "trace.overhead_share": traced_s / plain_s if plain_s else 0.0,
        "trace.missing_calls": len(tracer.missing),
    }
    log(f"trace: cli wall {cli.wall_s:.3f}s, steal-free "
        f"{cli.steal_free_s:.3f}s; in-process analyze+write cpu "
        f"{sum(cpus):.3f}s; emulated {plain_s:.3f}s plain / {traced_s:.3f}s "
        f"traced")
    for missing in sorted(tracer.missing):
        log(f"missing layer call: {missing}")
    shutil.rmtree(scratch, ignore_errors=True)
    declared = json.loads((repo / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        if metric["name"] not in values:
            log(f"per-layer metric not computed: {metric['name']}")
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0),
                                   "unit": metric["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}

