"""Seeded inputs for the three workloads, cached on disk by seed.

Each workload's inputs live in one directory with a `plan.json` that holds
what the program must produce: the expected deterministic report of every
app, the expected counts printed by `analyze`, and the input properties
quoted in the README. The stats corpus is written straight to disk in the
report format, so the `stats` command is measured on its own.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import zipfile
from pathlib import Path

from apps import (AppSpec, build_app, failure_expected, full_expected,
                  sha256_hex)

ANALYZE_CORPUS = "analyze-corpus"
ANALYZE_LARGE = "analyze-large"
STATS_CORPUS = "stats-corpus"
WORKLOADS = (ANALYZE_CORPUS, ANALYZE_LARGE, STATS_CORPUS)

# Overloaded-crypto apps are built from fixed seeds so that the number of
# apps exposing the (class, name, shorty) join fault never depends on
# --seed; they are 4 of the 211 apps of analyze-corpus.
OVERLOAD_SEEDS = (9101, 9102, 9103, 9104)

# Classes of the single-dex app of analyze-large: the ROADMAP reference app
# (about 1.9 MB of APK, 8k classes, 160k invokes).
REFERENCE_CLASSES = 8000


def _spread(lo: int, hi: int, n: int) -> list:
    return [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]


def analyze_corpus_specs(rng: random.Random) -> list:
    """Fixed size mix; the seed only shuffles content and plants.

    The mix is a synthetic choice, not checked against the paper's corpus
    (the repository holds no size distribution of it). It is written as
    shares of the reference app of analyze-large: small apps have 0.1% to
    0.6% of its classes, medium ones 1% to 4%, and the multi-dex ones 3%
    to 4% over two or three DEX files. Small apps keep per-app fixed costs
    and the corpus runner's parallelism in front.
    """
    specs = []
    for n in _spread(8, 45, 180):            # 0.1% to 0.6%
        specs.append(AppSpec((n,), tee_plants=rng.choice((0, 0, 1, 2, 3)),
                             crypto_refs=rng.choice((0, 1, 2, 4)),
                             native=rng.choice((0, 0, 0, 0, 1, 2)),
                             filler_entries=rng.randint(10, 120),
                             filler_kb=rng.randint(40, 300)))
    for n in _spread(80, 300, 20):           # 1% to 4%
        specs.append(AppSpec((n,), tee_plants=rng.randint(2, 8),
                             crypto_refs=rng.randint(2, 8),
                             native=rng.choice((0, 1, 2, 3)),
                             filler_entries=rng.randint(80, 300),
                             filler_kb=rng.randint(400, 1500)))
    for dex in ((150, 100), (200, 120), (100, 100, 80), (200, 90)):
        specs.append(AppSpec(dex, tee_plants=rng.randint(4, 10),
                             crypto_refs=rng.randint(3, 8),
                             native=rng.choice((1, 2, 3)),
                             filler_entries=150, filler_kb=1500))
    return specs


def _corpus_row(sha, expected_pkg, category, downloads, last_update, path):
    return ",".join((sha, expected_pkg or "", category or "",
                     "" if downloads is None else str(downloads),
                     last_update or "", path))


def _expected_pkg(rng, package: str):
    """Corpus metadata package: equal, parent, child, other, or absent."""
    r = rng.random()
    if r < 0.6:
        return package
    if r < 0.7:
        return package.rsplit(".", 1)[0]
    if r < 0.75:
        return package + ".pro"
    if r < 0.85:
        return "com.other.listing"
    return None


def _meta_values(rng):
    category = rng.choice(("Finance", "Tools", "Education", "Communication",
                           "Casino", "Puzzle", "Music & Audio", None))
    downloads = rng.choice((None, 500, 9_999, 10_000, 250_000, 5_000_000))
    last_update = rng.choice((None, "2019-12-31", "2020-01-01", "2022-06-30"))
    return category, downloads, last_update


def _truncated(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _bad_dex_magic(rng) -> bytes:
    app = build_app(rng, AppSpec((5,)))
    # Rewrite the DEX magic inside a copy of the archive.
    src = zipfile.ZipFile(io.BytesIO(app.data))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            payload = src.read(info)
            if info.filename == "classes.dex":
                payload = b"dey\n035\x00" + payload[8:]
            dst.writestr(info, payload, compress_type=info.compress_type)
    return out.getvalue()


def gen_analyze_corpus(rng: random.Random, root: Path) -> dict:
    apk_dir = root / "apks"
    apk_dir.mkdir(parents=True)
    rows, apps = [], []

    def add(data, expected, sha=None, overload=False, props=None,
            meta_rng=rng):
        sha = sha or sha256_hex(data)
        path = f"apks/{len(apps):03d}.apk"
        (root / path).write_bytes(data)
        pkg = (_expected_pkg(meta_rng, expected["meta"]["package"])
               if expected["meta"]["status"] == "ok" else None)
        rows.append(_corpus_row(sha, pkg, *_meta_values(meta_rng), path))
        apps.append({"sha256": sha, "path": path, "overload": overload,
                     "expected": full_expected(expected, sha, pkg),
                     "props": props or {}})

    for spec in analyze_corpus_specs(rng):
        app = build_app(rng, spec)
        add(app.data, app.expected, props=app.props)
    for seed in OVERLOAD_SEEDS:
        fixed = random.Random(seed)
        app = build_app(fixed, AppSpec((30,), tee_plants=1, crypto_refs=1,
                                       overload=True))
        add(app.data, app.expected, overload=True, props=app.props,
            meta_rng=fixed)
    broken = build_app(rng, AppSpec((40,), tee_plants=2))
    add(_truncated(broken.data), failure_expected())
    add(_bad_dex_magic(rng), failure_expected())
    other = build_app(rng, AppSpec((10,)))
    add(other.data, failure_expected(),
        sha=hashlib.sha256(b"listed digest " + other.data[:64]).hexdigest())
    order = list(range(len(rows)))
    rng.shuffle(order)
    header = "sha256,package_name,category,downloads,last_update,path_or_remote"
    (root / "corpus.csv").write_text(
        "\n".join([header] + [rows[i] for i in order]) + "\n")

    # One-app corpus for the set-up measurement.
    one = build_app(rng, AppSpec((3,), tee_plants=1))
    one_sha = sha256_hex(one.data)
    (root / "one").mkdir()
    (root / "one" / "app.apk").write_bytes(one.data)
    (root / "one" / "corpus.csv").write_text(
        header + "\n" + _corpus_row(one_sha, one.package, "Tools", 10_000,
                                    "2021-01-01", "app.apk") + "\n")
    return {"apps": apps,
            "setup": {"sha256": one_sha,
                      "expected": full_expected(one.expected, one_sha,
                                                one.package)}}


def _plain_app(root: Path, path: str, app) -> dict:
    """Write one app that is analyzed without corpus metadata."""
    (root / path).parent.mkdir(parents=True, exist_ok=True)
    (root / path).write_bytes(app.data)
    sha = sha256_hex(app.data)
    return {"sha256": sha, "path": path, "overload": False,
            "expected": full_expected(app.expected, sha, None),
            "props": app.props}


def _setup_app(rng: random.Random, root: Path) -> dict:
    one = build_app(rng, AppSpec((3,), tee_plants=1))
    app = _plain_app(root, "one/app.apk", one)
    return {"sha256": app["sha256"], "expected": app["expected"]}


def gen_analyze_large(rng: random.Random, root: Path) -> dict:
    # The single-dex app is the reference app. No overload pair is planted
    # here, so no app of this workload fails.
    specs = (AppSpec((REFERENCE_CLASSES,), tee_plants=40, crypto_refs=14,
                     native=2, filler_entries=300, filler_kb=500,
                     invokes_per_method=5.0),
             AppSpec((2600, 2400, 2000), tee_plants=30, crypto_refs=12,
                     native=3, filler_entries=200, filler_kb=600,
                     invokes_per_method=5.0))
    apps = [_plain_app(root, f"apks/large{i}.apk",
                       build_app(rng, spec, non_ascii_share=0.08))
            for i, spec in enumerate(specs)]
    return {"apps": apps, "setup": _setup_app(rng, root)}


def gen_stats_inputs(rng: random.Random, root: Path) -> dict:
    from reportgen import gen_stats_corpus
    plan = gen_stats_corpus(rng, root)
    plan["apps"] = []                        # stats analyzes no app
    return plan


def _input_key() -> str:
    """Digest of the generator sources, so edited generators regenerate."""
    here = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for name in ("apps.py", "axmlgen.py", "dexgen.py", "reportgen.py",
                 "workloads.py"):
        h.update((here / name).read_bytes())
    return h.hexdigest()[:12]


def ensure_inputs(work: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the inputs of one workload and seed."""
    cache = work / "inputs"
    root = cache / f"{workload}-{seed}-{_input_key()}"
    plan_path = root / "plan.json"
    if plan_path.exists():
        return root, json.loads(plan_path.read_text())
    if root.exists():
        shutil.rmtree(root)
    rng = random.Random(f"{workload}:{seed}")
    gen = {ANALYZE_CORPUS: gen_analyze_corpus,
           ANALYZE_LARGE: gen_analyze_large,
           STATS_CORPUS: gen_stats_inputs}[workload]
    root.mkdir(parents=True)
    plan = gen(rng, root)
    plan.update(workload=workload, seed=seed)
    plan_path.write_text(json.dumps(plan))
    return root, plan
