"""Seeded mutations of valid report documents and their recorded
`read_record` outcomes.

Each case starts from a valid `synth.report_doc` document (ok with and
without matches, error, timeout) and changes it once: a key dropped at any
depth, a value swapped for one of another JSON type, a list truncated, an
unknown status or match location, or an unknown key added. The golden file
`data/golden/report_fuzz.json` holds, for every case in order, what the
reader gave when it was recorded: a digest of the record, or the exact
refusal reason after the path. A reader rewrite must reproduce each
outcome, so the set of reports `stats` reads stays the same.

Regenerate (only when a reader change is meant to alter outcomes) with

    PYTHONPATH=src:tests python tests/reportfuzz.py
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random
import tempfile
from pathlib import Path

from analytika.errors import MalformedReportError
from analytika.report import read_record

from synth import make_match, report_doc, sha_for

GOLDEN_PATH = Path(__file__).parent / "data" / "golden" / "report_fuzz.json"

CASE_COUNT = 600

KINDS = ("drop", "swap", "truncate", "status", "location", "unknown_key")

# One sample per JSON type a value can be swapped to (booleans are ints).
_SAMPLES = ("x", 5, [], {}, None)


def base_documents() -> list[dict]:
    ok = report_doc(sha_for(1), matches=[
        make_match("drm"),
        make_match("keystore", location="inmain", package="com.app.main"),
        make_match("biometrics", location="obfuscated", package="a.b"),
        make_match("bouncycastle", package="org.bouncycastle.crypto"),
    ], crypto=("bouncycastle", "java_security"), native=("openssl", "sodium"))
    return [ok, report_doc(sha_for(2)),
            report_doc(sha_for(3), status="error"),
            report_doc(sha_for(4), status="timeout")]


def _paths(value, prefix=()):
    """The key path of `value` and of everything inside it."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    """`doc` with the value at `path` replaced (the root too)."""
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def mutate(rng: random.Random, kind: str, doc):
    paths = list(_paths(doc))
    if kind == "drop":
        path = rng.choice([p for p in paths if p and isinstance(p[-1], str)])
        del _get(doc, path[:-1])[path[-1]]
    elif kind == "swap":
        path = rng.choice(paths)
        current = _get(doc, path)
        doc = _replace(doc, path, copy.deepcopy(rng.choice(
            [s for s in _SAMPLES if type(s) is not type(current)])))
    elif kind == "truncate":
        path = rng.choice([p for p in paths
                           if isinstance(_get(doc, p), list) and _get(doc, p)])
        target = _get(doc, path)
        del target[rng.randrange(len(target)):]
    elif kind == "status":
        doc["meta"]["status"] = rng.choice(("done", "OK", "failed", ""))
    elif kind == "location":
        match = rng.choice(doc["matches"])
        match["location"] = rng.choice(("elsewhere", "INLIB", ""))
    else:
        path = rng.choice([p for p in paths if isinstance(_get(doc, p), dict)])
        _get(doc, path)["x_" + rng.choice(("note", "extra", "v2"))] = \
            copy.deepcopy(rng.choice(_SAMPLES))
    return doc


def mutation_cases() -> list[tuple[str, dict, object]]:
    """(kind, base document, mutated document) for every case, in order.
    Kinds take turns. The ok base with matches, the only one with non-empty
    lists and so the only one `location` and `truncate` can change, is drawn
    four times as often as each other base."""
    bases = base_documents()
    rng = random.Random(2024)
    cases = []
    for i in range(CASE_COUNT):
        kind = KINDS[i % len(KINDS)]
        base = (bases[0] if kind in ("location", "truncate")
                else rng.choices(bases, weights=(4, 1, 1, 1))[0])
        cases.append((kind, base, mutate(rng, kind, copy.deepcopy(base))))
    return cases


def case_path(report_dir: Path, index: int) -> Path:
    """Where case `index` is written: a sha-shaped name, distinct per case."""
    return Path(report_dir) / f"{sha_for(index)}.json"


def write_case(report_dir: Path, index: int, doc) -> Path:
    path = case_path(report_dir, index)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def outcome(path: Path) -> str:
    """`record <digest>` of every record field, in field order, or
    `refused <reason>` with the path prefix removed."""
    try:
        record = read_record(path)
    except MalformedReportError as exc:
        prefix = f"{path}: "
        text = str(exc)
        assert text.startswith(prefix), text
        return "refused " + text[len(prefix):]
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"),
                      default=sorted).encode("utf-8")   # frozensets sorted
    return "record " + hashlib.sha256(blob).hexdigest()[:16]


def outcomes(report_dir: Path) -> list[str]:
    return [outcome(write_case(report_dir, i, doc))
            for i, (_, _, doc) in enumerate(mutation_cases())]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        lines = [json.dumps(item) for item in outcomes(Path(scratch))]
    GOLDEN_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
