"""Seeded malformed-DEX inputs and their recorded `parse_dex` outcomes.

The golden file `data/golden/dex_fuzz.json` holds, for every input below,
what `parse_dex` gave when it was recorded: a digest of the parsed unit, or
the exact `MalformedDexError` message (run-length encoded, in input order).
A parser rewrite must reproduce each outcome, including which error a
doubly broken input reports first.

Regenerate (only when a parser change is meant to alter outcomes) with

    PYTHONPATH=src:tests python tests/dexfuzz.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import struct
from pathlib import Path

from analytika.dex import parse_dex
from analytika.errors import MalformedDexError

from conftest import random_plan
from dexbuild import build_fixture_dex

GOLDEN_PATH = Path(__file__).parent / "data" / "golden" / "dex_fuzz.json"

FLIP_COUNT = 400


def flip_cases() -> list[bytes]:
    """The byte-flip set of `test_byte_flip_fuzz_never_crashes`."""
    base = build_fixture_dex(random_plan(random.Random(77), max_classes=8))
    rng = random.Random(4242)
    cases = []
    for _ in range(FLIP_COUNT):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        cases.append(bytes(mutated))
    return cases


def _multi_class_fixture() -> bytes:
    return build_fixture_dex(random_plan(random.Random(38), max_classes=6,
                                         max_targets=5))


def truncation_cases() -> list[bytes]:
    """Every prefix of a multi-class fixture. Once the header fields are
    present, the declared file size is set to the prefix length and the map
    offset (only bounds-checked, and the map sits last) to 0, so the cut
    reaches the pool, string, class_data and code bounds checks and not
    just the header's."""
    base = _multi_class_fixture()
    cases = []
    for cut in range(len(base)):
        data = bytearray(base[:cut])
        if cut >= 56:
            struct.pack_into("<I", data, 32, cut)
            struct.pack_into("<I", data, 52, 0)
        cases.append(bytes(data))
    return cases


def class_data_flip_cases() -> list[bytes]:
    """One to three bytes changed inside the code and class_data items of a
    multi-class fixture (everything from the first code item to the map)."""
    base = _multi_class_fixture()
    map_off = struct.unpack_from("<I", base, 52)[0]
    items = struct.unpack_from("<I", base, map_off)[0]
    first_code = next(off for kind, _, _, off in struct.iter_unpack(
        "<2H2I", base[map_off + 4:map_off + 4 + 12 * items])
        if kind == 0x2001)
    rng = random.Random(9090)
    cases = []
    for _ in range(FLIP_COUNT):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(first_code, map_off)] = \
                rng.randrange(256)
        cases.append(bytes(mutated))
    return cases


def outcome(data: bytes) -> str:
    """`unit <digest>` of every field of the parsed unit, in field order,
    or `error <message>`."""
    try:
        unit = parse_dex(data)
    except MalformedDexError as exc:
        return f"error {exc}"
    values = [getattr(unit, f.name) for f in dataclasses.fields(unit)]
    blob = json.dumps(values, separators=(",", ":"),
                      default=list).encode("utf-8")     # arrays as lists
    return "unit " + hashlib.sha256(blob).hexdigest()[:16]


def runs(items: list[str]) -> list[list]:
    """`[item, count]` for each run of equal neighbours, in order."""
    out: list[list] = []
    for item in items:
        if out and out[-1][0] == item:
            out[-1][1] += 1
        else:
            out.append([item, 1])
    return out


def outcomes() -> dict[str, list[list]]:
    """Run-length outcomes of each input set, in input order."""
    return {"flip": runs([outcome(d) for d in flip_cases()]),
            "truncate": runs([outcome(d) for d in truncation_cases()]),
            "class_data_flip": runs([outcome(d)
                                     for d in class_data_flip_cases()])}


if __name__ == "__main__":
    sets = [f'"{name}": [\n' + ",\n".join(json.dumps(run) for run in set_runs)
            + "\n]" for name, set_runs in outcomes().items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sets) + "\n}\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
