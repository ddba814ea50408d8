"""Detector pattern sets and matching over parsed bytecode.

Two matching styles exist. Hardware-backed API detectors fire on actual
invocations only, so that merely shipping a class name can never produce a
match. Crypto library detectors fire on any method reference whose defining
class sits under a known package prefix, because a library is "used" as
soon as its classes are referenced.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import defaults
from .errors import PatternParseError

if TYPE_CHECKING:
    from .dex import DexUnit

KIND_TEE_API = "tee_api"
KIND_CRYPTO_SOFTWARE = "crypto_software"

TEE_DETECTORS = ("keystore", "drm", "biometrics", "protected_confirmation")

WILDCARD = "*"


@dataclass(frozen=True)
class PatternSet:
    """One detector: class prefixes plus (class, method) rows."""

    detector_id: str
    kind: str
    class_prefixes: tuple[str, ...]
    method_patterns: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.class_prefixes:
            raise PatternParseError(
                f"detector {self.detector_id!r} has no class patterns")
        if self.kind == KIND_TEE_API and not self.method_patterns:
            raise PatternParseError(
                f"detector {self.detector_id!r} needs method patterns")


@dataclass(frozen=True)
class NativeLibPattern:
    library: str
    stem: str

    def __post_init__(self):
        if not self.stem or "/" in self.stem or "\\" in self.stem:
            raise PatternParseError(f"bad native stem: {self.stem!r}")


@dataclass
class MatchRecord:
    """One detection; location and package are filled in by attribution."""

    detector_id: str
    target_class: str
    target_method: str
    caller_class: str
    dex_file: str
    code_offset: int
    location: str = ""
    attributed_package: str = ""


# The order of matches in a report: by DEX file, code offset, then detector.
MATCH_ORDER = attrgetter("dex_file", "code_offset", "detector_id")


def _pattern_rows(path: Path) -> list[list[str]]:
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            rows.append([cell.strip() for cell in row] + [str(line_no)])
    return rows


def load_pattern_file(path) -> list[PatternSet]:
    """Parse a bytecode pattern CSV: detector,kind,class_or_prefix,method."""
    grouped: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for *cells, line_no in _pattern_rows(Path(path)):
        if len(cells) != 4:
            raise PatternParseError(
                f"{path}:{line_no}: expected 4 columns, got {len(cells)}")
        detector, kind, cls, method = cells
        if kind not in (KIND_TEE_API, KIND_CRYPTO_SOFTWARE):
            raise PatternParseError(f"{path}:{line_no}: unknown kind {kind!r}")
        if not detector or not cls or not method:
            raise PatternParseError(f"{path}:{line_no}: empty pattern field")
        grouped.setdefault((detector, kind), []).append((cls, method))

    sets = []
    for (detector, kind), rows in grouped.items():
        deduped = list(dict.fromkeys(rows))
        classes = tuple(dict.fromkeys(cls for cls, _ in deduped))
        if kind == KIND_TEE_API:
            sets.append(PatternSet(detector, kind, classes, tuple(deduped)))
        else:
            sets.append(PatternSet(detector, kind, classes))
    return sets


def load_native_pattern_file(path) -> list[NativeLibPattern]:
    """Parse a native pattern CSV: library,stem."""
    patterns = []
    for *cells, line_no in _pattern_rows(Path(path)):
        if len(cells) != 2:
            raise PatternParseError(
                f"{path}:{line_no}: expected 2 columns, got {len(cells)}")
        library, stem = cells
        if not library:
            raise PatternParseError(f"{path}:{line_no}: empty library name")
        patterns.append(NativeLibPattern(library, stem))
    return patterns


@dataclass(frozen=True)
class LoadedPatterns:
    tee_sets: tuple
    crypto_sets: tuple
    native_patterns: tuple


def load_patterns(pattern_dir=None) -> LoadedPatterns:
    """Both pattern files of `pattern_dir`, or the shipped ones."""
    if pattern_dir is None:
        bytecode = defaults.default_bytecode_patterns_path()
        native = defaults.default_native_patterns_path()
    else:
        pattern_dir = Path(pattern_dir)
        bytecode = pattern_dir / "bytecode_patterns.csv"
        native = pattern_dir / "native_patterns.csv"
    sets = load_pattern_file(bytecode)
    return LoadedPatterns(
        tee_sets=tuple(s for s in sets if s.kind == KIND_TEE_API),
        crypto_sets=tuple(s for s in sets if s.kind == KIND_CRYPTO_SOFTWARE),
        native_patterns=tuple(load_native_pattern_file(native)))


def _enclosing(name: str, sep: str):
    """`name` and every name enclosing it along `sep`, innermost first."""
    while True:
        yield name
        cut = name.rfind(sep)
        if cut < 0:
            return
        name = name[:cut]


def _rows_by_class(unit: DexUnit, index: dict, sep: str) -> dict[str, list]:
    """For each defining class in the method pool, the index rows of the
    class and of every name enclosing it along `sep`."""
    return {cls: [row for name in _enclosing(cls, sep)
                  for row in index.get(name, ())]
            for cls in {ref.defining_class for ref in unit.methods}}


def match_tee_apis(unit: DexUnit, sets) -> list[MatchRecord]:
    """Match a unit's invokes against invocation-level API detectors.

    A record is produced only when the invoked method hits a (class, method)
    row; a pattern class matches itself and its inner classes, found by
    looking up each enclosing class along `$`. Class references that are
    never invoked do not match. Each defining class is resolved once and
    each method-pool entry once, whatever its number of invokes.
    """
    index: dict[str, list[tuple[str, str]]] = {}
    for pattern_set in sets:
        if pattern_set.kind != KIND_TEE_API:
            raise ValueError(f"not an API pattern set: {pattern_set.detector_id}")
        for cls, method in pattern_set.method_patterns:
            index.setdefault(cls, []).append((pattern_set.detector_id, method))

    by_class = _rows_by_class(unit, index, "$")
    hits = []
    for ref in unit.methods:
        rows = by_class[ref.defining_class]
        hits.append(sorted({detector for detector, method in rows
                            if method in (WILDCARD, ref.method_name)})
                    if rows else [])
    return _emit_records(unit, hits, uninvoked=False)


def match_crypto_packages(unit: DexUnit, sets) -> list[MatchRecord]:
    """Match the method pool against package-prefix crypto detectors.

    Every method reference under a detector prefix produces a record; when
    the reference is actually invoked the record carries the caller, one
    record per invocation. Uninvoked references carry an empty caller (and
    point at the method pool slot) so they only count at app scope. A class
    sits under a prefix when the prefix is the class itself or one of its
    enclosing packages along `.`; each defining class is resolved once.
    """
    index: dict[str, list[str]] = {}
    for pattern_set in sets:
        if pattern_set.kind != KIND_CRYPTO_SOFTWARE:
            raise ValueError(f"not a crypto pattern set: {pattern_set.detector_id}")
        for prefix in pattern_set.class_prefixes:
            index.setdefault(prefix, []).append(pattern_set.detector_id)

    by_class = {cls: sorted(set(detectors)) for cls, detectors
                in _rows_by_class(unit, index, ".").items()}
    return _emit_records(unit, [by_class[ref.defining_class]
                                for ref in unit.methods], uninvoked=True)


def _emit_records(unit: DexUnit, hits: list[list[str]],
                  uninvoked: bool) -> list[MatchRecord]:
    """Records for the detectors hit by each method-pool entry.

    `hits[i]` lists the sorted detectors of pool entry i. Each invoke of a
    hit entry gives one record per detector; with `uninvoked`, a hit entry
    that is never invoked gives one record per detector at its pool slot.
    """
    callers, offsets = unit.invoke_callers, unit.invoke_offsets
    sites = [(unit.class_names[callers[k]], method_idx, offsets[k])
             for k, method_idx in enumerate(unit.invoke_methods)
             if hits[method_idx]]
    if uninvoked:
        invoked = {method_idx for _, method_idx, _ in sites}
        sites += [("", i, unit.method_ids_off + 8 * i)
                  for i, detectors in enumerate(hits)
                  if detectors and i not in invoked]
    records = [MatchRecord(detector_id=detector,
                           target_class=unit.methods[method_idx].defining_class,
                           target_method=unit.methods[method_idx].method_name,
                           caller_class=caller,
                           dex_file=unit.entry_name,
                           code_offset=offset)
               for caller, method_idx, offset in sites
               for detector in hits[method_idx]]
    records.sort(key=MATCH_ORDER)
    return records


def match_native_libs(filenames, patterns) -> list[tuple[str, str]]:
    """Match shared-object filenames against native library stems.

    The basename must start with the stem, the stem boundary must be one of
    end / "." / "_" / "-", and ".so" must appear after the stem (catching
    versioned suffixes like name_1.2.3.so and name.so.1.2). Case-insensitive.
    """
    out = []
    for filename in filenames:
        base = filename.rsplit("/", 1)[-1].lower()
        for pattern in patterns:
            stem = pattern.stem.lower()
            if not base.startswith(stem):
                continue
            rest = base[len(stem):]
            if rest and rest[0] in "._-" and ".so" in rest:
                out.append((pattern.library, filename))
    return out
