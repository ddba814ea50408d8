"""Detector pattern sets and matching over parsed bytecode.

Two matching styles exist. Hardware-backed API detectors fire on actual
invocations only, so that merely shipping a class name can never produce a
match. Crypto library detectors fire on any method reference whose defining
class sits under a known package prefix, because a library is "used" as
soon as its classes are referenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

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
    """One detector: its distinct (class or prefix, method) rows."""

    detector_id: str
    kind: str
    rows: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class NativeLibPattern:
    library: str
    stem: str

    def __post_init__(self):
        if not self.stem or "/" in self.stem or "\\" in self.stem:
            raise PatternParseError(f"bad native stem: {self.stem!r}")


class MatchRecord(NamedTuple):
    """One detection, its fields named as a report's match keys; attribution
    gives a copy with location and package set."""

    detector: str
    target_class: str
    target_method: str
    caller_class: str
    dex_file: str
    code_offset: int
    location: str = ""
    package: str = ""


# The order of matches in a report: by DEX file, code offset, then detector.
MATCH_ORDER = attrgetter("dex_file", "code_offset", "detector")

_DEFINING_CLASS = attrgetter("defining_class")


def load_pattern_file(path) -> list[PatternSet]:
    """Parse a bytecode pattern CSV: detector,kind,class_or_prefix,method."""
    grouped: dict[tuple[str, str], dict[tuple[str, str], None]] = {}
    for line_no, cells in defaults.read_rows(path):
        if len(cells) != 4:
            raise PatternParseError(
                f"{path}:{line_no}: expected 4 columns, got {len(cells)}")
        if any(brk in cell for cell in cells for brk in "\r\n"):
            raise PatternParseError(
                f"{path}:{line_no}: a cell holds a line break")
        detector, kind, cls, method = cells
        if kind not in (KIND_TEE_API, KIND_CRYPTO_SOFTWARE):
            raise PatternParseError(f"{path}:{line_no}: unknown kind {kind!r}")
        if not detector or not cls or not method:
            raise PatternParseError(f"{path}:{line_no}: empty pattern field")
        if (kind == KIND_TEE_API) != (detector in TEE_DETECTORS):
            raise PatternParseError(
                f"{path}:{line_no}: detector {detector!r} cannot be {kind}")
        if kind == KIND_CRYPTO_SOFTWARE and method != WILDCARD:
            raise PatternParseError(
                f"{path}:{line_no}: a crypto_software row matches every "
                f"method, so its method must be {WILDCARD}")
        grouped.setdefault((detector, kind), {})[cls, method] = None
    return [PatternSet(detector, kind, tuple(rows))
            for (detector, kind), rows in grouped.items()]


def load_native_pattern_file(path) -> list[NativeLibPattern]:
    """Parse a native pattern CSV: library,stem."""
    patterns = []
    for line_no, cells in defaults.read_rows(path):
        if len(cells) != 2:
            raise PatternParseError(
                f"{path}:{line_no}: expected 2 columns, got {len(cells)}")
        library, stem = cells
        if not library:
            raise PatternParseError(f"{path}:{line_no}: empty library name")
        try:
            patterns.append(NativeLibPattern(library, stem))
        except PatternParseError as exc:
            raise PatternParseError(f"{path}:{line_no}: {exc}") from None
    return patterns


class PatternIndex(NamedTuple):
    """The bytecode detectors keyed for lookup by class or package name."""

    tee: dict[str, list[tuple[str, str]]]    # class -> (detector, method)
    crypto: dict[str, list[str]]             # class or package -> detectors


def index_patterns(sets) -> PatternIndex:
    """Key each set's rows by its own kind: an API detector's by class,
    a crypto detector's by class or package."""
    index = PatternIndex({}, {})
    for pattern_set in sets:
        detector = pattern_set.detector_id
        for cls, method in pattern_set.rows:
            if pattern_set.kind == KIND_TEE_API:
                index.tee.setdefault(cls, []).append((detector, method))
            elif pattern_set.kind == KIND_CRYPTO_SOFTWARE:
                index.crypto.setdefault(cls, []).append(detector)
    return index


@dataclass(frozen=True)
class LoadedPatterns:
    tee_sets: tuple
    crypto_sets: tuple
    native_patterns: tuple
    index: PatternIndex         # of every bytecode set


def load_patterns(pattern_dir=None) -> LoadedPatterns:
    """Both pattern files of `pattern_dir`, or the shipped ones, with the
    bytecode detectors indexed once for every unit the run matches."""
    pattern_dir = Path(defaults.default_patterns_dir() if pattern_dir is None
                       else pattern_dir)
    sets = load_pattern_file(pattern_dir / "bytecode_patterns.csv")
    return LoadedPatterns(
        tee_sets=tuple(s for s in sets if s.kind == KIND_TEE_API),
        crypto_sets=tuple(s for s in sets if s.kind == KIND_CRYPTO_SOFTWARE),
        native_patterns=tuple(load_native_pattern_file(
            pattern_dir / "native_patterns.csv")),
        index=index_patterns(sets))


def match_tee_apis(unit: DexUnit, sets) -> list[MatchRecord]:
    """Match a unit's invokes against invocation-level API detectors.

    A record is produced only when the invoked method hits a (class, method)
    row; a pattern class matches itself and its inner classes. Class
    references that are never invoked do not match. Crypto sets among
    `sets` add nothing.
    """
    hits = UnitHits(index_patterns(s for s in sets if s.kind == KIND_TEE_API))
    hits(unit.methods)
    return sorted(hits.records(unit), key=MATCH_ORDER)


def match_crypto_packages(unit: DexUnit, sets) -> list[MatchRecord]:
    """Match the method pool against package-prefix crypto detectors.

    Every method reference under a detector prefix produces a record; when
    the reference is actually invoked the record carries the caller, one
    record per invocation. Uninvoked references carry an empty caller (and
    point at the method pool slot) so they only count at app scope. A class
    sits under a prefix when the prefix is the class itself or one of its
    enclosing packages. API sets among `sets` add nothing.
    """
    hits = UnitHits(index_patterns(s for s in sets
                                   if s.kind == KIND_CRYPTO_SOFTWARE))
    hits(unit.methods)
    return sorted(hits.records(unit), key=MATCH_ORDER)


def _resolve(name: str, index: dict, sep: str) -> list:
    """The index rows of `name` and of every name enclosing it along `sep`."""
    rows = []
    while True:
        rows += index.get(name, ())
        cut = name.rfind(sep)
        if cut < 0:
            return rows
        name = name[:cut]


class UnitHits:
    """The hit entries of one unit's method pool, resolved once.

    Called with the pool, it resolves each distinct defining class once for
    both kinds: against the API rows of the class and of each enclosing
    class along `$` (`KeyGenParameterSpec$Builder`, then
    `KeyGenParameterSpec`), and against the crypto prefixes of the class and
    of each enclosing package along `.`. A pool entry of a hit class hits
    the API detectors whose row names its method or `*`, and every crypto
    detector of its class. It returns the indexes of the entries whose
    invokes give records, so it serves as `parse_dex`'s `wanted`.
    """

    def __init__(self, index: PatternIndex):
        # invoked: pool index -> the detectors an invoke of it hits, API
        # then crypto; crypto: the crypto ones, for entries never invoked.
        self.index, self.invoked, self.crypto = index, {}, {}

    def __call__(self, methods) -> Iterable[int]:
        # Every name `_resolve` looks up is a prefix of the class, so a
        # class that starts with no index key hits nothing: most are dropped.
        keys = tuple(self.index.tee.keys() | self.index.crypto.keys())
        classes = set(map(_DEFINING_CLASS, methods))
        tee_by_class: dict[str, list[tuple[str, str]]] = {}
        crypto_by_class: dict[str, set[str]] = {}
        for cls in compress(classes, map(str.startswith, classes,
                                         repeat(keys))):
            rows = _resolve(cls, self.index.tee, "$")
            if rows:
                tee_by_class[cls] = rows
            detectors = _resolve(cls, self.index.crypto, ".")
            if detectors:
                crypto_by_class[cls] = set(detectors)

        hit_classes = tee_by_class.keys() | crypto_by_class.keys()
        for i in compress(count(), map(hit_classes.__contains__,
                                       map(_DEFINING_CLASS, methods))):
            cls, name = methods[i][:2]
            crypto = crypto_by_class.get(cls, ())
            detectors = [*{detector for detector, method
                           in tee_by_class.get(cls, ())
                           if method in (WILDCARD, name)}, *crypto]
            if detectors:
                self.invoked[i] = detectors
            if crypto:
                self.crypto[i] = crypto
        return self.invoked.keys()

    def records(self, unit: DexUnit) -> list[MatchRecord]:
        """The records of `unit`, in no set order: one per detector for each
        invoke of a hit entry, and one per crypto detector, at its
        method-pool slot, for each crypto-hit entry never invoked."""
        hits, targets = self.invoked, unit.invoke_methods
        callers, offsets = unit.invoke_callers, unit.invoke_offsets
        sites = [(unit.class_names[callers[k]], targets[k], offsets[k],
                  hits[targets[k]])
                 for k in compress(count(), map(hits.__contains__, targets))]
        invoked = {i for _, i, _, _ in sites}
        sites += [("", i, unit.method_ids_off + 8 * i, detectors)
                  for i, detectors in self.crypto.items() if i not in invoked]
        return [MatchRecord(detector=detector,
                            target_class=unit.methods[i].defining_class,
                            target_method=unit.methods[i].method_name,
                            caller_class=caller,
                            dex_file=unit.entry_name,
                            code_offset=offset)
                for caller, i, offset, detectors in sites
                for detector in detectors]


def match_native_libs(filenames, patterns) -> list[tuple[str, str]]:
    """Match shared-object filenames against native library stems.

    The basename must start with the stem, the stem boundary must be one of
    "." / "_" / "-", and ".so" must appear after the stem (catching
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
