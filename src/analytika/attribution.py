"""Attribute matches to the main app, an embedded library, or obfuscation.

Bytecode paths follow the platform package naming convention, so the
package of the calling class decides where a match lives. Shrinker-shortened
packages (all segments one or two characters) default to the main app, a
policy that can be switched off; packages that break application-ID rules
without looking shrunken form the obfuscated group.
"""

from __future__ import annotations

import re
from collections.abc import Container

from .defaults import read_list

PackageName = tuple[str, ...]

LOCATION_INMAIN = "inmain"
LOCATION_INLIB = "inlib"
LOCATION_OBFUSCATED = "obfuscated"

_SEGMENT = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

_NORMALIZE_DEPTH = 4


def parse_package(dotted: str) -> PackageName:
    return tuple(dotted.split(".")) if dotted else ()


def render_package(pkg: PackageName) -> str:
    return ".".join(pkg)


def package_of_class(class_name: str) -> PackageName:
    """Everything up to the simple class name; default package gives ()."""
    if not class_name:
        raise ValueError("empty class name")
    return tuple(class_name.split(".")[:-1])


def is_valid_application_id(pkg: PackageName) -> bool:
    """At least two segments, each a letter followed by [A-Za-z0-9_]."""
    return len(pkg) >= 2 and all(_SEGMENT.match(seg) for seg in pkg)


def is_proguard_shaped(pkg: PackageName) -> bool:
    return bool(pkg) and all(len(seg) <= 2 for seg in pkg)


def is_subpackage(child: PackageName, parent: PackageName) -> bool:
    """Whole-segment prefix test: com.packageX is not under com.package."""
    return len(child) > len(parent) and child[:len(parent)] == parent


def compare_package_names(expected: str | None, actual: str) -> str:
    """unchecked, match, prefix (one under the other) or mismatch."""
    if not expected:
        return "unchecked"
    left, right = parse_package(expected), parse_package(actual)
    if left == right:
        return "match"
    if is_subpackage(left, right) or is_subpackage(right, left):
        return "prefix"
    return "mismatch"


def classify_location(app_pkg: PackageName, match_pkg: PackageName, *,
                      proguard_as_main: bool = True) -> str:
    """Decide inmain / inlib / obfuscated for one match package.

    Order: the app's own package tree wins; then shrinker-shaped packages go
    to the main app (policy-controlled); then invalid application IDs are
    obfuscated; everything else is a third-party library.
    """
    if not app_pkg:
        raise ValueError("app package must be non-empty")
    if match_pkg == app_pkg or is_subpackage(match_pkg, app_pkg):
        return LOCATION_INMAIN
    if not match_pkg:
        return LOCATION_OBFUSCATED
    if proguard_as_main and is_proguard_shaped(match_pkg):
        return LOCATION_INMAIN
    if not is_valid_application_id(match_pkg):
        return LOCATION_OBFUSCATED
    return LOCATION_INLIB


def normalize_library(match_pkg: PackageName,
                      known_prefixes: Container[PackageName]) -> str:
    """Grouping key for library rankings.

    The longest known prefix wins; unknown packages are truncated to their
    first four segments. Idempotent: normalizing a normalized name returns
    it unchanged.
    """
    for n in range(len(match_pkg), 0, -1):
        if match_pkg[:n] in known_prefixes:
            return render_package(match_pkg[:n])
    return render_package(match_pkg[:_NORMALIZE_DEPTH])


def load_known_prefixes(path) -> frozenset[PackageName]:
    """Read one dotted prefix per line; # starts a comment."""
    return frozenset(parse_package(line) for line in read_list(path))
