from __future__ import annotations

import random

import pytest

from analytika.attribution import (
    classify_location,
    is_subpackage,
    is_valid_application_id,
    load_known_prefixes,
    normalize_library,
    package_of_class,
    parse_package,
    render_package,
)
from analytika.defaults import default_known_prefixes_path


def test_package_of_class():
    assert package_of_class("com.example.xyz.Foo") == ("com", "example", "xyz")
    assert package_of_class("Foo") == ()
    assert package_of_class("a.b.C$D") == ("a", "b")


def test_package_of_an_empty_class_name_is_refused():
    with pytest.raises(ValueError) as info:
        package_of_class("")
    assert str(info.value) == "empty class name"


def test_application_id_validity():
    assert is_valid_application_id(parse_package("com.package"))
    assert not is_valid_application_id(parse_package("main"))
    assert not is_valid_application_id(parse_package("com.1abc"))
    assert not is_valid_application_id(parse_package("com.pack-age"))
    assert is_valid_application_id(parse_package("com.oblador.cipherStorage"))


def test_classify_app_prefix():
    app = parse_package("com.package")
    assert classify_location(app, parse_package("com.package.xyz")) == "inmain"
    assert classify_location(app, parse_package("com.package")) == "inmain"
    assert classify_location(app, parse_package("com.packageX")) == "inlib"


def test_classify_library_and_proguard():
    app = parse_package("com.shop.app")
    assert classify_location(app, parse_package("com.appsflyer")) == "inlib"
    assert classify_location(app, parse_package("b.d")) == "inmain"
    assert classify_location(app, parse_package("b.d"),
                             proguard_as_main=False) == "inlib"
    assert classify_location(app, parse_package("a"),
                             proguard_as_main=False) == "obfuscated"


def test_classify_obfuscated():
    app = parse_package("com.shop.app")
    assert classify_location(app, ()) == "obfuscated"
    assert classify_location(app, parse_package("main")) == "obfuscated"
    assert classify_location(app, parse_package("com.3bad.pkg")) == "obfuscated"


def test_classify_requires_app_package():
    with pytest.raises(ValueError):
        classify_location((), parse_package("com.x"))


def test_partition_property():
    rng = random.Random(11)
    app = parse_package("com.brand.app")
    segments = ["com", "brand", "app", "x", "sdk", "b", "d", "1bad", "vendor",
                "Zo", "crypto"]
    for _ in range(500):
        pkg = tuple(rng.choice(segments)
                    for _ in range(rng.randint(0, 5)))
        location = classify_location(app, pkg)
        assert location in ("inmain", "inlib", "obfuscated")


def test_prefix_monotonicity():
    # Anything under an inmain package stays inmain.
    rng = random.Random(13)
    app = parse_package("com.brand.app")
    for _ in range(200):
        depth = rng.randint(0, 3)
        pkg = app + tuple(f"s{rng.randint(0, 9)}" for _ in range(depth))
        assert classify_location(app, pkg) == "inmain"
        deeper = pkg + ("deep",)
        assert classify_location(app, deeper) == "inmain"


def test_subpackage_segment_boundary():
    assert is_subpackage(parse_package("com.package.x"), parse_package("com.package"))
    assert not is_subpackage(parse_package("com.packageX"), parse_package("com.package"))
    assert not is_subpackage(parse_package("com.package"), parse_package("com.package"))


def test_normalize_known_prefix():
    prefixes = [parse_package("com.google.android.exoplayer2.drm"),
                parse_package("androidx.biometric")]
    assert normalize_library(
        parse_package("com.google.android.exoplayer2.drm.internal"),
        prefixes) == "com.google.android.exoplayer2.drm"
    assert normalize_library(parse_package("androidx.biometric"),
                             prefixes) == "androidx.biometric"


def test_normalize_truncation_and_idempotence():
    prefixes = load_known_prefixes(default_known_prefixes_path())
    assert normalize_library(parse_package("com.vendor.sdk.crypto.aes"),
                             prefixes) == "com.vendor.sdk.crypto"
    rng = random.Random(3)
    for _ in range(300):
        pkg = tuple(f"seg{rng.randint(0, 6)}"
                    for _ in range(rng.randint(1, 7)))
        once = normalize_library(pkg, prefixes)
        twice = normalize_library(parse_package(once), prefixes)
        assert once == twice


def test_longest_known_prefix_wins():
    prefixes = [parse_package("com.google.crypto.tink"),
                parse_package("com.google.crypto.tink.integration.android")]
    got = normalize_library(
        parse_package("com.google.crypto.tink.integration.android.AndroidKeysetManager"),
        prefixes)
    assert got == "com.google.crypto.tink.integration.android"


_NORMALIZE_DEPTH = 4


def scanning_normalize_library(match_pkg, known_prefixes) -> str:
    """Reference for `normalize_library`: scan every known prefix and keep
    the longest one that equals the package or contains it at a segment
    boundary; with none, truncate to the first four segments."""
    best = None
    for prefix in known_prefixes:
        if prefix and (match_pkg == prefix or is_subpackage(match_pkg, prefix)):
            if best is None or len(prefix) > len(best):
                best = prefix
    if best is not None:
        return render_package(best)
    return render_package(match_pkg[:_NORMALIZE_DEPTH])


def test_normalize_lookup_matches_scanning_reference():
    rng = random.Random(17)
    segments = ["com", "google", "crypto", "tink", "integration", "android",
                "a", "sdk"]
    nested = [parse_package("com.google.crypto.tink"),
              parse_package("com.google.crypto.tink.integration.android")]
    shipped = list(load_known_prefixes(default_known_prefixes_path()))
    for _ in range(400):
        drawn = [tuple(rng.choice(segments) for _ in range(rng.randint(1, 5)))
                 for _ in range(rng.randint(0, 6))]
        known = (nested + drawn + rng.sample(shipped, 3)
                 + [()] * rng.randint(0, 1))
        base = rng.choice([(), rng.choice(known), rng.choice(shipped)])
        for pkg in (base,
                    base + tuple(rng.choice(segments)
                                 for _ in range(rng.randint(1, 6))),
                    tuple(rng.choice(segments)
                          for _ in range(rng.randint(0, 7)))):
            want = scanning_normalize_library(pkg, known)
            assert normalize_library(pkg, known) == want, pkg
            assert normalize_library(pkg, frozenset(known)) == want, pkg


def test_render_and_parse_inverse():
    for name in ("com.a.b", "x", ""):
        assert render_package(parse_package(name)) == name
