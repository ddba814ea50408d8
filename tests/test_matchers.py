from __future__ import annotations

import random
import struct

import pytest

from analytika.dex import parse_dex
from analytika.errors import PatternParseError
from analytika.matchers import (
    NativeLibPattern,
    _prefix_match,
    load_native_pattern_file,
    load_pattern_file,
    match_crypto_packages,
    match_native_libs,
    match_tee_apis,
)
from analytika.pipeline import load_patterns

from conftest import (
    CIPHER_INIT_OVERLOADS,
    PLANTED_EXPECTED,
    PLANTED_PLAN,
    UNREFERENCED_PATTERN_STRING,
    invokes,
)
from dexbuild import build_fixture_dex


@pytest.fixture(scope="module")
def patterns():
    return load_patterns()


def _unit(target_class, method):
    """A parsed unit whose only invoke calls target_class.method."""
    return parse_dex(build_fixture_dex(
        [("com.app.Main", [(target_class, method)])]))


def test_load_pattern_file_rows(tmp_path, patterns):
    path = tmp_path / "p.csv"
    path.write_text(
        "# comment\n"
        "keystore,tee_api,android.security.keystore.KeyGenParameterSpec,build\n"
        "keystore,tee_api,android.security.keystore.KeyGenParameterSpec,build\n"
        "tinklib,crypto_software,com.google.crypto.tink,*\n")
    sets = load_pattern_file(path)
    assert len(sets) == 2
    keystore = next(s for s in sets if s.detector_id == "keystore")
    assert keystore.method_patterns == (
        ("android.security.keystore.KeyGenParameterSpec", "build"),)


def test_load_pattern_file_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_pattern_file(path) == []


def test_load_pattern_file_bad_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("keystore,tee_api\n")
    with pytest.raises(PatternParseError):
        load_pattern_file(path)


def test_load_native_pattern_file(tmp_path):
    path = tmp_path / "native.csv"
    path.write_text("# c\nopenssl,libssl\nopenssl,libcrypto\n")
    loaded = load_native_pattern_file(path)
    assert [(p.library, p.stem) for p in loaded] == [
        ("openssl", "libssl"), ("openssl", "libcrypto")]
    path.write_text("broken\n")
    with pytest.raises(PatternParseError):
        load_native_pattern_file(path)


def test_media_drm_invocation_matches_drm(patterns):
    records = match_tee_apis(_unit("android.media.MediaDrm", "openSession"),
                             patterns.tee_sets)
    assert [r.detector_id for r in records] == ["drm"]
    assert records[0].target_method == "openSession"


def test_method_list_gates_matches(patterns):
    records = match_tee_apis(
        _unit("android.security.keystore.KeyGenParameterSpec", "toString"),
        patterns.tee_sets)
    assert records == []


def test_inner_class_matches_outer_pattern(patterns):
    # MediaDrm rows cover the outer class only; an inner class invocation
    # still belongs to the same detector.
    records = match_tee_apis(
        _unit("android.media.MediaDrm$SessionThing", "openSession"),
        patterns.tee_sets)
    assert [r.detector_id for r in records] == ["drm"]


def test_prefix_lookalike_class_does_not_match(patterns):
    records = match_tee_apis(
        _unit("android.media.MediaDrmX", "openSession"), patterns.tee_sets)
    assert records == []


def test_planted_fixture_yields_exactly_expected_records(patterns):
    unit = parse_dex(build_fixture_dex(
        PLANTED_PLAN, extra_strings=(UNREFERENCED_PATTERN_STRING,)))
    records = match_tee_apis(unit, patterns.tee_sets)
    assert len(records) == 6
    assert {(r.detector_id, r.target_class, r.target_method)
            for r in records} == PLANTED_EXPECTED


def test_unreferenced_pattern_class_never_matches(patterns):
    # The class name sits in the string pool but is never invoked; a naive
    # string scan would flag it, the invocation matcher must not.
    unit = parse_dex(build_fixture_dex(
        [("com.app.Main", [("java.lang.String", "valueOf")])],
        extra_strings=("Landroid/media/MediaDrm;",)))
    assert "Landroid/media/MediaDrm;" in unit.strings
    records = match_tee_apis(unit, patterns.tee_sets)
    assert records == []


def test_string_scan_oracle_agreement(patterns):
    # Detector sets agree with a naive string-pool scan except for classes
    # that are present but never invoked.
    unit = parse_dex(build_fixture_dex(
        PLANTED_PLAN, extra_strings=("Landroid/drm/DrmStore;",)))
    records = match_tee_apis(unit, patterns.tee_sets)
    matched = {r.detector_id for r in records}

    scanned = set()
    for pattern_set in patterns.tee_sets:
        for cls in pattern_set.class_prefixes:
            descriptor_stem = "L" + cls.replace(".", "/")
            if any(s.startswith(descriptor_stem) for s in unit.strings):
                scanned.add(pattern_set.detector_id)
    assert matched <= scanned
    # DrmStore is a drm pattern class, but drm is matched via MediaDrm
    # anyway; the intentional exclusion shows at class level:
    assert "android.drm.DrmStore" not in {r.target_class for r in records}


def test_crypto_package_reference_matches(patterns):
    unit = parse_dex(build_fixture_dex(
        [("com.app.Main", [("org.bouncycastle.crypto.Digest", "update")])]))
    records = match_crypto_packages(unit, patterns.crypto_sets)
    assert {r.detector_id for r in records} == {"bouncycastle"}
    by_caller = [r for r in records if r.caller_class]
    assert by_caller and by_caller[0].caller_class == "com.app.Main"


def test_crypto_prefix_requires_package_boundary(patterns):
    unit = parse_dex(build_fixture_dex(
        [("com.app.Main", [("org.bouncycastleX.foo.Digest", "update")])]))
    assert match_crypto_packages(unit, patterns.crypto_sets) == []


def test_two_libraries_detected(patterns):
    unit = parse_dex(build_fixture_dex([
        ("com.app.Main", [("com.google.crypto.tink.Aead", "encrypt"),
                          ("androidx.security.crypto.MasterKey", "getDefault")]),
    ]))
    records = match_crypto_packages(unit, patterns.crypto_sets)
    assert {r.detector_id for r in records} == {"google_tink", "jetpack_security"}


def test_same_shorty_overloads_give_one_record_per_invocation(patterns):
    unit = parse_dex(build_fixture_dex(
        [("com.app.Main", CIPHER_INIT_OVERLOADS)]))
    records = match_crypto_packages(unit, patterns.crypto_sets)
    assert len(records) == 2
    assert {r.code_offset for r in records} == {
        inv.code_offset for inv in invokes(unit)}
    assert {r.caller_class for r in records} == {"com.app.Main"}


def test_uninvoked_crypto_reference_counts_at_app_scope(patterns):
    # A class defined inside a crypto package references its own method in
    # the pool without any invocation targeting it.
    unit = parse_dex(build_fixture_dex([("org.jasypt.Util", [])]))
    records = match_crypto_packages(unit, patterns.crypto_sets)
    assert len(records) == 1
    record = records[0]
    assert record.detector_id == "jasypt"
    assert record.caller_class == ""
    assert record.code_offset >= unit.header.method_ids_off


def test_native_lib_variants():
    patterns = [NativeLibPattern("openssl", "libcrypto")]
    assert match_native_libs(["lib/arm64/libcrypto.so.1.1"], patterns) == [
        ("openssl", "lib/arm64/libcrypto.so.1.1")]
    lib_a = [NativeLibPattern("liba", "libraryA")]
    assert match_native_libs(
        ["lib/x86/libraryA_10.2.3.so", "lib/x86/libraryA.so.1.2"], lib_a) == [
        ("liba", "lib/x86/libraryA_10.2.3.so"),
        ("liba", "lib/x86/libraryA.so.1.2")]


def test_native_lib_rejects_near_misses():
    patterns = [NativeLibPattern("sodium", "libsodium")]
    assert match_native_libs(["lib/x86/libsodiumjni-wrapper.txt"], patterns) == []
    assert match_native_libs(["lib/x86/libsodiumx.so"], patterns) == []
    assert match_native_libs(["lib/x86/libsodium"], patterns) == []


def test_native_lib_case_insensitive():
    patterns = [NativeLibPattern("openssl", "libssl")]
    assert match_native_libs(["lib/x86/LIBSSL.SO"], patterns) == [
        ("openssl", "lib/x86/LIBSSL.SO")]


def test_records_never_fall_outside_loaded_patterns(patterns, smoke_corpus):
    import io
    import zipfile

    def satisfied_by_rows(record):
        for pattern_set in patterns.tee_sets:
            if pattern_set.detector_id != record.detector_id:
                continue
            for cls, method in pattern_set.method_patterns:
                class_ok = (record.target_class == cls
                            or record.target_class.startswith(cls + "$"))
                if class_ok and method in ("*", record.target_method):
                    return True
        return False

    def under_crypto_prefix(record):
        for pattern_set in patterns.crypto_sets:
            if pattern_set.detector_id != record.detector_id:
                continue
            for prefix in pattern_set.class_prefixes:
                if record.target_class == prefix \
                        or record.target_class.startswith(prefix + "."):
                    return True
        return False

    for _package, apk in smoke_corpus:
        zf = zipfile.ZipFile(io.BytesIO(apk))
        for name in zf.namelist():
            if not name.endswith(".dex"):
                continue
            unit = parse_dex(zf.read(name), name)
            for record in match_tee_apis(unit, patterns.tee_sets):
                assert satisfied_by_rows(record), record
            for record in match_crypto_packages(unit, patterns.crypto_sets):
                assert under_crypto_prefix(record), record


def test_record_ordering_is_stable(patterns):
    unit = parse_dex(build_fixture_dex(PLANTED_PLAN))
    records = match_tee_apis(unit, patterns.tee_sets)
    offsets = [(r.dex_file, r.code_offset) for r in records]
    assert offsets == sorted(offsets)


def test_class_def_without_data_keeps_caller_attribution(patterns):
    # A class_def with class_data_off == 0 holds no code, but it still has
    # a class_def index, so callers after it must map past it.
    data = bytearray(build_fixture_dex([
        ("com.app.Empty", [("java.lang.String", "valueOf")]),
        ("com.app.Caller", [("android.media.MediaDrm", "openSession")]),
    ]))
    header = parse_dex(bytes(data)).header
    struct.pack_into("<I", data, header.class_defs_off + 24, 0)
    unit = parse_dex(bytes(data))
    assert unit.class_names == ("com.app.Empty", "com.app.Caller")
    records = match_tee_apis(unit, patterns.tee_sets)
    assert [(r.detector_id, r.caller_class) for r in records] == [
        ("drm", "com.app.Caller")]


# Crypto classes with inner classes, and near misses that share a prefix
# string but not a package boundary.
_CRYPTO_PARITY_CLASSES = (
    "org.bouncycastle.crypto.Digest", "org.bouncycastle.crypto.Digest$Inner",
    "org.bouncycastle.jce.Provider", "org.bouncycastleX.crypto.Digest",
    "org.bouncycastle.cryptoX.Digest", "javax.crypto.Cipher",
    "javax.crypto.Cipher$Spec", "javax.cryptography.Cipher",
    "org.jasypt.Util", "org.jasypt.Util$Inner", "org.jasyptX.Util",
    "com.google.crypto.tink.Aead", "com.google.crypto.tinkX.Aead",
    "java.security.KeyStore", "java.securityX.KeyStore", "a.b.C",
)


def _crypto_oracle(unit, sets):
    """Record tuples from _prefix_match run on every pool entry."""
    def detectors(ref):
        return sorted({s.detector_id for s in sets for prefix in s.class_prefixes
                       if _prefix_match(ref.defining_class, prefix)})

    rows = []
    invoked = set()
    for row in invokes(unit):
        invoked.add(row.target)
        rows += [(det, row.target.defining_class, row.target.method_name,
                  row.caller_class, row.code_offset)
                 for det in detectors(row.target)]
    for i, ref in enumerate(unit.methods):
        if ref not in invoked:
            rows += [(det, ref.defining_class, ref.method_name, "",
                      unit.header.method_ids_off + 8 * i)
                     for det in detectors(ref)]
    return sorted(rows, key=lambda r: (r[4], r[0]))


def test_crypto_matching_agrees_with_per_entry_oracle(patterns):
    rng = random.Random(2024)
    for _ in range(40):
        plan = []
        for c in range(rng.randint(1, 8)):
            caller = rng.choice(_CRYPTO_PARITY_CLASSES[:3] + ("com.app.Main",))
            plan.append((f"{caller}{c}", [
                (rng.choice(_CRYPTO_PARITY_CLASSES), f"m{rng.randint(0, 4)}")
                for _ in range(rng.randint(0, 8))]))
        unit = parse_dex(build_fixture_dex(plan))
        records = match_crypto_packages(unit, patterns.crypto_sets)
        assert {r.dex_file for r in records} <= {unit.entry_name}
        assert [(r.detector_id, r.target_class, r.target_method,
                 r.caller_class, r.code_offset)
                for r in records] == _crypto_oracle(unit,
                                                     patterns.crypto_sets)
