from __future__ import annotations

import random
import struct
from operator import attrgetter

import pytest

from analytika.dex import _parse_header, parse_dex
from analytika.errors import PatternParseError
from analytika.matchers import (
    MATCH_ORDER,
    NativeLibPattern,
    index_patterns,
    load_native_pattern_file,
    load_pattern_file,
    load_patterns,
    match_crypto_packages,
    match_native_libs,
    match_tee_apis,
)

from conftest import (
    CIPHER_INIT_OVERLOADS,
    PLANTED_EXPECTED,
    PLANTED_PLAN,
    UNREFERENCED_PATTERN_STRING,
    invokes,
)
from dexbuild import build_fixture_dex
from dexlister import list_strings


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
    assert keystore.rows == (
        ("android.security.keystore.KeyGenParameterSpec", "build"),)
    tink = next(s for s in sets if s.detector_id == "tinklib")
    assert tink.rows == (("com.google.crypto.tink", "*"),)


def test_load_pattern_file_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_pattern_file(path) == []


def test_load_pattern_file_bad_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("keystore,tee_api\n")
    with pytest.raises(PatternParseError):
        load_pattern_file(path)


@pytest.mark.parametrize("row, reason", [
    ("keystore,tee_apis,a.B,*", "unknown kind 'tee_apis'"),
    ("keystore,tee_api,,*", "empty pattern field"),
    (",crypto_software,com.lib,*", "empty pattern field"),
    ("keystore,tee_api,a.B,", "empty pattern field"),
], ids=["unknown-kind", "empty-class", "empty-detector", "empty-method"])
def test_load_pattern_file_refuses_a_bad_field(tmp_path, row, reason):
    path = tmp_path / "p.csv"
    path.write_text(f"# comment\n{row}\n")
    with pytest.raises(PatternParseError) as info:
        load_pattern_file(path)
    assert str(info.value) == f"{path}:2: {reason}"


def test_load_native_pattern_file_refuses_an_empty_library(tmp_path):
    path = tmp_path / "native.csv"
    path.write_text("openssl,libssl\n,libcrypto\n")
    with pytest.raises(PatternParseError) as info:
        load_native_pattern_file(path)
    assert str(info.value) == f"{path}:2: empty library name"


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
    assert [r.detector for r in records] == ["drm"]
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
    assert [r.detector for r in records] == ["drm"]


def test_prefix_lookalike_class_does_not_match(patterns):
    records = match_tee_apis(
        _unit("android.media.MediaDrmX", "openSession"), patterns.tee_sets)
    assert records == []


def test_planted_fixture_yields_exactly_expected_records(patterns):
    unit = parse_dex(build_fixture_dex(
        PLANTED_PLAN, extra_strings=(UNREFERENCED_PATTERN_STRING,)))
    records = match_tee_apis(unit, patterns.tee_sets)
    assert len(records) == 6
    assert {(r.detector, r.target_class, r.target_method)
            for r in records} == PLANTED_EXPECTED


def test_unreferenced_pattern_class_never_matches(patterns):
    # The class name sits in the string pool but is never invoked; a naive
    # string scan would flag it, the invocation matcher must not.
    data = build_fixture_dex(
        [("com.app.Main", [("java.lang.String", "valueOf")])],
        extra_strings=("Landroid/media/MediaDrm;",))
    assert b"Landroid/media/MediaDrm;" in data
    unit = parse_dex(data)
    records = match_tee_apis(unit, patterns.tee_sets)
    assert records == []


def test_string_scan_oracle_agreement(patterns):
    # Detector sets agree with a naive string-pool scan except for classes
    # that are present but never invoked.
    data = build_fixture_dex(
        PLANTED_PLAN, extra_strings=("Landroid/drm/DrmStore;",))
    records = match_tee_apis(parse_dex(data), patterns.tee_sets)
    matched = {r.detector for r in records}

    strings = list_strings(data)
    scanned = set()
    for pattern_set in patterns.tee_sets:
        for cls, _ in pattern_set.rows:
            descriptor_stem = "L" + cls.replace(".", "/")
            if any(s.startswith(descriptor_stem) for s in strings):
                scanned.add(pattern_set.detector_id)
    assert matched <= scanned
    # DrmStore is a drm pattern class, but drm is matched via MediaDrm
    # anyway; the intentional exclusion shows at class level:
    assert "android.drm.DrmStore" not in {r.target_class for r in records}


def test_crypto_package_reference_matches(patterns):
    unit = parse_dex(build_fixture_dex(
        [("com.app.Main", [("org.bouncycastle.crypto.Digest", "update")])]))
    records = match_crypto_packages(unit, patterns.crypto_sets)
    assert {r.detector for r in records} == {"bouncycastle"}
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
    assert {r.detector for r in records} == {"google_tink", "jetpack_security"}


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
    assert record.detector == "jasypt"
    assert record.caller_class == ""
    assert record.code_offset >= unit.method_ids_off


def test_each_matcher_uses_only_the_sets_of_its_own_kind(patterns):
    unit = parse_dex(build_fixture_dex(PLANTED_PLAN + [
        ("com.app.Crypto", [("org.bouncycastle.crypto.Digest", "update")])]))
    every_set = patterns.tee_sets + patterns.crypto_sets
    tee = match_tee_apis(unit, patterns.tee_sets)
    crypto = match_crypto_packages(unit, patterns.crypto_sets)
    assert len(tee) == 6 and {r.detector for r in crypto} == {"bouncycastle"}
    assert match_tee_apis(unit, every_set) == tee
    assert match_crypto_packages(unit, every_set) == crypto
    assert match_tee_apis(unit, patterns.crypto_sets) == []
    assert match_crypto_packages(unit, patterns.tee_sets) == []
    assert index_patterns(every_set) == patterns.index


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
            if pattern_set.detector_id != record.detector:
                continue
            for cls, method in pattern_set.rows:
                class_ok = (record.target_class == cls
                            or record.target_class.startswith(cls + "$"))
                if class_ok and method in ("*", record.target_method):
                    return True
        return False

    def under_crypto_prefix(record):
        for pattern_set in patterns.crypto_sets:
            if pattern_set.detector_id != record.detector:
                continue
            for prefix, _ in pattern_set.rows:
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
    _limit, (*_, (_class_count, class_defs_off)) = _parse_header(bytes(data))
    struct.pack_into("<I", data, class_defs_off + 24, 0)
    unit = parse_dex(bytes(data))
    assert unit.class_names == ("com.app.Empty", "com.app.Caller")
    records = match_tee_apis(unit, patterns.tee_sets)
    assert [(r.detector, r.caller_class) for r in records] == [
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


def _is_or_continues(name: str, head: str, sep: str) -> bool:
    """The matching rule stated directly: `name` is `head` or continues it
    after `sep`."""
    if not name.startswith(head):
        return False
    rest = name[len(head):]
    return rest == "" or rest.startswith(sep)


def _random_units(seed: int, callers, draw_target):
    """40 parsed units of 1 to 8 callers, each invoking 0 to 8 targets that
    `draw_target(rng)` draws."""
    rng = random.Random(seed)
    for _ in range(40):
        plan = []
        for c in range(rng.randint(1, 8)):
            plan.append((f"{rng.choice(callers)}{c}", [
                draw_target(rng) for _ in range(rng.randint(0, 8))]))
        yield parse_dex(build_fixture_dex(plan))


_RECORD_ROW = attrgetter("detector", "target_class", "target_method",
                         "caller_class", "code_offset", "dex_file")


def _crypto_oracle(unit, sets):
    """Record tuples from the prefix rule run on every pool entry."""
    def detectors(ref):
        return sorted({s.detector_id for s in sets for prefix, _ in s.rows
                       if _is_or_continues(ref.defining_class, prefix, ".")})

    rows = []
    invoked = set()
    for row in invokes(unit):
        invoked.add(row.target)
        rows += [(det, row.target.defining_class, row.target.method_name,
                  row.caller_class, row.code_offset, unit.entry_name)
                 for det in detectors(row.target)]
    for i, ref in enumerate(unit.methods):
        if ref not in invoked:
            rows += [(det, ref.defining_class, ref.method_name, "",
                      unit.method_ids_off + 8 * i, unit.entry_name)
                     for det in detectors(ref)]
    return sorted(rows, key=lambda r: (r[4], r[0]))


def test_crypto_matching_agrees_with_per_entry_oracle(patterns):
    def draw_target(rng):
        return (rng.choice(_CRYPTO_PARITY_CLASSES), f"m{rng.randint(0, 4)}")

    for unit in _random_units(2024, _CRYPTO_PARITY_CLASSES[:3]
                              + ("com.app.Main",), draw_target):
        records = match_crypto_packages(unit, patterns.crypto_sets)
        assert list(map(_RECORD_ROW, records)) == _crypto_oracle(
            unit, patterns.crypto_sets)


# API classes with inner classes two levels deep, the lookalikes of
# MediaDrm, and classes of wildcard rows.
_TEE_PARITY_CLASSES = (
    "android.media.MediaDrm", "android.media.MediaDrm$KeyRequest",
    "android.media.MediaDrm$CryptoSession",
    "android.media.MediaDrm$CryptoSession$Inner",
    "android.media.MediaDrmX", "android.media.MediaDrm.Sub",
    "android.security.keystore.KeyGenParameterSpec",
    "android.security.keystore.KeyGenParameterSpec$Builder",
    "android.security.keystore.KeyGenParameterSpec$Builder$Deep",
    "android.security.keystore.KeyProperties",
    "android.security.keystore.KeyProperties$Inner",
    "android.hardware.biometrics.BiometricManager",
    "android.hardware.biometrics.BiometricManager$Authenticators",
    "android.security.KeyChain", "java.lang.String",
)
_TEE_PARITY_METHODS = ("<init>", "openSession", "getKeyRequest", "encrypt",
                       "build", "setKeySize", "getPrivateKey",
                       "canAuthenticate", "toString")

# Pattern rows where detectors share classes, with wildcards and rows on
# inner classes, so one invoke can hit several detectors.
_OVERLAPPING_TEE_ROWS = """\
drm,tee_api,android.media.MediaDrm,openSession
drm,tee_api,android.media.MediaDrm$KeyRequest,*
keystore,tee_api,android.media.MediaDrm,*
keystore,tee_api,android.media.MediaDrm$CryptoSession,encrypt
biometrics,tee_api,android.media.MediaDrm$CryptoSession$Inner,openSession
biometrics,tee_api,android.security.keystore.KeyGenParameterSpec,build
"""


def _tee_oracle(unit, sets):
    """Record tuples from the row rule run on every invoke."""
    rows = []
    for row in invokes(unit):
        target = row.target
        rows += [(det, target.defining_class, target.method_name,
                  row.caller_class, row.code_offset, unit.entry_name)
                 for det in sorted({
                     s.detector_id for s in sets
                     for cls, method in s.rows
                     if _is_or_continues(target.defining_class, cls, "$")
                     and method in ("*", target.method_name)})]
    return sorted(rows, key=lambda r: (r[4], r[0]))


@pytest.mark.parametrize("rows", ["shipped", "overlapping"])
def test_tee_matching_agrees_with_per_invoke_oracle(patterns, tmp_path,
                                                    rows):
    sets = patterns.tee_sets
    if rows == "overlapping":
        path = tmp_path / "p.csv"
        path.write_text(_OVERLAPPING_TEE_ROWS)
        sets = load_pattern_file(path)

    def draw_target(rng):
        cls, method = (rng.choice(_TEE_PARITY_CLASSES),
                       rng.choice(_TEE_PARITY_METHODS))
        if rng.random() < 0.25:     # same-shorty overloads of one name
            return (cls, method, "void",
                    (rng.choice(("java.lang.String", "java.security.Key")),))
        return cls, method

    hits = 0
    for unit in _random_units(2025, _TEE_PARITY_CLASSES[:3]
                              + ("com.app.Main",), draw_target):
        records = match_tee_apis(unit, sets)
        assert list(map(_RECORD_ROW, records)) == _tee_oracle(unit, sets)
        hits += len(records)
    assert hits > 40


def test_pipeline_records_equal_the_two_matchers(patterns, smoke_corpus,
                                                 tmp_path):
    import io
    import zipfile

    from analytika.corpus import CorpusEntry
    from analytika.pipeline import AnalysisConfig, analyze_apk

    config = AnalysisConfig(output_dir=tmp_path)
    for _package, apk in smoke_corpus:
        expected = []
        with zipfile.ZipFile(io.BytesIO(apk)) as zf:
            for name in zf.namelist():
                if name.endswith(".dex"):
                    unit = parse_dex(zf.read(name), name)
                    expected += match_tee_apis(unit, patterns.tee_sets)
                    expected += match_crypto_packages(unit,
                                                      patterns.crypto_sets)
        report = analyze_apk(apk, CorpusEntry(sha256=""), config, patterns)
        assert report.status == "ok"
        assert list(map(_RECORD_ROW, report.matches)) == list(
            map(_RECORD_ROW, sorted(expected, key=MATCH_ORDER)))


def test_pipeline_merges_both_kinds_where_a_prefix_covers_api_classes(
        tmp_path):
    import io
    import shutil
    import zipfile

    from analytika.corpus import CorpusEntry
    from analytika.defaults import default_patterns_dir
    from analytika.pipeline import AnalysisConfig, analyze_apk

    from conftest import make_fixture_apk

    # An invoke of an API class under the crypto prefix hits both kinds;
    # the `run` method of a caller class under it sits uninvoked in the
    # pool, so it hits the crypto detector alone.
    shipped = default_patterns_dir()
    pattern_dir = tmp_path / "patterns"
    pattern_dir.mkdir()
    (pattern_dir / "bytecode_patterns.csv").write_text(
        (shipped / "bytecode_patterns.csv").read_text(encoding="utf-8")
        + "x,crypto_software,android.hardware.biometrics,*\n",
        encoding="utf-8")
    shutil.copy(shipped / "native_patterns.csv", pattern_dir)
    patterns = load_patterns(pattern_dir)
    apk = make_fixture_apk(dex_plans=[
        PLANTED_PLAN + [
            ("android.hardware.biometrics.BiometricManager$Authenticators",
             [])],
        [("org.jasypt.Util", [])]])

    expected = []
    with zipfile.ZipFile(io.BytesIO(apk)) as zf:
        for name in ("classes.dex", "classes2.dex"):
            unit = parse_dex(zf.read(name), name)
            expected += match_tee_apis(unit, patterns.tee_sets)
            expected += match_crypto_packages(unit, patterns.crypto_sets)
    report = analyze_apk(apk, CorpusEntry(sha256=""),
                         AnalysisConfig(output_dir=tmp_path), patterns)
    assert report.status == "ok"
    assert list(map(_RECORD_ROW, report.matches)) == list(
        map(_RECORD_ROW, sorted(expected, key=MATCH_ORDER)))
    assert sorted(
        (r.detector, r.target_class, r.caller_class)
        for r in report.matches
        if r.target_class.startswith("android.hardware.biometrics")) == [
        ("biometrics", "android.hardware.biometrics.BiometricPrompt",
         "com.fixture.app.BioHelper"),
        ("x", "android.hardware.biometrics.BiometricManager$Authenticators",
         ""),
        ("x", "android.hardware.biometrics.BiometricPrompt",
         "com.fixture.app.BioHelper")]
    assert {r.detector for r in report.matches
            if r.dex_file == "classes2.dex"} == {"jasypt"}
