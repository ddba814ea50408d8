from __future__ import annotations

import random
import struct
from collections import Counter

import pytest

from analytika.dex import (
    INSTRUCTION_WIDTHS,
    INVOKE_OPCODES,
    MethodRef,
    _read_uleb128,
    _walk_insns,
    decode_mutf8,
    descriptor_to_dotted,
    parse_dex,
)
from analytika.errors import MalformedDexError

from conftest import CIPHER_INIT_OVERLOADS, invokes, random_plan
from dexbuild import InvalidPlanError, build_fixture_dex
from dexlister import list_invokes


def _invocation_multiset(unit):
    return Counter((inv.caller_class, inv.target.defining_class,
                    inv.target.method_name) for inv in invokes(unit))


def _plan_multiset(plan):
    return Counter((caller, cls, method)
                   for caller, targets in plan
                   for cls, method in targets)


def test_single_invocation_round_trip():
    plan = [("com.test.Main", [("android.media.MediaDrm", "<init>")])]
    unit = parse_dex(build_fixture_dex(plan))
    assert _invocation_multiset(unit) == _plan_multiset(plan)
    inv = invokes(unit)[0]
    assert inv.caller_class == "com.test.Main"
    assert unit.entry_name == "classes.dex"
    assert 0 < inv.code_offset < unit.header.file_size


def test_empty_plan_parses_to_nothing():
    unit = parse_dex(build_fixture_dex([]))
    assert invokes(unit) == []
    assert unit.methods == ()
    assert unit.class_names == ()


def test_plan_with_class_but_no_calls():
    unit = parse_dex(build_fixture_dex([("com.empty.C", [])]))
    assert invokes(unit) == []
    assert unit.class_names == ("com.empty.C",)


def test_short_input_is_malformed():
    with pytest.raises(MalformedDexError):
        parse_dex(b"dex\n")


def test_unsupported_version_rejected():
    data = bytearray(build_fixture_dex([("com.a.B", [])]))
    data[4:7] = b"034"
    with pytest.raises(MalformedDexError):
        parse_dex(bytes(data))


def test_duplicate_targets_yield_duplicate_invocations():
    plan = [("com.a.B", [("x.y.Z", "go"), ("x.y.Z", "go")])]
    unit = parse_dex(build_fixture_dex(plan))
    assert _invocation_multiset(unit) == _plan_multiset(plan)


def test_round_trip_property_seeded():
    rng = random.Random(1234)
    for _ in range(120):
        plan = random_plan(rng, max_classes=12, max_targets=6)
        unit = parse_dex(build_fixture_dex(plan))
        assert _invocation_multiset(unit) == _plan_multiset(plan)


def test_pool_sizes_agree_with_header():
    plan = random_plan(random.Random(5), max_classes=20, max_targets=8)
    unit = parse_dex(build_fixture_dex(plan))
    assert len(unit.strings) == unit.header.string_ids_size
    assert len(unit.types) == unit.header.type_ids_size
    assert len(unit.methods) == unit.header.method_ids_size
    assert len(unit.class_names) == unit.header.class_defs_size


def test_method_pool_exposes_uninvoked_references():
    # The caller's own method is in the pool but never an invoke target.
    unit = parse_dex(build_fixture_dex([("org.jasypt.Util", [])]))
    assert ("org.jasypt.Util", "run") in {
        (m.defining_class, m.method_name) for m in unit.methods}
    assert invokes(unit) == []


CIPHER_OVERLOADS = CIPHER_INIT_OVERLOADS + [
    ("javax.crypto.Cipher", "doFinal", "byte[]", ("byte[]",)),
]


def test_method_refs_keep_full_prototype():
    unit = parse_dex(build_fixture_dex([("com.a.B", CIPHER_OVERLOADS)]))
    prototypes = {(m.defining_class, m.method_name, m.return_type,
                   m.parameters) for m in unit.methods}
    assert prototypes == {
        ("com.a.B", "run", "void", ()),
        ("javax.crypto.Cipher", "init", "void", ("int", "java.security.Key")),
        ("javax.crypto.Cipher", "init", "void",
         ("int", "java.security.cert.Certificate")),
        ("javax.crypto.Cipher", "doFinal", "byte[]", ("byte[]",)),
    }
    targets = [inv.target for inv in invokes(unit)]
    assert len(set(targets)) == 3


def _patch_type_lists(data: bytearray, patch) -> int:
    """Apply patch(data, parameters_off) to every proto with parameters."""
    header = parse_dex(bytes(data)).header
    patched = 0
    for i in range(header.proto_ids_size):
        slot = header.proto_ids_off + 12 * i + 8
        parameters_off = struct.unpack_from("<I", data, slot)[0]
        if parameters_off:
            patch(data, slot, parameters_off)
            patched += 1
    return patched


@pytest.mark.parametrize("patch", [
    # type list starts two bytes before the end of the file
    lambda d, slot, off: struct.pack_into("<I", d, slot, len(d) - 2),
    # declared size runs past the end of the file
    lambda d, slot, off: struct.pack_into("<I", d, off, 0x0FFFFFFF),
    # type index past the type pool
    lambda d, slot, off: struct.pack_into("<H", d, off + 4, 0xFFFF),
], ids=["offset", "size", "index"])
def test_bad_type_list_is_malformed(patch):
    data = bytearray(build_fixture_dex([("com.a.B", CIPHER_OVERLOADS)]))
    assert _patch_type_lists(data, patch) == 3
    with pytest.raises(MalformedDexError):
        parse_dex(bytes(data))


def test_extra_strings_planted_but_inert():
    planted = "Landroid/security/keystore/KeyProperties;"
    unit = parse_dex(build_fixture_dex(
        [("com.a.B", [("x.y.Z", "go")])], extra_strings=[planted]))
    assert planted in unit.strings
    assert "android.security.keystore.KeyProperties" not in unit.types
    assert all(m.defining_class != "android.security.keystore.KeyProperties"
               for m in unit.methods)


# ASCII, an embedded NUL (C0 80), 2- and 3-byte sequences and a
# supplementary character (a surrogate pair, two 3-byte sequences).
MIXED_STRINGS = ("plain ascii", "nul\x00inside", "caf\u00e9", "\u20ac sign",
                 "emoji \U0001F600", "\x00")


def _string_data(data: bytes) -> list[tuple[int, int]]:
    """(string_ids slot, string body offset) for each string pool entry."""
    header = parse_dex(data).header
    out = []
    for i in range(header.string_ids_size):
        slot = header.string_ids_off + 4 * i
        data_off = struct.unpack_from("<I", data, slot)[0]
        out.append((slot, _read_uleb128(data, data_off, len(data))[1]))
    return out


def test_string_pool_matches_mutf8_decoder():
    data = build_fixture_dex([("com.a.B", [("x.y.Z", "go")])],
                             extra_strings=MIXED_STRINGS)
    unit = parse_dex(data)
    assert list(unit.strings) == [decode_mutf8(data, pos, len(data))[0]
                                  for _, pos in _string_data(data)]
    assert set(MIXED_STRINGS) <= set(unit.strings)


def _with_string_body(data: bytes, slot: int, body: bytes) -> bytes:
    """Append a string_data_item at the end and point string_ids[slot] at it."""
    out = bytearray(data)
    struct.pack_into("<I", out, slot, len(out))
    out += body
    struct.pack_into("<I", out, 32, len(out))     # header file_size
    return bytes(out)


@pytest.mark.parametrize("body", [
    b"\x05abcde",              # last string, no terminator
    b"\x02\xc3\x41\x00",       # two-byte lead, bad continuation byte
    b"\x01\xe2\x82\x00",       # three-byte lead cut by the terminator
], ids=["unterminated", "bad-continuation", "short-three-byte"])
def test_malformed_string_data_still_raises(body):
    data = build_fixture_dex([("com.a.B", [])], extra_strings=MIXED_STRINGS)
    last_slot = _string_data(data)[-1][0]
    with pytest.raises(MalformedDexError):
        parse_dex(_with_string_body(data, last_slot, body))


def test_invalid_plans_rejected():
    with pytest.raises(InvalidPlanError):
        build_fixture_dex([("com.a.B", []), ("com.a.B", [])])
    with pytest.raises(InvalidPlanError):
        build_fixture_dex([("com..B", [])])
    with pytest.raises(InvalidPlanError):
        build_fixture_dex([("1bad.Name", [])])
    with pytest.raises(InvalidPlanError):
        build_fixture_dex([("com.a.B", [("x.y.Z", "not a method")])])


def test_descriptor_conversion():
    assert descriptor_to_dotted("Lcom/foo/Bar;") == "com.foo.Bar"
    assert descriptor_to_dotted("Lcom/foo/Bar$Baz;") == "com.foo.Bar$Baz"
    assert descriptor_to_dotted("[Ljava/lang/String;") == "java.lang.String[]"
    assert descriptor_to_dotted("I") == "int"
    assert descriptor_to_dotted("V") == "void"


def test_agrees_with_independent_lister(smoke_corpus):
    import io
    import zipfile
    for _package, apk in smoke_corpus:
        zf = zipfile.ZipFile(io.BytesIO(apk))
        for name in zf.namelist():
            if not name.endswith(".dex"):
                continue
            raw = zf.read(name)
            unit = parse_dex(raw, name)
            mine = {(inv.caller_class,
                     inv.target.defining_class,
                     inv.target.method_name) for inv in invokes(unit)}
            theirs = {(descriptor_to_dotted(c), descriptor_to_dotted(t), m)
                      for c, t, m in list_invokes(raw)}
            assert mine == theirs


def test_byte_flip_fuzz_never_crashes():
    base = build_fixture_dex(random_plan(random.Random(77), max_classes=8))
    rng = random.Random(4242)
    outcomes = {"ok": 0, "malformed": 0}
    for _ in range(400):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            parse_dex(bytes(mutated))
            outcomes["ok"] += 1
        except MalformedDexError:
            outcomes["malformed"] += 1
    assert sum(outcomes.values()) == 400


def test_truncation_fuzz_never_crashes():
    base = build_fixture_dex([("com.a.B", [("x.y.Z", "go")])])
    for cut in range(len(base)):
        try:
            parse_dex(base[:cut])
        except MalformedDexError:
            pass


def _units(*values):
    out = bytearray()
    for v in values:
        out += v.to_bytes(2, "little")
    return bytes(out)


def test_walker_skips_payload_pseudo_instructions():
    # invoke-static idx=0 | packed-switch-payload size=2 | return-void
    insns = _units(0x0071, 0x0000, 0x0000)
    insns += _units(0x0100, 0x0002, 0, 0, 0, 0, 0, 0)   # 2*2+4 = 8 units
    insns += _units(0x000E)
    hits = list(_walk_insns(insns, 0, len(insns) // 2, len(insns), 1))
    assert [idx for _, idx in hits] == [0]


def test_walker_rejects_escaping_payload():
    insns = _units(0x0300, 0x0004, 0xFFFF, 0xFFFF)   # fill-array, huge count
    with pytest.raises(MalformedDexError):
        list(_walk_insns(insns, 0, len(insns) // 2, len(insns), 1))


def test_walker_rejects_undefined_opcode():
    insns = _units(0x003E)
    with pytest.raises(MalformedDexError):
        list(_walk_insns(insns, 0, len(insns) // 2, len(insns), 1))


@pytest.mark.parametrize("tail", [b"", b"\x00"], ids=["none", "one-byte"])
def test_walker_rejects_invoke_index_past_region(tail):
    # invoke-static whose method index would sit past the code region and
    # past the buffer: the walk must report it, not read out of range.
    insns = _units(0x0071) + tail
    with pytest.raises(MalformedDexError):
        _walk_insns(insns, 0, 1, len(insns), 1)


def test_width_table_shape():
    assert len(INSTRUCTION_WIDTHS) == 256
    assert all(op in INVOKE_OPCODES or INSTRUCTION_WIDTHS[op] >= 0
               for op in range(256))
    assert all(INSTRUCTION_WIDTHS[op] == 3 for op in INVOKE_OPCODES)
