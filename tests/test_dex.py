from __future__ import annotations

import json
import random
import struct
import tracemalloc
from array import array

import pytest

from analytika import dex
from analytika.dex import (
    _IS_INVOKE,
    _STEPS,
    MethodRef,
    _invoke_sites,
    _parse_header,
    _read_strings,
    _read_uleb128,
    _u32,
    _walk_insns,
    decode_mutf8,
    descriptor_to_dotted,
    parse_dex,
)
from analytika.errors import MalformedDexError
from analytika.matchers import (
    KIND_CRYPTO_SOFTWARE,
    KIND_TEE_API,
    MATCH_ORDER,
    WILDCARD,
    PatternSet,
    UnitHits,
    index_patterns,
    load_patterns,
)

import dexfuzz
from conftest import (
    CIPHER_INIT_OVERLOADS,
    invocation_multiset,
    invokes,
    plan_multiset,
    random_plan,
)
from dexbuild import InvalidPlanError, build_fixture_dex, encode_uleb128
from dexlister import _FMT, list_invokes


def test_single_invocation_round_trip():
    plan = [("com.test.Main", [("android.media.MediaDrm", "<init>")])]
    data = build_fixture_dex(plan)
    unit = parse_dex(data)
    assert invocation_multiset(unit) == plan_multiset(plan)
    inv = invokes(unit)[0]
    assert inv.caller_class == "com.test.Main"
    assert unit.entry_name == "classes.dex"
    assert 0 < inv.code_offset < len(data)


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
    assert invocation_multiset(unit) == plan_multiset(plan)


def test_round_trip_property_seeded():
    rng = random.Random(1234)
    for _ in range(120):
        plan = random_plan(rng, max_classes=12, max_targets=6)
        unit = parse_dex(build_fixture_dex(plan))
        assert invocation_multiset(unit) == plan_multiset(plan)


def test_pool_sizes_agree_with_header():
    plan = random_plan(random.Random(5), max_classes=20, max_targets=8)
    data = build_fixture_dex(plan)
    unit = parse_dex(data)
    limit, (string_ids, _types, _protos, _fields, method_ids,
            class_defs) = _parse_header(data)
    assert len(_read_strings(data, string_ids, limit)) == string_ids[0]
    assert len(unit.methods) == method_ids[0]
    assert unit.method_ids_off == method_ids[1]
    assert len(unit.class_names) == class_defs[0]


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


def test_method_ref_is_a_plain_tuple():
    ref = MethodRef("javax.crypto.Cipher", "init", "void", ("int",))
    assert ref == ("javax.crypto.Cipher", "init", "void", ("int",))
    assert hash(ref) == hash(tuple(ref))
    assert MethodRef._fields == ("defining_class", "method_name",
                                 "return_type", "parameters")
    with pytest.raises(AttributeError):
        ref.method_name = "doFinal"
    unit = parse_dex(build_fixture_dex([("com.a.B", CIPHER_OVERLOADS)]))
    assert all(type(m) is MethodRef for m in unit.methods)


def _patch_type_lists(data: bytearray, patch) -> int:
    """Apply patch(data, parameters_off) to every proto with parameters."""
    _limit, (_strings, _types, (proto_count, protos_off), *_) = (
        _parse_header(bytes(data)))
    patched = 0
    for i in range(proto_count):
        slot = protos_off + 12 * i + 8
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
    data = build_fixture_dex([("com.a.B", [("x.y.Z", "go")])],
                             extra_strings=[planted])
    assert planted.encode() in data
    unit = parse_dex(data)
    assert "android.security.keystore.KeyProperties" not in unit.class_names
    assert all(m.defining_class != "android.security.keystore.KeyProperties"
               for m in unit.methods)


# ASCII, an embedded NUL (C0 80), 2- and 3-byte sequences and a
# supplementary character (a surrogate pair, two 3-byte sequences).
MIXED_STRINGS = ("plain ascii", "nul\x00inside", "caf\u00e9", "\u20ac sign",
                 "emoji \U0001F600", "\x00")


def _string_data(data: bytes) -> list[tuple[int, int]]:
    """(string_ids slot, string body offset) for each string pool entry."""
    _limit, ((string_count, strings_off), *_) = _parse_header(data)
    out = []
    for i in range(string_count):
        slot = strings_off + 4 * i
        data_off = struct.unpack_from("<I", data, slot)[0]
        out.append((slot, _read_uleb128(data, data_off, len(data))[1]))
    return out


def test_string_pool_matches_mutf8_decoder():
    data = build_fixture_dex([("com.a.B", [("x.y.Z", "go")])],
                             extra_strings=MIXED_STRINGS)
    limit, (string_ids, *_) = _parse_header(data)
    strings = _read_strings(data, string_ids, limit)
    assert strings == [decode_mutf8(data, pos, len(data))[0]
                       for _, pos in _string_data(data)]
    assert set(MIXED_STRINGS) <= set(strings)


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
    outcomes = {"ok": 0, "malformed": 0}
    for mutated in dexfuzz.flip_cases():
        try:
            parse_dex(mutated)
            outcomes["ok"] += 1
        except MalformedDexError:
            outcomes["malformed"] += 1
    assert sum(outcomes.values()) == 400


@pytest.mark.parametrize("name", ["flip", "truncate", "class_data_flip"])
def test_fuzz_outcomes_match_golden(name):
    golden = json.loads(dexfuzz.GOLDEN_PATH.read_text(encoding="utf-8"))
    cases = {"flip": dexfuzz.flip_cases, "truncate": dexfuzz.truncation_cases,
             "class_data_flip": dexfuzz.class_data_flip_cases}[name]()
    assert dexfuzz.runs([dexfuzz.outcome(d) for d in cases]) == golden[name]


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


def _walk(insns, units=None):
    """The (offsets, methods) columns one walk appends for a one-method pool."""
    offsets, methods = array("I"), array("I")
    _walk_insns(insns, 0, len(insns) // 2 if units is None else units,
                len(insns), 1, offsets, methods)
    return offsets, methods


_BAD = 0x003E       # an undefined opcode in every unit a payload holds


@pytest.mark.parametrize("payload", [
    _units(0x0100, 2, *[_BAD] * 6),            # 2*2+4 = 8 units
    _units(0x0200, 2, *[_BAD] * 8),            # 2*4+2 = 10 units
    _units(0x0300, 1, 5, 0, *[_BAD] * 3),      # (5*1+1)//2+4 = 7 units
], ids=["packed-switch", "sparse-switch", "fill-array-data"])
def test_walker_skips_payload_pseudo_instructions(payload):
    # payload | invoke-static idx=0 | return-void: a step that ends inside
    # the payload meets an undefined opcode, and one past it misses the
    # invoke.
    insns = payload + _units(0x0071, 0x0000, 0x0000, 0x000E)
    offsets, methods = _walk(insns)
    assert list(offsets) == [len(payload)]
    assert list(methods) == [0]


def test_walker_rejects_escaping_payload():
    insns = _units(0x0300, 0x0004, 0xFFFF, 0xFFFF)   # fill-array, huge count
    with pytest.raises(MalformedDexError):
        _walk(insns)


@pytest.mark.parametrize("marker", [0x0100, 0x0200, 0x0300],
                         ids=["packed-switch", "sparse-switch",
                              "fill-array-data"])
def test_walker_rejects_payload_header_past_its_region(marker):
    # The payload's marker is the region's last code unit, so its size
    # field would be read past the region.
    with pytest.raises(MalformedDexError) as info:
        _walk(_units(marker))
    assert str(info.value) == "short read at 0x2"


def test_walker_rejects_undefined_opcode():
    insns = _units(0x003E)
    with pytest.raises(MalformedDexError):
        _walk(insns)


@pytest.mark.parametrize("tail", [b"", b"\x00"], ids=["none", "one-byte"])
def test_walker_rejects_invoke_index_past_region(tail):
    # invoke-static whose method index would sit past the code region and
    # past the buffer: the walk must report it, not read out of range.
    insns = _units(0x0071) + tail
    with pytest.raises(MalformedDexError):
        _walk(insns, units=1)


def test_width_table_shape():
    # Every step agrees with the independent lister's format table, which
    # leaves out the opcodes with no defined format.
    assert list(_STEPS) == [2 * int(_FMT[op][0]) if op in _FMT else 0
                            for op in range(256)]
    invoke_opcodes = {op for op in range(256) if _IS_INVOKE[op]}
    assert invoke_opcodes == set(range(0x6E, 0x73)) | set(range(0x74, 0x79))
    assert all(_STEPS[op] == 6 for op in invoke_opcodes)


def _iter_code_offsets(data: bytes, class_data_off: int, limit: int,
                       method_count: int):
    """Reference class_data decoder: one `_read_uleb128` per field, yielding
    each code item offset before the next method is decoded."""
    pos = class_data_off
    static_fields, pos = _read_uleb128(data, pos, limit)
    instance_fields, pos = _read_uleb128(data, pos, limit)
    direct_methods, pos = _read_uleb128(data, pos, limit)
    virtual_methods, pos = _read_uleb128(data, pos, limit)
    for _ in range(static_fields + instance_fields):
        _, pos = _read_uleb128(data, pos, limit)
        _, pos = _read_uleb128(data, pos, limit)
    for count in (direct_methods, virtual_methods):
        method_idx = 0
        for _ in range(count):
            diff, pos = _read_uleb128(data, pos, limit)
            _access, pos = _read_uleb128(data, pos, limit)
            code_off, pos = _read_uleb128(data, pos, limit)
            method_idx += diff
            if method_idx >= method_count:
                raise MalformedDexError("encoded method index out of bounds")
            if code_off == 0:
                continue
            if code_off + 16 > limit:
                raise MalformedDexError("code item out of bounds")
            yield code_off


def _oracle_columns(data: bytes):
    """The invoke columns (callers, methods, offsets) from walking each code
    item `_iter_code_offsets` yields, as it is yielded; or the error."""
    limit, (*_, (method_count, _methods_off),
            (class_count, class_defs_off)) = _parse_header(data)
    callers, offsets, methods = array("I"), array("I"), array("I")
    try:
        for i in range(class_count):
            class_data_off = _u32(data, class_defs_off + 32 * i + 24, limit)
            if class_data_off == 0:
                continue
            before = len(methods)
            for code_off in _iter_code_offsets(data, class_data_off, limit,
                                               method_count):
                _walk_insns(data, code_off + 16, _u32(data, code_off + 12,
                                                      limit),
                            limit, method_count, offsets, methods)
            callers.extend([i] * (len(methods) - before))
    except MalformedDexError as exc:
        return str(exc)
    return list(callers), list(methods), list(offsets)


def _parsed_columns(data: bytes):
    try:
        unit = parse_dex(data)
    except MalformedDexError as exc:
        return str(exc)
    return (list(unit.invoke_callers), list(unit.invoke_methods),
            list(unit.invoke_offsets))


CODE_AT = 0x4000        # code items from here on take three-byte offsets


def _invoke_code(*method_indices, tail=b"\x0e\x00"):
    """Instructions invoking each method index in turn, then `tail`."""
    return b"".join(struct.pack("<BBHH", 0x71, 0, idx, 0)
                    for idx in method_indices) + tail


def _with_class_data(class_data_for, code=()):
    """A two-class fixture whose first class_def points at a new class_data
    item. Each body in `code` becomes a code item placed from CODE_AT on;
    `class_data_for(code_offsets)` gives the item, which is written last,
    so a uleb128 left open at its end runs off the end of the file."""
    base = build_fixture_dex([("com.a.First", [("x.y.Z", "go")]),
                              ("com.a.Second", [("x.y.Z", "stop")])])
    data = bytearray(base) + bytes(CODE_AT - len(base))
    code_offsets = []
    for insns in code:
        code_offsets.append(len(data))
        data += struct.pack("<4HII", 1, 0, 0, 0, 0, len(insns) // 2) + insns
        data += bytes(-len(data) % 4)
    class_data_off = len(data)
    data += class_data_for(code_offsets)
    _limit, (*_, (_class_count, class_defs_off)) = _parse_header(base)
    struct.pack_into("<I", data, class_defs_off + 24, class_data_off)
    struct.pack_into("<I", data, 32, len(data))
    return bytes(data)


def _uleb(*values):
    return b"".join(encode_uleb128(v) for v in values)


# The fixture's method pool: com.a.First.run, com.a.Second.run, x.y.Z.go and
# x.y.Z.stop.
POOL = 4

CLASS_DATA_CASES = {
    # two fields with multi-byte diffs and flags, a constructor (0x10001,
    # three bytes) and an abstract method (code_off 0) among the direct
    # methods, one virtual method; every code offset takes three bytes
    "three-byte-values": (
        lambda offs: _uleb(2, 0, 2, 1, 200, 0x19, 1, 0x1002,
                           0, 0x10001, offs[0], 1, 0x401, 0,
                           2, 0x1, offs[1]),
        [_invoke_code(1, 0), _invoke_code(3, 3, 2)], None),
    "method-index-past-pool": (
        lambda offs: _uleb(0, 0, 1, 0, POOL, 0x1, offs[0]),
        [_invoke_code(0)], "encoded method index out of bounds"),
    "virtual-index-past-pool": (
        lambda offs: _uleb(0, 0, 1, 1, 3, 0x1, offs[0], POOL, 0x1, offs[0]),
        [_invoke_code(0)], "encoded method index out of bounds"),
    "code-item-past-file-end": (
        lambda offs: _uleb(0, 0, 1, 0, 0, 0x1, 0x1FFFFF),
        [], "code item out of bounds"),
    "uleb-runs-off-end": (
        lambda offs: _uleb(0, 0, 1, 0, 0, 0x1) + b"\x80\x80",
        [], "uleb128 runs past end of file"),
    "uleb-longer-than-five-bytes": (
        lambda offs: _uleb(0, 0, 1, 0, 0) + b"\x81" * 6 + b"\x00",
        [], "uleb128 longer than five bytes"),
    # method 0's walk fails before method 1's index is decoded
    "walk-fault-before-index-fault": (
        lambda offs: _uleb(0, 0, 2, 0, 0, 0x1, offs[0], POOL, 0x1, offs[1]),
        [_invoke_code(POOL), _invoke_code(0)],
        f"invoke references method {POOL} of {POOL}"),
    # method 0's index fails before its code, or method 1's, is walked
    "index-fault-before-walk-fault": (
        lambda offs: _uleb(0, 0, 2, 0, POOL, 0x1, offs[0], 0, 0x1, offs[1]),
        [_invoke_code(0), _invoke_code(POOL)],
        "encoded method index out of bounds"),
}


@pytest.mark.parametrize("case", list(CLASS_DATA_CASES))
def test_class_data_decoding_agrees_with_reference(case):
    class_data_for, code, error = CLASS_DATA_CASES[case]
    data = _with_class_data(class_data_for, code)
    expected = _oracle_columns(data)
    assert _parsed_columns(data) == expected
    if error is None:
        callers, methods, _offsets = expected
        assert callers == [0, 0, 0, 0, 0, 1]
        assert methods == [1, 0, 3, 3, 2, 3]
    else:
        assert expected == error


# `wanted` selections for the filtered walk: every other pool entry, every
# entry, and entry 0 alone.
SELECTIONS = {
    "every-other": lambda methods: range(0, len(methods), 2),
    "every": lambda methods: range(len(methods)),
    "first": lambda methods: [0],
}


class _EveryClass:
    """A `wanted` that is given every method entry, since its one key, "",
    starts every class name, and picks the indexes `select` gives."""

    keys = ("",)

    def __init__(self, select):
        self.select = select

    def __call__(self, methods):
        return self.select(methods)


def _columns(unit) -> tuple[list, list, list]:
    return (list(unit.invoke_callers), list(unit.invoke_methods),
            list(unit.invoke_offsets))


def _restricted(columns, wanted) -> tuple[list, list, list]:
    """The full walk's columns, keeping only invokes of `wanted` entries."""
    kept = [k for k, method in enumerate(columns[1]) if method in wanted]
    return tuple([column[k] for k in kept] for column in columns)


def _filtered_agrees(data: bytes, select) -> str:
    """Compare `parse_dex(data, wanted=_EveryClass(select))` with the full
    walk of `data`: "both" when both parse and the filtered columns are the
    full ones restricted to the wanted entries, "full-failed" when only the
    full walk raises, "both-failed" when both do."""
    try:
        full = parse_dex(data)
    except MalformedDexError:
        full = None
    try:
        unit = parse_dex(data, wanted=_EveryClass(select))
    except MalformedDexError:
        assert full is None, "only the filtered walk failed"
        return "both-failed"
    if full is None:
        return "full-failed"
    assert unit.methods == dict(enumerate(full.methods))
    assert unit.class_names == {k: full.class_names[k]
                                for k in unit.invoke_callers}
    assert unit.method_ids_off == full.method_ids_off
    assert _columns(unit) == _restricted(_columns(full),
                                         set(select(full.methods)))
    return "both"


PATTERN_INDEX = load_patterns().index


def _full_records(unit, index=PATTERN_INDEX) -> list:
    """The records of a fully parsed unit: `UnitHits` over its whole pool."""
    hits = UnitHits(index)
    hits(dict(enumerate(unit.methods)))
    return sorted(hits.records(unit), key=MATCH_ORDER)


def _hits_agree(data: bytes, index=PATTERN_INDEX) -> tuple[str, list]:
    """The verdict of `_filtered_agrees` for `parse_dex(data,
    wanted=UnitHits(index))`, whose records must be the full unit's, and
    those records."""
    try:
        full = _full_records(parse_dex(data), index)
    except MalformedDexError:
        full = None
    hits = UnitHits(index)
    try:
        unit = parse_dex(data, wanted=hits)
    except MalformedDexError:
        assert full is None, "only the filtered parse failed"
        return "both-failed", []
    records = sorted(hits.records(unit), key=MATCH_ORDER)
    if full is None:
        return "full-failed", records
    assert records == full
    return "both", records


@pytest.mark.parametrize("name", ["flip", "truncate", "class_data_flip"])
def test_filtered_walk_agrees_with_full_walk_on_fuzz_cases(name):
    cases = {"flip": dexfuzz.flip_cases, "truncate": dexfuzz.truncation_cases,
             "class_data_flip": dexfuzz.class_data_flip_cases}[name]()
    verdicts = [_filtered_agrees(data, select)
                for data in cases for select in SELECTIONS.values()]
    assert "both" in verdicts
    hits = [_hits_agree(data) for data in cases]
    assert any(verdict == "both" and records for verdict, records in hits)


def _assert_finds(data: bytes, select) -> tuple[list, list, list]:
    """The filtered columns of `data`, checked against the full walk and
    checked to hold at least one invoke."""
    assert _filtered_agrees(data, select) == "both"
    columns = _columns(parse_dex(data, wanted=_EveryClass(select)))
    assert columns[1]
    return columns


def test_filtered_walk_on_random_plans():
    rng = random.Random(2718)
    found = 0
    for _ in range(40):
        data = build_fixture_dex(random_plan(rng, max_classes=12,
                                             max_targets=6))
        for select in SELECTIONS.values():
            assert _filtered_agrees(data, select) == "both"
        verdict, records = _hits_agree(data)
        assert verdict == "both"
        found += len(records)
    assert found


def test_wanted_index_with_a_surrogate_low_byte():
    # The low byte of an invoke's index is the first byte of a big-endian
    # word; D8 there would start a surrogate unless it is folded.
    data = build_fixture_dex([("com.a.B", [("x.y.Z", f"m{i:03d}")
                                           for i in range(230)])])
    _callers, methods, _offsets = _assert_finds(data, lambda m: [0xD8])
    assert methods == [0xD8]


def test_scan_reads_surrogate_bytes_and_checks_raw_indexes():
    # Index bytes D8-DF would read as surrogate words if decoded raw, and
    # 0xD9DA pairs the low byte of one wanted index with the high byte of
    # another: the pattern matches it, and the raw check drops it.
    data = _invoke_code(0xD905, 0xD9DA, 0x06DA)
    limit = len(data)
    assert _invoke_sites(data, limit, frozenset({0xD905, 0x06DA}), None) == [
        0, 12, limit]
    assert _invoke_sites(data, limit, frozenset({0xD9DA}), None) == [6, limit]


def _with_code_at(shift: int, insns: bytes, class_data: bytes) -> bytes:
    """The two-class fixture of `_with_class_data` with one code item at
    CODE_AT + `shift`; `class_data` (a function of the code item's offset)
    becomes the first class_def's item."""
    base = build_fixture_dex([("com.a.First", [("x.y.Z", "go")]),
                              ("com.a.Second", [("x.y.Z", "stop")])])
    data = bytearray(base) + bytes(CODE_AT + shift - len(base))
    code_off = len(data)
    data += struct.pack("<4HII", 1, 0, 0, 0, 0, len(insns) // 2) + insns
    class_data_off = len(data)
    data += class_data(code_off)
    _limit, (*_, (_class_count, class_defs_off)) = _parse_header(base)
    struct.pack_into("<I", data, class_defs_off + 24, class_data_off)
    struct.pack_into("<I", data, 32, len(data))
    return bytes(data)


def test_code_at_an_odd_offset_is_walked():
    # The instructions start at CODE_AT + 17, an odd offset, and the scan
    # reads even words only, so it cannot see these invokes.
    data = _with_code_at(1, _invoke_code(2, 3, 2),
                         lambda off: _uleb(0, 0, 1, 0, 0, 0x1, off))
    _callers, methods, _offsets = _assert_finds(data, lambda m: [2])
    assert methods == [2, 2]


def test_code_item_shared_by_two_methods_is_walked_for_each():
    data = _with_class_data(
        lambda offs: _uleb(0, 0, 2, 0, 0, 0x1, offs[0], 1, 0x1, offs[0]),
        [_invoke_code(2, 3)])
    callers, methods, _offsets = _assert_finds(data, lambda m: [2])
    assert (callers, methods) == ([0, 0], [2, 2])


def test_site_straddling_a_scan_chunk_is_found(monkeypatch):
    data = build_fixture_dex([("com.a.B", [("x.y.Z", "go")])])
    full = parse_dex(data)
    (site,), (target,) = full.invoke_offsets, full.invoke_methods
    # The first chunk ends between the opcode word and the index word.
    monkeypatch.setattr(dex, "_SCAN_CHUNK", site + 2)
    unit = parse_dex(data, wanted=_EveryClass(lambda m: [target]))
    assert list(unit.invoke_offsets) == [site]
    assert _invoke_sites(data, len(data), frozenset({target}), None) == [
        site, len(data)]


def test_empty_wanted_walks_nothing_but_checks_bounds():
    # An undefined opcode fails the full walk only.
    data = _with_class_data(lambda offs: _uleb(0, 0, 1, 0, 0, 0x1, offs[0]),
                            [_units(0x003E)])
    with pytest.raises(MalformedDexError, match="invalid opcode"):
        parse_dex(data)
    unit = parse_dex(data, wanted=_EveryClass(lambda methods: ()))
    assert _columns(unit) == ([], [], [])
    assert len(unit.methods) == POOL
    # An instruction region past the end of the file fails both walks.
    data = bytearray(data)
    insns_size_at = CODE_AT + 12
    struct.pack_into("<I", data, insns_size_at, len(data))
    with pytest.raises(MalformedDexError, match="instruction region"):
        parse_dex(bytes(data), wanted=_EveryClass(lambda methods: ()))


def test_empty_pools_are_not_read_at_their_offsets():
    data = bytearray(build_fixture_dex([]))
    for pool_field in range(56, 104, 8):      # each empty pool's offset
        struct.pack_into("<I", data, pool_field + 4, 0xFFFFFF00)
    assert _hits_agree(bytes(data)) == ("both", [])
    unit = parse_dex(bytes(data), wanted=UnitHits(PATTERN_INDEX))
    assert (unit.methods, unit.class_names) == ({}, {})


@pytest.mark.parametrize("code,fmt", [("H", ">6H"), ("I", ">6I")])
def test_columns_are_true_values_on_a_big_endian_host(monkeypatch, code,
                                                     fmt):
    """On a big-endian host the fields read in host order are swapped; the
    host is simulated by big-endian fields and a patched byte order."""
    values = [1, 0x1234, 0xFFFF, 0x8000, 7, 0xABCD]
    data = b"pad!" + struct.pack(fmt, *values)
    monkeypatch.setattr(dex.sys, "byteorder", "big")
    columns = dex._columns(data, (3, 4), code, 2)
    assert [list(column) for column in columns] == [values[0::2],
                                                    values[1::2]]


def test_filtered_parse_holds_well_below_its_input():
    """The pool index columns are compact arrays and the pool regions are
    read through views, so the filtered parse of 20,002 method ids (a 0.83
    MiB file) peaks at 0.51 MiB; with a tuple of ints per column it peaked
    at 3.41 MiB. The regex is compiled before, as it is once per run."""
    plan = [(f"com.gen.p{c % 50}.Cls{c}",
             [(f"com.t{c % 997}.x.Target{c}", f"m{k}") for k in range(3)])
            for c in range(5000)]
    plan.append(("com.gen.Keys", [
        ("android.security.keystore.KeyGenParameterSpec$Builder",
         "setIsStrongBoxBacked")]))
    data = build_fixture_dex(plan)
    assert struct.unpack_from("<I", data, 0x58)[0] >= 20_000
    parse_dex(data, wanted=UnitHits(PATTERN_INDEX))
    hits = UnitHits(PATTERN_INDEX)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        unit = parse_dex(data, wanted=hits)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(unit.invoke_methods) == 1
    assert peak < 1 << 20


def _with_string(data: bytes, text: str, body: bytes) -> bytes:
    """`data` with the string pool entry `text` replaced by the
    string_data_item of raw `body`."""
    (slot,) = [slot for slot, pos in _string_data(data)
               if decode_mutf8(data, pos, len(data))[0] == text]
    return _with_string_body(data, slot,
                             encode_uleb128(len(body)) + body + b"\x00")


# Descriptor bytes that all read as a class under the crypto key
# androidx.security.crypto: `descriptor_to_dotted` keeps a descriptor that
# is not `L...;` as it is, and C1 8C is an overlong `L`.
CRYPTO_DESCRIPTORS = {
    "slashes": b"Landroidx/security/crypto/Foo;",
    "array": b"[Landroidx/security/crypto/Foo;",
    "dots-and-slash": b"Landroidx.security.crypto/Foo;",
    "dotted": b"androidx.security.crypto.Foo",
    "dotted-array": b"[androidx.security.crypto.Foo",
    "overlong-L": b"\xc1\x8candroidx/security/crypto/Foo;",
}


@pytest.mark.parametrize("form", list(CRYPTO_DESCRIPTORS))
def test_selection_keeps_every_descriptor_form_of_a_key(form):
    data = _with_string(
        build_fixture_dex([("com.a.B", [("androidx.security.crypto.Foo",
                                         "go")])]),
        "Landroidx/security/crypto/Foo;", CRYPTO_DESCRIPTORS[form])
    verdict, records = _hits_agree(data)
    assert verdict == "both"
    assert [(r.detector, r.caller_class) for r in records] == [
        ("jetpack_security", "com.a.B")]


def test_selection_keeps_an_inner_class_of_a_pattern_class():
    builder = "android.security.keystore.KeyGenParameterSpec$Builder"
    data = build_fixture_dex([("com.a.B", [(builder, "setIsStrongBoxBacked"),
                                           (builder, "setNotAPatternRow")])])
    verdict, records = _hits_agree(data)
    assert verdict == "both"
    assert [(r.detector, r.target_class, r.target_method)
            for r in records] == [("keystore", builder,
                                   "setIsStrongBoxBacked")]


def test_selection_escapes_keys_with_regex_metacharacters():
    # "int[]" names the array type [I: its key is cut at the `[`, and the
    # primitive letter reads as int.
    index = index_patterns([
        PatternSet("keystore", KIND_TEE_API, (("com.x.Y$Z", "go"),
                                              ("int[]", "clone"))),
        PatternSet("dashed", KIND_CRYPTO_SOFTWARE, (("com.x-y", WILDCARD),))])
    data = build_fixture_dex([("com.a.B", [("com.x.Y$Z", "go"),
                                           ("com.x.Y", "go"),
                                           ("com.xy.Lib", "run"),
                                           ("com.x.Ints", "clone")])])
    data = _with_string(data, "Lcom/xy/Lib;", b"Lcom/x-y/Lib;")
    data = _with_string(data, "Lcom/x/Ints;", b"[I")
    verdict, records = _hits_agree(data, index)
    assert verdict == "both"
    assert sorted((r.detector, r.target_class) for r in records) == [
        ("dashed", "com.x-y.Lib"), ("keystore", "com.x.Y$Z"),
        ("keystore", "int[]")]


def _malformed_unused_string(data: bytes) -> bytes:
    last_slot = _string_data(data)[-1][0]
    return _with_string_body(data, last_slot, b"\x02\xc3\x41\x00")


def _malformed_unused_type_list(data: bytes) -> bytes:
    data = bytearray(data)
    assert _patch_type_lists(data, lambda d, slot, off: struct.pack_into(
        "<H", d, off + 4, 0xFFFF)) == 1
    return bytes(data)


def _malformed_unused_descriptor(data: bytes) -> bytes:
    # A parameter type only: no method entry is defined by it.
    return _with_string(data, "Lq/r/Param;", b"Lq/r/P\xc3\x41;")


@pytest.mark.parametrize("break_", [
    _malformed_unused_string, _malformed_unused_type_list,
    _malformed_unused_descriptor], ids=["string", "type-list", "descriptor"])
def test_malformed_entry_no_selected_entry_uses_fails_only_the_full_parse(
        break_):
    plan = [("com.a.B", [("javax.crypto.Cipher", "getInstance"),
                         ("x.y.Z", "go", "void", ("q.r.Param",))])]
    good = build_fixture_dex(plan, extra_strings=["unused"])
    expected = _full_records(parse_dex(good))
    assert [r.target_class for r in expected] == ["javax.crypto.Cipher"]
    bad = break_(good)
    with pytest.raises(MalformedDexError):
        parse_dex(bad)
    assert _hits_agree(bad) == ("full-failed", expected)
