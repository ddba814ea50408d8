from __future__ import annotations

import random
import struct

import pytest

from analytika.errors import MalformedManifestError, MissingPackageNameError
from analytika.manifest import extract_manifest_info, parse_binary_xml

from axml_encoder import ANDROID_NS, Elem, build_axml, manifest_bytes


def test_minimal_manifest_round_trip():
    data = build_axml(Elem("manifest", {"package": "com.example.app"}))
    tree = parse_binary_xml(data)
    assert tree.name == "manifest"
    assert tree.attributes["package"] == "com.example.app"
    assert tree.children == []


def test_plain_text_xml_is_malformed():
    with pytest.raises(MalformedManifestError):
        parse_binary_xml(b'<?xml version="1.0"?><manifest/>')


def test_truncated_document_is_malformed():
    data = manifest_bytes("com.example.app", ("android.permission.INTERNET",))
    with pytest.raises(MalformedManifestError):
        parse_binary_xml(data[:len(data) // 2])


def test_extract_info_package_and_permissions():
    data = manifest_bytes(
        "com.package",
        permissions=("android.permission.INTERNET",
                     "android.permission.CAMERA"),
        min_sdk=26)
    info = extract_manifest_info(parse_binary_xml(data))
    assert info.package_name == "com.package"
    assert info.permissions == ("android.permission.INTERNET",
                                "android.permission.CAMERA")
    assert info.min_sdk == 26


def test_no_permissions_yields_empty_list():
    info = extract_manifest_info(parse_binary_xml(manifest_bytes("com.package")))
    assert info.permissions == ()
    assert info.min_sdk is None


@pytest.mark.parametrize("value", ["\u00b2", "\u0663"],
                         ids=["superscript-two", "arabic-indic-three"])
def test_min_sdk_of_digits_outside_ascii_is_unknown(value):
    # str.isdigit takes both; int() refuses the first and reads the
    # second as 3.
    data = manifest_bytes("com.package", min_sdk=value)
    assert extract_manifest_info(parse_binary_xml(data)).min_sdk is None


def _retyped(data: bytes, value: int, vtype: int, vdata: int) -> bytes:
    """`data` with its one decimal attribute record of `value` given the
    value type `vtype` and data `vdata`."""
    record = struct.pack("<HBBI", 8, 0, 0x10, value)
    assert data.count(record) == 1
    return data.replace(record, struct.pack("<HBBI", 8, 0, vtype, vdata))


@pytest.mark.parametrize("vtype,vdata,min_sdk", [
    (0x01, 0x7F0B0001, None),       # a reference, @integer/min_sdk
    (0x04, struct.unpack("<I", struct.pack("<f", 23.0))[0], None),
    (0x10, 0xFFFFFFFF, -1),
    (0x11, 23, 23),                 # hexadecimal
    (0x12, 0xFFFFFFFF, None),       # boolean true
], ids=["reference", "float", "decimal-minus-one", "hex", "boolean"])
def test_min_sdk_reads_only_integer_types_as_signed_values(vtype, vdata,
                                                           min_sdk):
    data = _retyped(manifest_bytes("com.app", min_sdk=23), 23, vtype, vdata)
    assert extract_manifest_info(parse_binary_xml(data)).min_sdk == min_sdk


def test_a_permission_name_that_is_no_string_is_skipped():
    data = _retyped(manifest_bytes(
        "com.app", permissions=(0x7F0B0001, "android.permission.INTERNET")),
        0x7F0B0001, 0x01, 0x7F0B0001)
    info = extract_manifest_info(parse_binary_xml(data))
    assert info.permissions == ("android.permission.INTERNET",)


def test_missing_package_attribute():
    data = build_axml(Elem("manifest", {"versionName": "1.0"}))
    with pytest.raises(MissingPackageNameError):
        extract_manifest_info(parse_binary_xml(data))


def test_wrong_root_element():
    data = build_axml(Elem("resources", {}))
    with pytest.raises(MalformedManifestError):
        extract_manifest_info(parse_binary_xml(data))


def test_nested_children_and_typed_values():
    data = build_axml(Elem("manifest", {"package": "com.x"}, [
        Elem("application", {(ANDROID_NS, "debuggable"): True}, [
            Elem("activity", {(ANDROID_NS, "exported"): False}),
        ]),
    ]))
    tree = parse_binary_xml(data)
    app = tree.children[0]
    assert app.attributes["debuggable"] is True
    assert app.children[0].attributes["exported"] is False


def test_truncation_fuzz_total():
    data = manifest_bytes("com.example.app",
                          ("android.permission.INTERNET",), min_sdk=21)
    for cut in range(len(data)):
        try:
            parse_binary_xml(data[:cut])
        except MalformedManifestError:
            pass


def test_random_bytes_fuzz_total():
    rng = random.Random(0xA11CE)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        try:
            parse_binary_xml(blob)
        except MalformedManifestError:
            pass


def test_byte_flip_fuzz_total():
    data = manifest_bytes("com.example.app", ("android.permission.INTERNET",))
    rng = random.Random(99)
    for _ in range(400):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            parse_binary_xml(bytes(mutated))
        except MalformedManifestError:
            pass


def test_utf8_string_pool_variant():
    # Hand-built document with a UTF-8 pool: one string "m", element <m>.
    strings = [b"m"]
    blob = bytearray()
    offsets = []
    for raw in strings:
        offsets.append(len(blob))
        blob += bytes([len(raw), len(raw)]) + raw + b"\x00"
    while len(blob) % 4:
        blob += b"\x00"
    strings_start = 28 + 4 * len(strings)
    pool = struct.pack("<HHIIIIII", 0x0001, 28, strings_start + len(blob),
                       len(strings), 0, 1 << 8, strings_start, 0)
    pool += b"".join(struct.pack("<I", off) for off in offsets) + bytes(blob)
    start = struct.pack("<HHIII", 0x0102, 16, 36, 1, 0xFFFFFFFF)
    start += struct.pack("<IIHHHHHH", 0xFFFFFFFF, 0, 0x14, 0x14, 0, 0, 0, 0)
    end = struct.pack("<HHIIIII", 0x0103, 16, 24, 1, 0xFFFFFFFF, 0xFFFFFFFF, 0)
    body = pool + start + end
    doc = struct.pack("<HHI", 0x0003, 8, 8 + len(body)) + body
    tree = parse_binary_xml(doc)
    assert tree.name == "m"


_NO = 0xFFFFFFFF


def _len8(n: int) -> bytes:
    """A UTF-8 pool length: one byte below 0x80, else two, high bit set."""
    return bytes([n]) if n < 0x80 else bytes([0x80 | n >> 8, n & 0xFF])


def _utf8_pool(strings) -> bytes:
    blob, offsets = bytearray(), []
    for s in strings:
        raw = s.encode("utf-8")
        offsets.append(len(blob))
        blob += _len8(len(s)) + _len8(len(raw)) + raw + b"\x00"
    blob += bytes(-len(blob) % 4)
    strings_start = 28 + 4 * len(strings)
    return (struct.pack("<HHIIIIII", 0x0001, 28, strings_start + len(blob),
                        len(strings), 0, 1 << 8, strings_start, 0)
            + struct.pack(f"<{len(strings)}I", *offsets) + bytes(blob))


def _attr(name_idx: int, raw_idx: int, vtype: int, vdata: int) -> bytes:
    return struct.pack("<IIIHBBI", _NO, name_idx, raw_idx, 8, 0, vtype, vdata)


def _element(name_idx: int, *attrs: bytes, attr_size: int = 20) -> bytes:
    """A start chunk, its attribute records and the matching end chunk."""
    records = b"".join(attrs)
    start = struct.pack("<HHIII", 0x0102, 16, 36 + len(records), 1, _NO)
    start += struct.pack("<IIHHHHHH", _NO, name_idx, 0x14, attr_size,
                         len(attrs), 0, 0, 0)
    end = struct.pack("<HHIIIII", 0x0103, 16, 24, 1, _NO, _NO, name_idx)
    return start + records + end


def _document(*chunks: bytes) -> bytes:
    body = b"".join(chunks)
    return struct.pack("<HHI", 0x0003, 8, 8 + len(body)) + body


def test_utf8_pool_reads_two_byte_lengths():
    # 150 characters in 300 bytes: both lengths take the two-byte form.
    name = "é" * 150
    tree = parse_binary_xml(_document(_utf8_pool([name]), _element(0)))
    assert tree.name == name


def test_typed_string_attribute_without_raw_value():
    data = _document(_utf8_pool(["manifest", "package", "com.app"]),
                     _element(0, _attr(1, _NO, 0x03, 2)))
    assert extract_manifest_info(parse_binary_xml(data)).package_name == "com.app"


def test_min_sdk_of_ascii_digits_reads_as_an_integer():
    data = manifest_bytes("com.package", min_sdk="23")
    assert extract_manifest_info(parse_binary_xml(data)).min_sdk == 23


def _refused(data: bytes, message: str) -> None:
    with pytest.raises(MalformedManifestError, match=message):
        parse_binary_xml(data)


def test_attribute_record_too_small():
    _refused(_document(_utf8_pool(["m", "a"]),
                       _element(0, _attr(1, 0, 0x03, 0), attr_size=16)),
             "attribute record too small")


def test_bad_string_pool_header_size():
    pool = bytearray(_utf8_pool(["m"]))
    struct.pack_into("<H", pool, 2, 20)
    _refused(_document(bytes(pool), _element(0)), "bad string pool header size")


def test_document_without_an_element():
    _refused(_document(_utf8_pool(["m"])), "document has no root element")


@pytest.mark.parametrize("size", [24, 32])
def test_element_chunk_shorter_than_its_fixed_part(size):
    # The start chunk keeps its first `size` of 36 bytes; the end chunk
    # follows at once, so a reader past the chunk would read its bytes.
    chunks = bytearray(_element(0))
    struct.pack_into("<I", chunks, 4, size)
    del chunks[size:36]
    _refused(_document(_utf8_pool(["m"]), bytes(chunks)),
             "element chunk too short")


def test_string_pool_offsets_past_their_chunk():
    # Two offsets but room for one: the second would be read from the
    # empty chunk that follows the pool.
    pool = struct.pack("<HHIIIIII", 0x0001, 28, 32, 2, 0, 1 << 8, 28, 0)
    pool += struct.pack("<I", 0)
    _refused(_document(pool, struct.pack("<HHI", 0, 0, 8), _element(0)),
             "string pool count exceeds chunk size")


def test_utf16_string_length_past_its_pool():
    # The one string starts at the pool's last byte, so its two-byte length
    # would take its second byte from the empty chunk that follows.
    pool = struct.pack("<HHIIIIII", 0x0001, 28, 33, 1, 0, 0, 32, 0)
    pool += struct.pack("<I", 0) + b"\x00"
    _refused(_document(pool, struct.pack("<HHI", 0, 0, 8), _element(0)),
             "truncated string length")


def _one_utf8_string(blob: bytes) -> bytes:
    """A UTF-8 pool whose one string starts at its data and whose chunk
    ends right after `blob`, then an empty chunk to read into."""
    pool = struct.pack("<HHIIIIII", 0x0001, 28, 32 + len(blob), 1, 0, 1 << 8,
                       32, 0)
    return pool + struct.pack("<I", 0) + blob + struct.pack("<HHI", 0, 0, 8)


def test_utf8_string_data_past_its_pool():
    # Lengths of 1 character and 5 bytes, with 2 bytes left in the pool.
    _refused(_document(_one_utf8_string(b"\x01\x05ab"), _element(0)),
             "string data outside pool")


def test_utf8_two_byte_length_past_its_pool():
    # The length's first byte has its high bit set and ends the pool.
    _refused(_document(_one_utf8_string(b"\x81"), _element(0)),
             "truncated string length")


def test_typed_string_attribute_past_the_pool():
    # No raw value, and a typed string index one past the three strings.
    _refused(_document(_utf8_pool(["manifest", "package", "com.app"]),
                       _element(0, _attr(1, _NO, 0x03, 3))),
             "attribute string index out of pool bounds")
