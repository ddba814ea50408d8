from __future__ import annotations

import hashlib
import io
import re
import struct
import warnings
import zipfile

import pytest

from analytika import container
from analytika.container import (
    MAX_ENTRY_SIZE,
    enumerate_dex,
    enumerate_native_libs,
    open_archive,
    read_entry,
    sha256_digest,
)
from analytika.errors import (
    DecompressionError,
    EntryNotFoundError,
    MalformedArchiveError,
    SizeMismatchError,
)

from conftest import make_apk, make_fixture_apk


def test_single_stored_entry_round_trip():
    data = make_apk({"a.txt": b"hello world"}, stored=("a.txt",))
    index = open_archive(data)
    assert list(index.entries) == ["a.txt"]
    meta = index.entries["a.txt"]
    assert meta.method_code == zipfile.ZIP_STORED
    assert meta.compressed_size == meta.uncompressed_size
    assert read_entry(index, "a.txt") == b"hello world"


def test_empty_input_is_malformed():
    with pytest.raises(MalformedArchiveError):
        open_archive(b"")


def test_fixture_apk_entry_list_matches_independent_lister():
    apk = make_fixture_apk(
        dex_plans=[[("com.a.B", [])], [("com.c.D", [])]],
        native_libs=("lib/arm64-v8a/libcrypto.so",))
    index = open_archive(apk)
    expected = zipfile.ZipFile(io.BytesIO(apk)).namelist()
    names = list(index.entries)
    assert sorted(names) == sorted(expected)
    assert set(names) == {
        "AndroidManifest.xml", "classes.dex", "classes2.dex",
        "lib/arm64-v8a/libcrypto.so"}


def test_read_entry_digest_matches_recorded_value():
    apk = make_fixture_apk(dex_plans=[[("com.a.B", [])]])
    recorded = {name: hashlib.sha256(zipfile.ZipFile(io.BytesIO(apk)).read(name)).hexdigest()
                for name in zipfile.ZipFile(io.BytesIO(apk)).namelist()}
    index = open_archive(apk)
    for name, meta in index.entries.items():
        payload = read_entry(index, name)
        assert len(payload) == meta.uncompressed_size
        assert sha256_digest(payload) == recorded[name]


def test_read_absent_entry():
    index = open_archive(make_apk({"a.txt": b"x"}))
    with pytest.raises(EntryNotFoundError):
        read_entry(index, "missing.bin")


def test_sha256_known_vectors():
    assert sha256_digest(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert sha256_digest(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_enumerate_dex_ordering():
    apk = make_apk({"classes.dex": b"a", "classes3.dex": b"b",
                    "classes2.dex": b"c", "classes10.dex": b"d"})
    assert enumerate_dex(open_archive(apk)) == [
        "classes.dex", "classes2.dex", "classes3.dex", "classes10.dex"]


def test_enumerate_dex_excludes_non_matching_names():
    apk = make_apk({"resources.arsc": b"x", "assets/classes2.dex": b"y",
                    "classes.dex": b"z", "classes1.dex": b"no",
                    "classes02.dex": b"no"})
    assert enumerate_dex(open_archive(apk)) == ["classes.dex"]
    assert enumerate_dex(open_archive(make_apk({"resources.arsc": b"x"}))) == []


def test_enumerate_dex_reads_no_name_with_a_trailing_newline():
    apk = make_apk({"classes.dex": b"a", "classes.dex\n": b"b",
                    "classes2.dex\n": b"c"})
    assert enumerate_dex(open_archive(apk)) == ["classes.dex"]


def test_enumerate_native_libs():
    apk = make_apk({
        "lib/arm64-v8a/libcrypto.so": b"1",
        "lib/x86/libfoo.so.1.2": b"2",
        "assets/libbar.so": b"3",
        "lib/arm64-v8a/readme.txt": b"4",
    })
    assert sorted(enumerate_native_libs(open_archive(apk))) == [
        "lib/arm64-v8a/libcrypto.so", "lib/x86/libfoo.so.1.2"]


def test_truncation_fuzz_never_crashes():
    apk = make_apk({"a.txt": b"payload-a", "b/c.bin": b"\x00" * 64})
    for cut in range(len(apk)):
        try:
            open_archive(apk[:cut])
        except MalformedArchiveError:
            pass


def test_duplicate_entry_keeps_last():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zf.writestr("dup.txt", b"first")
            zf.writestr("other.txt", b"other")
            zf.writestr("dup.txt", b"second")
    index = open_archive(buf.getvalue())
    assert list(index.entries) == ["other.txt", "dup.txt"]
    assert read_entry(index, "dup.txt") == b"second"


def test_unsupported_method_rejected_on_read():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_BZIP2) as zf:
        zf.writestr("packed.bin", b"q" * 100)
    index = open_archive(buf.getvalue())
    assert index.entries["packed.bin"].method_code == zipfile.ZIP_BZIP2
    with pytest.raises(DecompressionError):
        read_entry(index, "packed.bin")


def _central_dir_offset(data: bytes) -> int:
    eocd = data.rfind(b"PK\x05\x06")
    return struct.unpack_from("<I", data, eocd + 16)[0]


def test_size_mismatch_detected():
    data = bytearray(make_apk({"f.bin": b"abcdef" * 50}))
    cd = _central_dir_offset(data)
    usize = struct.unpack_from("<I", data, cd + 24)[0]
    struct.pack_into("<I", data, cd + 24, usize + 1)
    index = open_archive(bytes(data))
    with pytest.raises(SizeMismatchError):
        read_entry(index, "f.bin")


def test_declared_size_over_cap_rejected_before_inflation(monkeypatch):
    data = bytearray(make_apk({"f.bin": b"abcdef" * 50}))
    cd = _central_dir_offset(data)
    struct.pack_into("<I", data, cd + 24, MAX_ENTRY_SIZE + 1)
    index = open_archive(bytes(data))

    def no_inflation(*args):
        raise AssertionError("inflation started")

    monkeypatch.setattr(container.zlib, "decompressobj", no_inflation)
    with pytest.raises(SizeMismatchError, match="limit"):
        read_entry(index, "f.bin")


def test_corrupt_stream_detected():
    data = bytearray(make_apk({"f.bin": b"abcdef" * 50}))
    index = open_archive(bytes(data))
    meta = index.entries["f.bin"]
    data[meta.data_offset:meta.data_offset + meta.compressed_size] = (
        b"\xff" * meta.compressed_size)
    index = open_archive(bytes(data))
    with pytest.raises((DecompressionError, SizeMismatchError)):
        read_entry(index, "f.bin")


def test_stored_size_disagreement_is_malformed():
    data = bytearray(make_apk({"s.bin": b"stored-data"}, stored=("s.bin",)))
    cd = _central_dir_offset(data)
    struct.pack_into("<I", data, cd + 24, 5)   # uncompressed_size field
    with pytest.raises(MalformedArchiveError):
        open_archive(bytes(data))


def test_data_region_bounds_checked():
    data = bytearray(make_apk({"f.bin": b"x" * 100}))
    cd = _central_dir_offset(data)
    struct.pack_into("<I", data, cd + 20, 1 << 30)   # compressed_size field
    with pytest.raises(MalformedArchiveError):
        open_archive(bytes(data))


def _eocd_offset(data: bytes) -> int:
    return data.rfind(b"PK\x05\x06")


def _set(fmt: str, where, value):
    """A mutation that packs `value` as `fmt` at the offset `where(data)`."""
    def mutate(data: bytearray) -> None:
        struct.pack_into(fmt, data, where(data), *value)
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_set("<H", lambda d: _eocd_offset(d) + 4, (1,)),
     "multi-disk archives are not supported"),
    (_set("<I", lambda d: _eocd_offset(d) + 16, (0xFFFFFFFF,)),
     "zip64 archives are not supported"),
    (_set("<I", lambda d: _eocd_offset(d) + 12, (46 + len("a.txt") + 1,)),
     "central directory overlaps end record"),
    (_set("<HH", lambda d: _eocd_offset(d) + 8, (2, 2)),
     "truncated central directory"),
    (_set("<I", _central_dir_offset, (0,)), "bad central-directory signature at 0x"),
    (_set("<H", lambda d: _central_dir_offset(d) + 28, (0xFFFF,)),
     "entry name extends past central directory"),
    (_set("<I", lambda d: _central_dir_offset(d) + 20, (0xFFFFFFFF,)),
     "zip64 entry not supported: 'a.txt'"),
    (_set("<I", lambda d: _central_dir_offset(d) + 42, (1 << 20,)),
     "local header out of bounds: 'a.txt'"),
    (_set("<I", lambda d: 0, (0,)),
     "bad local header signature for 'a.txt'"),
], ids=["multi-disk", "zip64-end-record", "cd-overlaps-end-record",
        "truncated-cd", "bad-cd-signature", "name-past-cd", "zip64-entry",
        "local-header-out-of-bounds", "bad-local-signature"])
def test_structural_refusals_keep_their_messages(mutate, message):
    data = bytearray(make_apk({"a.txt": b"payload-" * 16}))
    mutate(data)
    with pytest.raises(MalformedArchiveError, match=re.escape(message)):
        open_archive(bytes(data))


def test_encrypted_entry_refused_on_read():
    data = bytearray(make_apk({"a.txt": b"payload-" * 16}))
    flags_at = _central_dir_offset(data) + 8
    struct.pack_into("<H", data, flags_at,
                     struct.unpack_from("<H", data, flags_at)[0] | 0x1)
    with pytest.raises(DecompressionError, match="encrypted entry: 'a.txt'"):
        read_entry(open_archive(bytes(data)), "a.txt")


def test_inflation_past_declared_size_stops():
    data = bytearray(make_apk({"a.txt": b"payload-" * 16}))
    usize_at = _central_dir_offset(data) + 24
    struct.pack_into("<I", data, usize_at, 8 * 16 - 1)
    with pytest.raises(SizeMismatchError,
                       match="entry 'a.txt' inflates past declared size 127"):
        read_entry(open_archive(bytes(data)), "a.txt")


def test_utf8_flagged_name_that_is_no_utf8_decodes_with_replacement():
    data = bytearray(make_apk({"é.txt": b"accent"}))
    name_at = _central_dir_offset(data) + 46
    assert struct.unpack_from("<H", data, _central_dir_offset(data) + 8)[0] & 0x800
    assert data[name_at:name_at + 2] == "é".encode()
    data[name_at] = 0xFF            # no UTF-8 sequence starts with 0xFF
    index = open_archive(bytes(data))
    assert read_entry(index, "\ufffd\ufffd.txt") == b"accent"
