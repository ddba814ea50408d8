from __future__ import annotations

import hashlib
import io
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
    assert index.names() == ["a.txt"]
    meta = index.entries[0]
    assert meta.method == "stored"
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
    assert sorted(index.names()) == sorted(expected)
    assert set(index.names()) == {
        "AndroidManifest.xml", "classes.dex", "classes2.dex",
        "lib/arm64-v8a/libcrypto.so"}


def test_read_entry_digest_matches_recorded_value():
    apk = make_fixture_apk(dex_plans=[[("com.a.B", [])]])
    recorded = {name: hashlib.sha256(zipfile.ZipFile(io.BytesIO(apk)).read(name)).hexdigest()
                for name in zipfile.ZipFile(io.BytesIO(apk)).namelist()}
    index = open_archive(apk)
    for meta in index.entries:
        payload = read_entry(index, meta.name)
        assert len(payload) == meta.uncompressed_size
        assert sha256_digest(payload) == recorded[meta.name]


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


def test_duplicate_entry_keeps_last_and_warns():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zf.writestr("dup.txt", b"first")
            zf.writestr("dup.txt", b"second")
    index = open_archive(buf.getvalue())
    assert index.names() == ["dup.txt"]
    assert index.warnings
    assert read_entry(index, "dup.txt") == b"second"


def test_unsupported_method_rejected_on_read():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_BZIP2) as zf:
        zf.writestr("packed.bin", b"q" * 100)
    index = open_archive(buf.getvalue())
    assert index.entries[0].method == "unsupported"
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
    meta = index.entries[0]
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
