"""APK container access: ZIP central directory parsing and entry extraction.

APK files are ordinary ZIP archives. The index is one map from entry name to
its metadata, built in one pass over the central directory; each directory
entry and local header is bounds-checked, then unpacked once. Only the
stored and deflated methods are read, and ZIP64 and multi-disk archives are
refused as malformed. A deflated entry is inflated from a view of the
archive bytes into one buffer that becomes the result, so it costs about
its own size.
"""

from __future__ import annotations

import hashlib
import io
import re
import struct
import zlib
from typing import Callable, NamedTuple

from .errors import (
    DecompressionError,
    EntryNotFoundError,
    MalformedArchiveError,
    SizeMismatchError,
)

_CDIR_SIG = 0x02014B50
_LOCAL_SIG = 0x04034B50

_EOCD_FMT = "<IHHHHIIH"
# Only the fields the reader uses: signature, flags, method, compressed and
# uncompressed size, name/extra/comment lengths and local header offset.
_CDIR = struct.Struct("<I4xHH8xIIHHH8xI")
# Signature and the local name/extra lengths.
_LOCAL = struct.Struct("<I22xHH")

_METHOD_STORED = 0
_METHOD_DEFLATED = 8

# Matched whole: `$` would also accept a name with a trailing newline.
_DEX_NAME = re.compile(r"classes(?:\.dex|([2-9]|[1-9][0-9]+)\.dex)")

_READ_CHUNK = 1 << 20

# Largest declared uncompressed size read_entry accepts. A 4 MB deflate
# stream can truly inflate to the 4 GiB a ZIP size field allows, so larger
# entries are refused before any inflation.
MAX_ENTRY_SIZE = 512 << 20


class EntryMeta(NamedTuple):
    """One central-directory entry with its resolved data region."""

    compressed_size: int
    uncompressed_size: int
    method_code: int            # ZIP compression method number
    data_offset: int
    flags: int


class ArchiveIndex(NamedTuple):
    """An opened archive: its bytes and each entry name's metadata, in
    central-directory order. Readers only read it, so it may be shared."""

    data: bytes
    entries: dict[str, EntryMeta]


def _find_eocd(data: bytes) -> tuple:
    # Search backwards: the EOCD is the last record, possibly followed by a
    # comment of up to 65535 bytes.
    lo = max(0, len(data) - (22 + 0xFFFF))
    pos = data.rfind(b"PK\x05\x06", lo)
    while pos >= 0:
        if pos + 22 <= len(data):
            fields = struct.unpack_from(_EOCD_FMT, data, pos)
            return pos, fields
        pos = data.rfind(b"PK\x05\x06", lo, pos)
    raise MalformedArchiveError("end-of-central-directory record not found")


def open_archive(data: bytes) -> ArchiveIndex:
    """Build an ArchiveIndex from in-memory archive bytes.

    Entries appear in central-directory order. A repeated name keeps its
    last occurrence, at that occurrence's place; Python's zipfile also
    reads the last one by name.
    Raises MalformedArchiveError for anything structurally unsound.
    """
    if not data:
        raise MalformedArchiveError("empty input")
    if len(data) < 22:
        raise MalformedArchiveError("input shorter than an empty archive")

    eocd_pos, (_, disk_no, cd_disk, disk_entries, total_entries,
               cd_size, cd_offset, _comment_len) = _find_eocd(data)

    if disk_no != 0 or cd_disk != 0 or disk_entries != total_entries:
        raise MalformedArchiveError("multi-disk archives are not supported")
    if total_entries == 0xFFFF or cd_offset == 0xFFFFFFFF or cd_size == 0xFFFFFFFF:
        raise MalformedArchiveError("zip64 archives are not supported")
    if cd_offset + cd_size > eocd_pos:
        raise MalformedArchiveError("central directory overlaps end record")

    # tuple.__new__ skips the named tuple's Python-level constructor.
    new_meta = tuple.__new__
    entries: dict[str, EntryMeta] = {}
    off = cd_offset
    for _ in range(total_entries):
        if off + 46 > eocd_pos:
            raise MalformedArchiveError("truncated central directory")
        (sig, flags, method, csize, usize, name_len, extra_len, comment_len,
         local_off) = _CDIR.unpack_from(data, off)
        if sig != _CDIR_SIG:
            raise MalformedArchiveError(f"bad central-directory signature at {off:#x}")
        name_end = off + 46 + name_len
        if name_end > eocd_pos:
            raise MalformedArchiveError("entry name extends past central directory")
        raw_name = data[off + 46:name_end]
        try:
            name = raw_name.decode("utf-8") if flags & 0x800 else raw_name.decode("cp437")
        except UnicodeDecodeError:
            name = raw_name.decode("utf-8", errors="replace")
        if csize == 0xFFFFFFFF or usize == 0xFFFFFFFF or local_off == 0xFFFFFFFF:
            raise MalformedArchiveError(f"zip64 entry not supported: {name!r}")

        # The local header owns the true name/extra lengths, which decide
        # where the entry's data region starts.
        if local_off + 30 > len(data):
            raise MalformedArchiveError(f"local header out of bounds: {name!r}")
        lsig, lname_len, lextra_len = _LOCAL.unpack_from(data, local_off)
        if lsig != _LOCAL_SIG:
            raise MalformedArchiveError(f"bad local header signature for {name!r}")
        data_offset = local_off + 30 + lname_len + lextra_len
        if data_offset + csize > len(data):
            raise MalformedArchiveError(f"entry data out of bounds: {name!r}")

        if method == _METHOD_STORED and csize != usize:
            raise MalformedArchiveError(
                f"stored entry with mismatched sizes: {name!r}")

        entries.pop(name, None)
        entries[name] = new_meta(EntryMeta, (csize, usize, method,
                                             data_offset, flags))
        off = name_end + extra_len + comment_len

    return ArchiveIndex(data, entries)


def read_entry(index: ArchiveIndex, name: str,
               cancel_check: Callable[[], None] | None = None) -> bytes:
    """Return the fully decompressed bytes of one entry.

    An entry declaring more than MAX_ENTRY_SIZE bytes raises
    SizeMismatchError before any inflation, and one that inflates past its
    declared size raises at the first piece past it. A deflated entry is
    read through a view of the archive bytes, _READ_CHUNK bytes of input
    at a time, and inflated in pieces of at most _READ_CHUNK bytes into one
    buffer that becomes the result, so it costs its own size (plus up to
    an eighth while the buffer grows) and about two pieces; a stored entry
    is one copy. `cancel_check` is invoked before each piece so long
    inflations can be abandoned cooperatively.
    """
    meta = index.entries.get(name)
    if meta is None:
        raise EntryNotFoundError(name)
    if meta.flags & 0x1:
        raise DecompressionError(f"encrypted entry: {name!r}")
    if meta.uncompressed_size > MAX_ENTRY_SIZE:
        raise SizeMismatchError(
            f"entry {name!r} declares {meta.uncompressed_size} bytes, "
            f"over the {MAX_ENTRY_SIZE}-byte limit")
    raw = memoryview(index.data)[
        meta.data_offset:meta.data_offset + meta.compressed_size]

    if meta.method_code == _METHOD_STORED:
        return bytes(raw)
    if meta.method_code != _METHOD_DEFLATED:
        raise DecompressionError(
            f"unsupported compression method {meta.method_code} for {name!r}")

    # getvalue() hands back the buffer itself while no view of it is
    # alive, so getbuffer() is never called.
    out = io.BytesIO()
    written = 0
    want = meta.uncompressed_size
    decomp = zlib.decompressobj(-15)
    try:
        for pos in range(0, len(raw), _READ_CHUNK):
            if decomp.eof:
                break               # bytes past the final block are ignored
            pending = raw[pos:pos + _READ_CHUNK]
            while True:
                if cancel_check is not None:
                    cancel_check()
                # Capped one byte past `want`, a piece passes it only once
                # the entry has inflated past its size, which raises at once.
                cap = min(want - written + 1, _READ_CHUNK)
                piece = decomp.decompress(pending, cap)
                written += out.write(piece)
                if written > want:
                    raise SizeMismatchError(
                        f"entry {name!r} inflates past declared size {want}")
                pending = decomp.unconsumed_tail
                # A full piece may leave output behind, even with no input
                # left; a short one ends the slice, which it must have used.
                if len(piece) < cap:
                    if pending:
                        raise zlib.error("inflate stopped with input left")
                    break
        written += out.write(decomp.flush())
    except zlib.error as exc:
        raise DecompressionError(f"corrupt deflate stream in {name!r}: {exc}") from exc
    if written != want:
        raise SizeMismatchError(
            f"entry {name!r} inflated to {written} bytes, declared {want}")
    return out.getvalue()


def enumerate_dex(index: ArchiveIndex) -> list[str]:
    """Top-level bytecode entries, classes.dex first then ascending number."""
    found = []
    for name in index.entries:
        m = _DEX_NAME.fullmatch(name)
        if m:
            n = int(m.group(1)) if m.group(1) else 1
            found.append((n, name))
    return [name for _, name in sorted(found)]


def enumerate_native_libs(index: ArchiveIndex) -> list[str]:
    """Entries under lib/ whose filename carries a shared-object suffix."""
    return [name for name in index.entries
            if name.startswith("lib/") and ".so" in name.rsplit("/", 1)[-1]]


def sha256_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
