"""APK container access: ZIP central directory parsing and entry extraction.

APK files are ordinary ZIP archives. Only the two methods that occur in real
app packages are supported (stored, deflated); ZIP64 and multi-disk archives
are rejected as malformed since they do not appear at app scale.
"""

from __future__ import annotations

import hashlib
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    DecompressionError,
    EntryNotFoundError,
    MalformedArchiveError,
    SizeMismatchError,
)

_EOCD_SIG = 0x06054B50
_CDIR_SIG = 0x02014B50
_LOCAL_SIG = 0x04034B50

_EOCD_FMT = "<IHHHHIIH"
_CDIR_FMT = "<IHHHHHHIIIHHHHHII"
_LOCAL_FMT = "<IHHHHHIIIHH"

_METHOD_STORED = 0
_METHOD_DEFLATED = 8

_DEX_NAME = re.compile(r"^classes(?:\.dex|([2-9]|[1-9][0-9]+)\.dex)$")

_READ_CHUNK = 1 << 20

# Largest declared uncompressed size read_entry accepts. A 4 MB deflate
# stream can truly inflate to the 4 GiB a ZIP size field allows, so larger
# entries are refused before any inflation.
MAX_ENTRY_SIZE = 512 << 20


@dataclass(frozen=True)
class EntryMeta:
    """One central-directory entry with its resolved data region."""

    name: str
    compressed_size: int
    uncompressed_size: int
    method: str                 # "stored" | "deflated" | "unsupported"
    method_code: int
    data_offset: int
    crc32: int
    flags: int


@dataclass(frozen=True)
class ArchiveIndex:
    """Immutable view of an opened archive; safe to share across readers."""

    entries: tuple[EntryMeta, ...]
    source_size: int
    warnings: tuple[str, ...] = ()
    _data: bytes = field(repr=False, default=b"")
    _by_name: dict = field(repr=False, default_factory=dict)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> EntryMeta | None:
        return self._by_name.get(name)


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

    Entries appear in central-directory order. Duplicate names keep the last
    occurrence (mirrors platform behavior) and leave a warning on the index.
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

    entries: list[EntryMeta] = []
    warnings: list[str] = []
    off = cd_offset
    for _ in range(total_entries):
        if off + 46 > eocd_pos:
            raise MalformedArchiveError("truncated central directory")
        (sig, _ver_made, _ver_need, flags, method, _mtime, _mdate, crc,
         csize, usize, name_len, extra_len, comment_len, _disk,
         _iattr, _eattr, local_off) = struct.unpack_from(_CDIR_FMT, data, off)
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
        (lsig, _lver, _lflags, _lmethod, _lt, _ld, _lcrc, _lcs, _lus,
         lname_len, lextra_len) = struct.unpack_from(_LOCAL_FMT, data, local_off)
        if lsig != _LOCAL_SIG:
            raise MalformedArchiveError(f"bad local header signature for {name!r}")
        data_offset = local_off + 30 + lname_len + lextra_len
        if data_offset + csize > len(data):
            raise MalformedArchiveError(f"entry data out of bounds: {name!r}")

        if method == _METHOD_STORED:
            method_name = "stored"
            if csize != usize:
                raise MalformedArchiveError(
                    f"stored entry with mismatched sizes: {name!r}")
        elif method == _METHOD_DEFLATED:
            method_name = "deflated"
        else:
            method_name = "unsupported"

        entries.append(EntryMeta(
            name=name, compressed_size=csize, uncompressed_size=usize,
            method=method_name, method_code=method, data_offset=data_offset,
            crc32=crc, flags=flags))
        off = name_end + extra_len + comment_len

    by_name: dict[str, EntryMeta] = {}
    for entry in entries:
        if entry.name in by_name:
            warnings.append(f"duplicate entry name kept last occurrence: {entry.name!r}")
        by_name[entry.name] = entry
    # Keep only the surviving occurrence per name, in directory order.
    deduped = tuple(e for e in entries if by_name[e.name] is e)

    return ArchiveIndex(entries=deduped, source_size=len(data),
                        warnings=tuple(warnings), _data=data, _by_name=by_name)


def read_entry(index: ArchiveIndex, name: str,
               cancel_check: Callable[[], None] | None = None) -> bytes:
    """Return the fully decompressed bytes of one entry.

    An entry declaring more than MAX_ENTRY_SIZE bytes raises
    SizeMismatchError before any inflation. `cancel_check` is invoked
    between decompression chunks so long inflations can be abandoned
    cooperatively.
    """
    meta = index.get(name)
    if meta is None:
        raise EntryNotFoundError(name)
    if meta.flags & 0x1:
        raise DecompressionError(f"encrypted entry: {name!r}")
    if meta.uncompressed_size > MAX_ENTRY_SIZE:
        raise SizeMismatchError(
            f"entry {name!r} declares {meta.uncompressed_size} bytes, "
            f"over the {MAX_ENTRY_SIZE}-byte limit")
    raw = index._data[meta.data_offset:meta.data_offset + meta.compressed_size]

    if meta.method == "stored":
        return bytes(raw)
    if meta.method != "deflated":
        raise DecompressionError(
            f"unsupported compression method {meta.method_code} for {name!r}")

    out = bytearray()
    want = meta.uncompressed_size
    decomp = zlib.decompressobj(-15)
    try:
        pos = 0
        while pos < len(raw):
            if cancel_check is not None:
                cancel_check()
            chunk = decomp.decompress(raw[pos:pos + _READ_CHUNK],
                                      want - len(out) + 1)
            out += chunk
            if len(out) > want:
                raise SizeMismatchError(
                    f"entry {name!r} inflates past declared size {want}")
            pos += _READ_CHUNK
            # decompress() may stop early when max_length is hit
            while decomp.unconsumed_tail:
                if cancel_check is not None:
                    cancel_check()
                chunk = decomp.decompress(decomp.unconsumed_tail,
                                          want - len(out) + 1)
                out += chunk
                if len(out) > want:
                    raise SizeMismatchError(
                        f"entry {name!r} inflates past declared size {want}")
        out += decomp.flush()
    except zlib.error as exc:
        raise DecompressionError(f"corrupt deflate stream in {name!r}: {exc}") from exc
    if len(out) != want:
        raise SizeMismatchError(
            f"entry {name!r} inflated to {len(out)} bytes, declared {want}")
    return bytes(out)


def enumerate_dex(index: ArchiveIndex) -> list[str]:
    """Top-level bytecode entries, classes.dex first then ascending number."""
    found = []
    for entry in index.entries:
        if "/" in entry.name:
            continue
        m = _DEX_NAME.match(entry.name)
        if m:
            n = int(m.group(1)) if m.group(1) else 1
            found.append((n, entry.name))
    return [name for _, name in sorted(found)]


def enumerate_native_libs(index: ArchiveIndex) -> list[str]:
    """Entries under lib/ whose filename carries a shared-object suffix."""
    out = []
    for entry in index.entries:
        if not entry.name.startswith("lib/"):
            continue
        base = entry.name.rsplit("/", 1)[-1]
        if ".so" in base:
            out.append(entry.name)
    return out


def sha256_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
