"""Binary AndroidManifest.xml (AXML) decoding.

The compiled manifest is a chunk stream: a file header, one string pool,
an optional resource map, then namespace/element chunks. Only the chunk
types needed to recover elements and attributes are interpreted; anything
else is skipped by its declared size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import MalformedManifestError, MissingPackageNameError

_CHUNK_XML = 0x0003
_CHUNK_STRING_POOL = 0x0001
_CHUNK_ELEM_START = 0x0102
_CHUNK_ELEM_END = 0x0103

_UTF8_FLAG = 1 << 8
_NO_INDEX = 0xFFFFFFFF

_TYPE_STRING = 0x03
_TYPE_FIRST_INT = 0x10
_TYPE_INT_BOOLEAN = 0x12
_TYPE_LAST_INT = 0x1F


@dataclass
class XmlElement:
    name: str
    attributes: dict[str, object] = field(default_factory=dict)
    children: list["XmlElement"] = field(default_factory=list)

    def find_all(self, name: str) -> list["XmlElement"]:
        return [c for c in self.children if c.name == name]


@dataclass(frozen=True)
class ManifestInfo:
    package_name: str
    permissions: tuple[str, ...] = ()
    min_sdk: int | None = None


def _u16(data, off):
    if off + 2 > len(data):
        raise MalformedManifestError(f"short read at {off:#x}")
    return struct.unpack_from("<H", data, off)[0]


def _u32(data, off):
    if off + 4 > len(data):
        raise MalformedManifestError(f"short read at {off:#x}")
    return struct.unpack_from("<I", data, off)[0]


def _parse_string_pool(data: bytes, chunk_off: int, header_size: int,
                       chunk_size: int) -> list[str]:
    base = chunk_off
    count = _u32(data, base + 8)
    _style_count = _u32(data, base + 12)
    flags = _u32(data, base + 16)
    strings_start = _u32(data, base + 20)
    if header_size < 28 or header_size > chunk_size:
        raise MalformedManifestError("bad string pool header size")
    if count > chunk_size // 4:
        raise MalformedManifestError("string pool count exceeds chunk size")
    offsets = []
    for i in range(count):
        offsets.append(_u32(data, base + header_size + 4 * i))
    pool_end = base + chunk_size

    out = []
    utf8 = bool(flags & _UTF8_FLAG)
    for rel in offsets:
        pos = base + strings_start + rel
        if pos >= pool_end:
            raise MalformedManifestError("string offset outside pool")
        if utf8:
            # Two lengths (UTF-16 units, then bytes), each one or two bytes.
            _, pos = _read_len8(data, pos, pool_end)
            blen, pos = _read_len8(data, pos, pool_end)
            if pos + blen > pool_end:
                raise MalformedManifestError("string data outside pool")
            out.append(data[pos:pos + blen].decode("utf-8", errors="replace"))
        else:
            ulen = _u16(data, pos)
            pos += 2
            if ulen & 0x8000:
                ulen = ((ulen & 0x7FFF) << 16) | _u16(data, pos)
                pos += 2
            if pos + 2 * ulen > pool_end:
                raise MalformedManifestError("string data outside pool")
            raw = data[pos:pos + 2 * ulen]
            out.append(raw.decode("utf-16-le", errors="replace"))
    return out


def _read_len8(data, pos, end):
    if pos >= end:
        raise MalformedManifestError("truncated string length")
    n = data[pos]
    pos += 1
    if n & 0x80:
        if pos >= end:
            raise MalformedManifestError("truncated string length")
        n = ((n & 0x7F) << 8) | data[pos]
        pos += 1
    return n, pos


def _attr_value(pool: list[str], raw_idx: int, vtype: int, vdata: int):
    if raw_idx != _NO_INDEX:
        if raw_idx >= len(pool):
            raise MalformedManifestError("attribute string index out of pool bounds")
        return pool[raw_idx]
    if vtype == _TYPE_STRING:
        if vdata >= len(pool):
            raise MalformedManifestError("attribute string index out of pool bounds")
        return pool[vdata]
    if vtype == _TYPE_INT_BOOLEAN:
        return vdata != 0
    if _TYPE_FIRST_INT <= vtype <= _TYPE_LAST_INT:
        return vdata - (vdata >> 31 << 32)      # a signed 32-bit value
    return None     # a reference, float, dimension or fraction is no integer


def parse_binary_xml(data: bytes) -> XmlElement:
    """Decode AXML bytes into a plain element tree.

    Raises MalformedManifestError for wrong magic, truncated chunks,
    unbalanced elements, or out-of-bounds string references.
    """
    if len(data) < 8:
        raise MalformedManifestError("input shorter than a chunk header")
    if _u16(data, 0) != _CHUNK_XML:
        raise MalformedManifestError("not a binary XML document (bad magic)")
    file_size = _u32(data, 4)
    if file_size < 8 or file_size > len(data):
        raise MalformedManifestError("declared size exceeds input")

    pool: list[str] | None = None
    root: XmlElement | None = None
    stack: list[XmlElement] = []

    off = 8
    while off < file_size:
        if off + 8 > file_size:
            raise MalformedManifestError("truncated chunk header")
        ctype = _u16(data, off)
        header_size = _u16(data, off + 2)
        size = _u32(data, off + 4)
        if size < 8 or off + size > file_size or header_size > size:
            raise MalformedManifestError(f"bad chunk size at {off:#x}")

        if ctype == _CHUNK_STRING_POOL:
            pool = _parse_string_pool(data, off, header_size, size)
        elif ctype == _CHUNK_ELEM_START:
            if pool is None:
                raise MalformedManifestError("element before string pool")
            name_idx = _u32(data, off + 20)
            if name_idx >= len(pool):
                raise MalformedManifestError("element name index out of pool bounds")
            ext = off + 16
            attr_start = _u16(data, ext + 8)
            attr_size = _u16(data, ext + 10)
            attr_count = _u16(data, ext + 12)
            if attr_size < 20:
                raise MalformedManifestError("attribute record too small")
            elem = XmlElement(name=pool[name_idx])
            for i in range(attr_count):
                a = ext + attr_start + i * attr_size
                if a + 20 > off + size:
                    raise MalformedManifestError("attribute outside element chunk")
                attr_name_idx = _u32(data, a + 4)
                raw_idx = _u32(data, a + 8)
                vtype = data[a + 15]
                vdata = _u32(data, a + 16)
                if attr_name_idx >= len(pool):
                    raise MalformedManifestError("attribute name index out of pool bounds")
                elem.attributes[pool[attr_name_idx]] = _attr_value(
                    pool, raw_idx, vtype, vdata)
            if stack:
                stack[-1].children.append(elem)
            elif root is None:
                root = elem
            else:
                raise MalformedManifestError("multiple root elements")
            stack.append(elem)
        elif ctype == _CHUNK_ELEM_END:
            if not stack:
                raise MalformedManifestError("end element without matching start")
            stack.pop()
        # Resource-map, namespace and CDATA chunks hold nothing the manifest
        # facts need; they and chunks of unknown type are skipped by their
        # declared size.
        off += size

    if stack:
        raise MalformedManifestError("unbalanced elements at end of document")
    if root is None:
        raise MalformedManifestError("document has no root element")
    return root


def extract_manifest_info(tree: XmlElement) -> ManifestInfo:
    """Pull the declared package name, permission list, and minSdkVersion."""
    if tree.name != "manifest":
        raise MalformedManifestError(f"root element is {tree.name!r}, not manifest")
    package = tree.attributes.get("package")
    if not isinstance(package, str) or not package:
        raise MissingPackageNameError("manifest has no package attribute")

    permissions = []
    for child in tree.find_all("uses-permission"):
        name = child.attributes.get("name")
        if isinstance(name, str):
            permissions.append(name)

    min_sdk = None
    for child in tree.find_all("uses-sdk"):
        value = child.attributes.get("minSdkVersion")
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            min_sdk = value
        elif isinstance(value, str) and value.isascii() and value.isdigit():
            min_sdk = int(value)

    return ManifestInfo(package_name=package, permissions=tuple(permissions),
                        min_sdk=min_sdk)
