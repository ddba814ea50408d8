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

# Each fixed-size record is unpacked once, after one bounds check against
# the chunk it belongs to. Chunk header: type, header size, chunk size.
_CHUNK = struct.Struct("<HHI")
# String pool header after the chunk header: count, flags, strings start.
_POOL = struct.Struct("<8xI4xII")
# Element start chunk, whose fixed part is 36 bytes: name index, then the
# attribute start, size and count.
_ELEMENT = struct.Struct("<20xIHHH")
# Attribute record (20 bytes): name index, raw value index, type, data.
_ATTR = struct.Struct("<4xII3xBI")


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


def _parse_string_pool(data: bytes, base: int, header_size: int,
                       chunk_size: int) -> list[str]:
    if header_size < 28:
        raise MalformedManifestError("bad string pool header size")
    count, flags, strings_start = _POOL.unpack_from(data, base)
    if header_size + 4 * count > chunk_size:
        raise MalformedManifestError("string pool count exceeds chunk size")
    offsets = struct.unpack_from(f"<{count}I", data, base + header_size)
    pool_end = base + chunk_size

    out = []
    utf8 = bool(flags & _UTF8_FLAG)
    for rel in offsets:
        pos = base + strings_start + rel
        if pos >= pool_end:
            raise MalformedManifestError("string offset outside pool")
        if utf8:
            # Two lengths (UTF-16 units, then bytes), each one or two bytes.
            _, pos = _read_len(data, pos, pool_end, 1)
            blen, pos = _read_len(data, pos, pool_end, 1)
            if pos + blen > pool_end:
                raise MalformedManifestError("string data outside pool")
            out.append(data[pos:pos + blen].decode("utf-8", errors="replace"))
        else:
            ulen, pos = _read_len(data, pos, pool_end, 2)
            if pos + 2 * ulen > pool_end:
                raise MalformedManifestError("string data outside pool")
            raw = data[pos:pos + 2 * ulen]
            out.append(raw.decode("utf-16-le", errors="replace"))
    return out


def _read_len(data, pos, end, width):
    """A string length: one `width`-byte unit, or two when the first has its
    high bit set; returns it and the position after it."""
    if pos + width > end:
        raise MalformedManifestError("truncated string length")
    n = int.from_bytes(data[pos:pos + width], "little")
    pos += width
    high = 1 << 8 * width - 1
    if n & high:
        if pos + width > end:
            raise MalformedManifestError("truncated string length")
        n = (n ^ high) << 8 * width | int.from_bytes(data[pos:pos + width],
                                                    "little")
        pos += width
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
    magic, _, file_size = _CHUNK.unpack_from(data)
    if magic != _CHUNK_XML:
        raise MalformedManifestError("not a binary XML document (bad magic)")
    if file_size < 8 or file_size > len(data):
        raise MalformedManifestError("declared size exceeds input")

    pool: list[str] | None = None
    root: XmlElement | None = None
    stack: list[XmlElement] = []

    off = 8
    while off < file_size:
        if off + 8 > file_size:
            raise MalformedManifestError("truncated chunk header")
        ctype, header_size, size = _CHUNK.unpack_from(data, off)
        if size < 8 or off + size > file_size or header_size > size:
            raise MalformedManifestError(f"bad chunk size at {off:#x}")

        if ctype == _CHUNK_STRING_POOL:
            pool = _parse_string_pool(data, off, header_size, size)
        elif ctype == _CHUNK_ELEM_START:
            if pool is None:
                raise MalformedManifestError("element before string pool")
            if size < 36:
                raise MalformedManifestError("element chunk too short")
            name_idx, attr_start, attr_size, attr_count = _ELEMENT.unpack_from(
                data, off)
            if name_idx >= len(pool):
                raise MalformedManifestError("element name index out of pool bounds")
            if attr_size < 20:
                raise MalformedManifestError("attribute record too small")
            elem = XmlElement(name=pool[name_idx])
            a = off + 16 + attr_start
            for _ in range(attr_count):
                if a + 20 > off + size:
                    raise MalformedManifestError("attribute outside element chunk")
                attr_name_idx, raw_idx, vtype, vdata = _ATTR.unpack_from(data, a)
                if attr_name_idx >= len(pool):
                    raise MalformedManifestError("attribute name index out of pool bounds")
                elem.attributes[pool[attr_name_idx]] = _attr_value(
                    pool, raw_idx, vtype, vdata)
                a += attr_size
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
