"""Standalone invoke-instruction lister used as a cross-check oracle.

Implemented from scratch against the published DEX and instruction-format
layouts, sharing no code with the package under test: strings are decoded
with an independent modified-UTF-8 routine, instruction sizes come from a
per-opcode format-name table (width = leading digit of the format id), and
output is emitted in smali-style descriptor form. Intentionally strict and
slow; it exists only to disagree loudly with the production parser.
"""

from __future__ import annotations

import struct

# opcode -> instruction format id; width in code units = int(fmt[0])
_FMT = {}


def _assign(fmt, *opcodes):
    for op in opcodes:
        _FMT[op] = fmt


_assign("10x", 0x00, 0x0E)
_assign("12x", 0x01, 0x04, 0x07, 0x21, *range(0x7B, 0x90), *range(0xB0, 0xD0))
_assign("22x", 0x02, 0x05, 0x08)
_assign("32x", 0x03, 0x06, 0x09)
_assign("11x", *range(0x0A, 0x0E), 0x0F, 0x10, 0x11, 0x1D, 0x1E, 0x27)
_assign("11n", 0x12)
_assign("21s", 0x13, 0x16)
_assign("31i", 0x14, 0x17)
_assign("21h", 0x15, 0x19)
_assign("51l", 0x18)
_assign("21c", 0x1A, 0x1C, 0x1F, 0x22, *range(0x60, 0x6E), 0xFE, 0xFF)
_assign("31c", 0x1B)
_assign("22c", 0x20, 0x23, *range(0x52, 0x60))
_assign("35c", 0x24, *range(0x6E, 0x73), 0xFC)
_assign("3rc", 0x25, *range(0x74, 0x79), 0xFD)
_assign("31t", 0x26, 0x2B, 0x2C)
_assign("10t", 0x28)
_assign("20t", 0x29)
_assign("30t", 0x2A)
_assign("23x", *range(0x2D, 0x32), *range(0x44, 0x52), *range(0x90, 0xB0))
_assign("22t", *range(0x32, 0x38))
_assign("21t", *range(0x38, 0x3E))
_assign("22s", *range(0xD0, 0xD8))
_assign("22b", *range(0xD8, 0xE3))
_assign("45cc", 0xFA)
_assign("4rcc", 0xFB)

_INVOKES = set(range(0x6E, 0x73)) | set(range(0x74, 0x79))


def _mutf8(buf, pos):
    units = []
    while buf[pos] != 0:
        b0 = buf[pos]
        if b0 < 0x80:
            units.append(b0)
            pos += 1
        elif b0 & 0xE0 == 0xC0:
            units.append(((b0 & 0x1F) << 6) | (buf[pos + 1] & 0x3F))
            pos += 2
        elif b0 & 0xF0 == 0xE0:
            units.append(((b0 & 0x0F) << 12) | ((buf[pos + 1] & 0x3F) << 6)
                         | (buf[pos + 2] & 0x3F))
            pos += 3
        else:
            raise ValueError(f"bad mutf8 byte {b0:#x}")
    packed = b"".join(struct.pack("<H", u) for u in units)
    return packed.decode("utf-16-le", "surrogatepass")


def _uleb(buf, pos):
    value = shift = 0
    while True:
        b = buf[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7


def list_strings(data: bytes) -> list[str]:
    """Every string of the file's string pool, in pool order."""
    if data[:4] != b"dex\n":
        raise ValueError("not a dex file")
    str_n, str_off = struct.unpack_from("<2I", data, 56)
    strings = []
    for i in range(str_n):
        off = struct.unpack_from("<I", data, str_off + 4 * i)[0]
        _, pos = _uleb(data, off)
        strings.append(_mutf8(data, pos))
    return strings


def list_invokes(data: bytes) -> list[tuple[str, str, str]]:
    """Return (caller descriptor, target class descriptor, method name)
    triples for every invoke instruction in the file."""
    strings = list_strings(data)
    hdr = struct.unpack_from("<20I", data, 32)
    (_, _, _, _, _, _,
     _str_n, _str_off, type_n, type_off, _proto_n, _proto_off,
     _f_n, _f_off, meth_n, meth_off, cls_n, cls_off, _, _) = hdr

    type_descs = [strings[struct.unpack_from("<I", data, type_off + 4 * i)[0]]
                  for i in range(type_n)]

    methods = []
    for i in range(meth_n):
        cls, _proto, name = struct.unpack_from("<HHI", data, meth_off + 8 * i)
        methods.append((type_descs[cls], strings[name]))

    triples = []
    for i in range(cls_n):
        row = struct.unpack_from("<8I", data, cls_off + 32 * i)
        caller = type_descs[row[0]]
        data_off = row[6]
        if data_off == 0:
            continue
        sfields, pos = _uleb(data, data_off)
        ifields, pos = _uleb(data, pos)
        direct, pos = _uleb(data, pos)
        virtual, pos = _uleb(data, pos)
        for _ in range(sfields + ifields):
            _, pos = _uleb(data, pos)
            _, pos = _uleb(data, pos)
        for _ in range(direct + virtual):
            _, pos = _uleb(data, pos)
            _, pos = _uleb(data, pos)
            code_off, pos = _uleb(data, pos)
            if code_off:
                triples.extend(_scan_code(data, code_off, methods, caller))
    return triples


def _scan_code(data, code_off, methods, caller):
    insns_units = struct.unpack_from("<I", data, code_off + 12)[0]
    base = code_off + 16
    unit = 0
    out = []
    while unit < insns_units:
        at = base + 2 * unit
        op = data[at]
        ident = data[at + 1]
        if op == 0x00 and ident in (0x01, 0x02, 0x03):
            if ident == 0x01:
                n = struct.unpack_from("<H", data, at + 2)[0]
                width = n * 2 + 4
            elif ident == 0x02:
                n = struct.unpack_from("<H", data, at + 2)[0]
                width = n * 4 + 2
            else:
                elem = struct.unpack_from("<H", data, at + 2)[0]
                n = struct.unpack_from("<I", data, at + 4)[0]
                width = (n * elem + 1) // 2 + 4
        else:
            fmt = _FMT.get(op)
            if fmt is None:
                raise ValueError(f"unknown opcode {op:#x}")
            width = int(fmt[0])
            if op in _INVOKES:
                idx = struct.unpack_from("<H", data, at + 2)[0]
                target_class, name = methods[idx]
                out.append((caller, target_class, name))
        unit += width
    return out
