"""DEX bytecode parsing: pools, class definitions, and method invocations.

The parser reads each fixed-width pool (string/type/proto/method ids and
class_defs) with one bulk struct call; the header check has already bounded
every pool region by the file size. String data that is pure ASCII up to
its NUL terminator is decoded as ASCII, anything else by the modified-UTF-8
decoder. Every concrete method body is walked instruction by instruction,
with byte tables for the width and the invoke kind of each opcode, and the
walk returns the (offset, method index) pair of each invoke-kind
instruction. Invokes are kept as three parallel index columns (calling
class_def, method-pool entry, byte offset), so detectors resolve each
method-pool entry once and select invokes by index; the full method pool
also serves package-reference matching, which needs methods that are
referenced without being invoked.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import MalformedDexError

SUPPORTED_VERSIONS = (b"035", b"037", b"038", b"039")

_ENDIAN_CONSTANT = 0x12345678
_NO_INDEX = 0xFFFFFFFF

# Instruction widths in 16-bit code units, one slot per opcode; 0 marks
# opcodes with no defined format. Derived from the Dalvik format ids
# (10x -> 1, 22c -> 2, 35c -> 3, 45cc -> 4, 51l -> 5, ...).
_WIDTH_RANGES = (
    (0x00, 0x00, 1), (0x01, 0x01, 1), (0x02, 0x02, 2), (0x03, 0x03, 3),
    (0x04, 0x04, 1), (0x05, 0x05, 2), (0x06, 0x06, 3), (0x07, 0x07, 1),
    (0x08, 0x08, 2), (0x09, 0x09, 3), (0x0A, 0x0D, 1), (0x0E, 0x11, 1),
    (0x12, 0x12, 1), (0x13, 0x13, 2), (0x14, 0x14, 3), (0x15, 0x16, 2),
    (0x17, 0x17, 3), (0x18, 0x18, 5), (0x19, 0x1A, 2), (0x1B, 0x1B, 3),
    (0x1C, 0x1C, 2), (0x1D, 0x1E, 1), (0x1F, 0x20, 2),
    (0x21, 0x21, 1), (0x22, 0x23, 2), (0x24, 0x26, 3), (0x27, 0x28, 1),
    (0x29, 0x29, 2), (0x2A, 0x2C, 3), (0x2D, 0x3D, 2), (0x3E, 0x43, 0),
    (0x44, 0x6D, 2), (0x6E, 0x72, 3), (0x73, 0x73, 0), (0x74, 0x78, 3),
    (0x79, 0x7A, 0), (0x7B, 0x8F, 1), (0x90, 0xAF, 2), (0xB0, 0xCF, 1),
    (0xD0, 0xE2, 2), (0xE3, 0xF9, 0), (0xFA, 0xFB, 4), (0xFC, 0xFD, 3),
    (0xFE, 0xFF, 2),
)

INSTRUCTION_WIDTHS = [0] * 256
for _lo, _hi, _w in _WIDTH_RANGES:
    for _op in range(_lo, _hi + 1):
        INSTRUCTION_WIDTHS[_op] = _w

INVOKE_OPCODES = frozenset(range(0x6E, 0x73)) | frozenset(range(0x74, 0x79))

# The same two facts as byte tables, for the per-instruction lookup.
_WIDTHS = bytes(INSTRUCTION_WIDTHS)
_IS_INVOKE = bytes(op in INVOKE_OPCODES for op in range(256))

_PRIMITIVES = {
    "V": "void", "Z": "boolean", "B": "byte", "S": "short", "C": "char",
    "I": "int", "J": "long", "F": "float", "D": "double",
}


@dataclass(frozen=True)
class DexHeader:
    version: str
    file_size: int
    header_size: int
    map_off: int
    string_ids_size: int
    string_ids_off: int
    type_ids_size: int
    type_ids_off: int
    proto_ids_size: int
    proto_ids_off: int
    field_ids_size: int
    field_ids_off: int
    method_ids_size: int
    method_ids_off: int
    class_defs_size: int
    class_defs_off: int
    data_size: int
    data_off: int


@dataclass(frozen=True)
class MethodRef:
    """A method pool entry with its full prototype, so overloads differ."""

    defining_class: str     # dotted, e.g. android.media.MediaDrm
    method_name: str
    return_type: str        # dotted, e.g. void or java.security.Key
    parameters: tuple[str, ...]


@dataclass(frozen=True)
class DexUnit:
    """Parsed pools plus every invoke as parallel columns, in parse order."""

    header: DexHeader
    strings: tuple[str, ...]
    types: tuple[str, ...]
    methods: tuple[MethodRef, ...]
    class_names: tuple[str, ...]    # one per class_def, data or not
    invoke_callers: array           # class_def index into class_names
    invoke_methods: array           # method-pool index into methods
    invoke_offsets: array           # absolute byte offset of the instruction
    entry_name: str


def descriptor_to_dotted(desc: str) -> str:
    dims = 0
    while desc.startswith("["):
        dims += 1
        desc = desc[1:]
    if desc.startswith("L") and desc.endswith(";") and len(desc) > 2:
        base = desc[1:-1].replace("/", ".")
    else:
        base = _PRIMITIVES.get(desc, desc)
    return base + "[]" * dims


def dotted_to_descriptor(name: str) -> str:
    return "L" + name.replace(".", "/") + ";"


def _read_uleb128(data: bytes, pos: int, limit: int) -> tuple[int, int]:
    if pos < limit and data[pos] < 0x80:
        return data[pos], pos + 1
    result = 0
    shift = 0
    for _ in range(5):
        if pos >= limit:
            raise MalformedDexError("uleb128 runs past end of file")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise MalformedDexError("uleb128 longer than five bytes")


def decode_mutf8(data: bytes, pos: int, limit: int) -> tuple[str, int]:
    """Decode a NUL-terminated modified-UTF-8 string starting at pos."""
    units: list[int] = []
    while True:
        if pos >= limit:
            raise MalformedDexError("unterminated string data")
        b = data[pos]
        if b == 0:
            pos += 1
            break
        if b < 0x80:
            units.append(b)
            pos += 1
        elif b >> 5 == 0b110:
            if pos + 1 >= limit or data[pos + 1] >> 6 != 0b10:
                raise MalformedDexError("bad two-byte sequence in string data")
            units.append(((b & 0x1F) << 6) | (data[pos + 1] & 0x3F))
            pos += 2
        elif b >> 4 == 0b1110:
            if pos + 2 >= limit or data[pos + 1] >> 6 != 0b10 or data[pos + 2] >> 6 != 0b10:
                raise MalformedDexError("bad three-byte sequence in string data")
            units.append(((b & 0x0F) << 12) | ((data[pos + 1] & 0x3F) << 6)
                         | (data[pos + 2] & 0x3F))
            pos += 3
        else:
            raise MalformedDexError(f"invalid string byte {b:#x}")
    text = "".join(map(chr, units))
    # Re-pair surrogates so supplementary characters come back intact.
    return (text.encode("utf-16-le", "surrogatepass")
                .decode("utf-16-le", "surrogatepass"), pos)


def _u16(data, off, limit):
    if off + 2 > limit:
        raise MalformedDexError(f"short read at {off:#x}")
    return struct.unpack_from("<H", data, off)[0]


def _u32(data, off, limit):
    if off + 4 > limit:
        raise MalformedDexError(f"short read at {off:#x}")
    return struct.unpack_from("<I", data, off)[0]


def _read_type_list(data: bytes, off: int, limit: int,
                    types: list[str]) -> tuple[str, ...]:
    """Decode a type_list (u32 size, then u16 type indices); 0 means empty."""
    if off == 0:
        return ()
    size = _u32(data, off, limit)
    if off + 4 + 2 * size > limit:
        raise MalformedDexError("type list out of bounds")
    indices = struct.unpack_from(f"<{size}H", data, off + 4)
    if indices and max(indices) >= len(types):
        raise MalformedDexError("type list index out of bounds")
    return tuple(types[i] for i in indices)


def _parse_header(data: bytes) -> DexHeader:
    if len(data) < 0x70:
        raise MalformedDexError("input shorter than a header")
    if data[0:4] != b"dex\n" or data[7] != 0:
        raise MalformedDexError("bad magic")
    version = data[4:7]
    if version not in SUPPORTED_VERSIONS:
        raise MalformedDexError(f"unsupported version {version!r}")
    fields = struct.unpack_from("<20I", data, 32)
    (file_size, header_size, endian_tag, _link_size, _link_off, map_off,
     string_ids_size, string_ids_off, type_ids_size, type_ids_off,
     proto_ids_size, proto_ids_off, field_ids_size, field_ids_off,
     method_ids_size, method_ids_off, class_defs_size, class_defs_off,
     data_size, data_off) = fields
    if endian_tag != _ENDIAN_CONSTANT:
        raise MalformedDexError(f"unsupported endian tag {endian_tag:#x}")
    if file_size > len(data) or file_size < 0x70:
        raise MalformedDexError("declared file size out of bounds")
    if header_size < 0x70 or header_size > file_size:
        raise MalformedDexError("bad header size")
    header = DexHeader(
        version=version.decode("ascii"), file_size=file_size,
        header_size=header_size, map_off=map_off,
        string_ids_size=string_ids_size, string_ids_off=string_ids_off,
        type_ids_size=type_ids_size, type_ids_off=type_ids_off,
        proto_ids_size=proto_ids_size, proto_ids_off=proto_ids_off,
        field_ids_size=field_ids_size, field_ids_off=field_ids_off,
        method_ids_size=method_ids_size, method_ids_off=method_ids_off,
        class_defs_size=class_defs_size, class_defs_off=class_defs_off,
        data_size=data_size, data_off=data_off)
    for size, off, width in (
            (string_ids_size, string_ids_off, 4),
            (type_ids_size, type_ids_off, 4),
            (proto_ids_size, proto_ids_off, 12),
            (field_ids_size, field_ids_off, 8),
            (method_ids_size, method_ids_off, 8),
            (class_defs_size, class_defs_off, 32)):
        if size and (off < header_size or off + size * width > file_size):
            raise MalformedDexError("pool region out of bounds")
    if map_off > file_size:
        raise MalformedDexError("map offset out of bounds")
    return header


def _walk_insns(data: bytes, insns_off: int, insns_units: int, limit: int,
                method_count: int) -> list[tuple[int, int]]:
    """Return (absolute_offset, method_index) for every invoke instruction.

    Walk is bounded by the code region: every step advances at least one
    code unit and overrunning the region is an error, so mutated input can
    never loop unboundedly.
    """
    end = insns_off + 2 * insns_units
    if end > limit:
        raise MalformedDexError("instruction region out of bounds")
    widths, is_invoke = _WIDTHS, _IS_INVOKE
    found = []
    pos = insns_off
    while pos < end:
        op = data[pos]
        units = widths[op]
        if is_invoke[op]:
            if pos + 4 > end:
                raise MalformedDexError(f"short read at {pos + 2:#x}")
            idx = data[pos + 2] | data[pos + 3] << 8
            if idx >= method_count:
                raise MalformedDexError(
                    f"invoke references method {idx} of {method_count}")
            found.append((pos, idx))
        elif op == 0x00:
            marker = data[pos + 1] if pos + 1 < end else 0
            if marker == 0x01:      # packed-switch payload
                size = _u16(data, pos + 2, end)
                units = size * 2 + 4
            elif marker == 0x02:    # sparse-switch payload
                size = _u16(data, pos + 2, end)
                units = size * 4 + 2
            elif marker == 0x03:    # fill-array-data payload
                width = _u16(data, pos + 2, end)
                count = _u32(data, pos + 4, end)
                units = (count * width + 1) // 2 + 4
        elif units == 0:
            raise MalformedDexError(f"invalid opcode {op:#x} at {pos:#x}")
        pos += 2 * units
        if pos > end:
            raise MalformedDexError("instruction walk escaped code region")
    return found


def _fixed_pool(data: bytes, fmt: str, off: int, count: int,
                width: int) -> Iterator[tuple[int, ...]]:
    """Unpack `count` fixed-width pool items; the header bounds the region."""
    return struct.iter_unpack(fmt, data[off:off + width * count])


def parse_dex(data: bytes, entry_name: str = "classes.dex",
              cancel_check: Callable[[], None] | None = None) -> DexUnit:
    """Parse one DEX file into pools plus the invoke columns.

    `cancel_check` runs once per class definition so oversized inputs can be
    abandoned cooperatively. Raises MalformedDexError on any structural
    problem; never reads outside the input buffer.
    """
    header = _parse_header(data)
    limit = header.file_size

    strings: list[str] = []
    for (data_off,) in _fixed_pool(data, "<I", header.string_ids_off,
                                   header.string_ids_size, 4):
        if data_off >= limit:
            raise MalformedDexError("string data offset out of bounds")
        _utf16_len, pos = _read_uleb128(data, data_off, limit)
        # MUTF-8 encodes U+0000 as C0 80, so the first 00 byte ends the
        # string; an all-ASCII body decodes the same as ASCII.
        end = data.find(0, pos, limit)
        if end >= 0:
            body = data[pos:end]
            if body.isascii():
                strings.append(body.decode("ascii"))
                continue
        text, _ = decode_mutf8(data, pos, limit)
        strings.append(text)

    types: list[str] = []
    for (desc_idx,) in _fixed_pool(data, "<I", header.type_ids_off,
                                   header.type_ids_size, 4):
        if desc_idx >= len(strings):
            raise MalformedDexError("type descriptor index out of bounds")
        types.append(descriptor_to_dotted(strings[desc_idx]))

    protos: list[tuple[str, tuple[str, ...]]] = []
    for shorty_idx, return_idx, parameters_off in _fixed_pool(
            data, "<3I", header.proto_ids_off, header.proto_ids_size, 12):
        if shorty_idx >= len(strings) or return_idx >= len(types):
            raise MalformedDexError("proto indices out of bounds")
        protos.append((types[return_idx],
                       _read_type_list(data, parameters_off, limit, types)))

    methods: list[MethodRef] = []
    for class_idx, proto_idx, name_idx in _fixed_pool(
            data, "<2HI", header.method_ids_off, header.method_ids_size, 8):
        if class_idx >= len(types) or proto_idx >= len(protos) \
                or name_idx >= len(strings):
            raise MalformedDexError("method indices out of bounds")
        return_type, parameters = protos[proto_idx]
        methods.append(MethodRef(defining_class=types[class_idx],
                                 method_name=strings[name_idx],
                                 return_type=return_type,
                                 parameters=parameters))

    invoke_callers, invoke_methods, invoke_offsets = (
        array("I"), array("I"), array("I"))
    class_names: list[str] = []
    # class_idx and class_data_off of each 32-byte class_def_item
    class_defs = _fixed_pool(data, "<I20xI4x", header.class_defs_off,
                             header.class_defs_size, 32)
    for i, (class_idx, class_data_off) in enumerate(class_defs):
        if cancel_check is not None:
            cancel_check()
        if class_idx >= len(types):
            raise MalformedDexError("class_def type index out of bounds")
        class_names.append(types[class_idx])
        if class_data_off == 0:
            continue
        if class_data_off >= limit:
            raise MalformedDexError("class_data offset out of bounds")
        found: list[tuple[int, int]] = []
        for code_off in _iter_code_offsets(data, class_data_off, limit,
                                           len(methods)):
            insns_units = _u32(data, code_off + 12, limit)
            found += _walk_insns(data, code_off + 16, insns_units, limit,
                                 len(methods))
        if found:
            offsets, targets = zip(*found)
            invoke_callers.extend([i] * len(found))
            invoke_methods.extend(targets)
            invoke_offsets.extend(offsets)

    return DexUnit(header=header, strings=tuple(strings), types=tuple(types),
                   methods=tuple(methods), class_names=tuple(class_names),
                   invoke_callers=invoke_callers,
                   invoke_methods=invoke_methods,
                   invoke_offsets=invoke_offsets, entry_name=entry_name)


def _iter_code_offsets(data: bytes, class_data_off: int, limit: int,
                       method_count: int):
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
