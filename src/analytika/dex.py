"""DEX bytecode parsing: pools, class definitions, and method invocations.

The parser reads each fixed-width pool (string/type/proto/method ids and
class_defs) with one bulk struct call over a view of the file, so no pool
region is copied; the header check has already bounded every pool region
by the file size. String data that is pure ASCII up to
its NUL terminator is decoded as ASCII, anything else by the modified-UTF-8
decoder. Each class_data item is decoded in one pass, and a method body is
walked, instruction by instruction, as soon as its entry is decoded, with
byte tables for the step and the invoke kind of each opcode; the walk
appends the byte offset and method index of each invoke-kind instruction
straight onto the unit's columns. Invokes are kept as three parallel index
columns (calling class_def, method-pool entry, byte offset), so detectors
resolve each method-pool entry once and select invokes by index; the
method pool also serves package-reference matching, which needs methods
that are referenced without being invoked.

Without `wanted`, every string, type, proto and method entry is decoded
and checked, and every code item is walked. Given `wanted`, whose keys
name the classes that can hit, a regex over the raw descriptor bytes
picks the types whose names can start with a key, and only the method
entries of those types are decoded, with the strings, types and type
lists they use; every pool's index columns are still read, as compact
arrays of 2 or 4 bytes a field, and bounds-checked. A
regex scan then finds the wanted entries' invokes, and only code holding
one is walked."""

from __future__ import annotations

import re
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress, count, groupby, repeat
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

from .errors import MalformedDexError

SUPPORTED_VERSIONS = (b"035", b"037", b"038", b"039")

_ENDIAN_CONSTANT = 0x12345678

# Instruction widths in 16-bit code units for consecutive opcode ranges
# covering 0x00-0xFF; 0 marks opcodes with no defined format. Derived from
# the Dalvik format ids (10x -> 1, 22c -> 2, 35c -> 3, 45cc -> 4, 51l -> 5, ...).
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

# One byte per opcode, for the per-instruction lookup: the step in bytes,
# and whether the opcode is an invoke (invoke-kind and invoke-kind/range).
_STEPS = bytes(2 * w for lo, hi, w in _WIDTH_RANGES for _ in range(lo, hi + 1))
_IS_INVOKE = bytes(0x6E <= op <= 0x78 and op != 0x73 for op in range(256))

_U32 = struct.Struct("<I")

# The scan maps each byte to its roles (1: invoke opcode; 2/4: low/high byte
# of a wanted index), so no big-endian word is a surrogate, and finds each
# index word (roles 2, then 4) right after an opcode word (role 1).
_SITE = ("[\u0204-\u0207\u0304-\u0307\u0604-\u0607\u0704-\u0707]"
         "(?<=[\u0100-\u0107\u0300-\u0307\u0500-\u0507\u0700-\u0707].)")
_SCAN_CHUNK = 1 << 16          # bytes decoded at a time

_PRIMITIVES = {
    "V": "void", "Z": "boolean", "B": "byte", "S": "short", "C": "char",
    "I": "int", "J": "long", "F": "float", "D": "double",
}


class MethodRef(NamedTuple):
    """A method pool entry with its full prototype, so overloads differ.

    A named tuple: immutable, and equal to the plain 4-tuple of its fields.
    """

    defining_class: str     # dotted, e.g. android.media.MediaDrm
    method_name: str
    return_type: str        # dotted, e.g. void or java.security.Key
    parameters: tuple[str, ...]


@dataclass(frozen=True)
class DexUnit:
    """The method pool, the class names and the invokes (all, or those of
    the wanted entries) as parallel columns, in parse order.

    A unit parsed with `wanted` holds only the decoded method entries and
    the names of the invokes' callers, each keyed by its index."""

    methods: Sequence[MethodRef] | Mapping[int, MethodRef]
    method_ids_off: int             # file offset of the method pool
    # one per class_def, data or not (given `wanted`, per kept caller)
    class_names: Sequence[str] | Mapping[int, str]
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
                    type_count: int) -> tuple[int, ...]:
    """The type indices of a type_list (u32 size, then u16 type indices);
    0 means empty."""
    if off == 0:
        return ()
    size = _u32(data, off, limit)
    if off + 4 + 2 * size > limit:
        raise MalformedDexError("type list out of bounds")
    indices = struct.unpack_from(f"<{size}H", data, off + 4)
    if indices and max(indices) >= type_count:
        raise MalformedDexError("type list index out of bounds")
    return indices


def _parse_header(data: bytes) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Check the header; return the declared file size and the (size,
    offset) of the string, type, proto, field, method and class_def id
    pools, each checked to lie inside the file."""
    if len(data) < 0x70:
        raise MalformedDexError("input shorter than a header")
    if data[0:4] != b"dex\n" or data[7] != 0:
        raise MalformedDexError("bad magic")
    version = data[4:7]
    if version not in SUPPORTED_VERSIONS:
        raise MalformedDexError(f"unsupported version {version!r}")
    (file_size, header_size, endian_tag, _link_size, _link_off,
     map_off) = struct.unpack_from("<6I", data, 32)
    sizes_and_offsets = struct.unpack_from("<12I", data, 56)
    pools = tuple(zip(sizes_and_offsets[::2], sizes_and_offsets[1::2]))
    if endian_tag != _ENDIAN_CONSTANT:
        raise MalformedDexError(f"unsupported endian tag {endian_tag:#x}")
    if file_size > len(data) or file_size < 0x70:
        raise MalformedDexError("declared file size out of bounds")
    if header_size < 0x70 or header_size > file_size:
        raise MalformedDexError("bad header size")
    for (size, off), width in zip(pools, (4, 4, 12, 8, 8, 32)):
        if size and (off < header_size or off + size * width > file_size):
            raise MalformedDexError("pool region out of bounds")
    if map_off > file_size:
        raise MalformedDexError("map offset out of bounds")
    return file_size, pools


def _walk_insns(data: bytes, insns_off: int, insns_units: int, limit: int,
                method_count: int, offsets: array, methods: array,
                keep: frozenset[int] | None = None) -> None:
    """Append the absolute offset and method index of every invoke (of an
    index in `keep`, if given).

    Each such invoke adds one slot to `offsets` and one to `methods`. The walk
    is bounded by the code region: every step advances at least one
    code unit and overrunning the region is an error, so mutated input can
    never loop unboundedly.
    """
    end = insns_off + 2 * insns_units
    if end > limit:
        raise MalformedDexError("instruction region out of bounds")
    steps, is_invoke = _STEPS, _IS_INVOKE
    add_offset, add_method = offsets.append, methods.append
    pos = insns_off
    while pos < end:
        op = data[pos]
        if is_invoke[op]:           # every invoke format is 3 code units
            if pos + 4 > end:
                raise MalformedDexError(f"short read at {pos + 2:#x}")
            idx = data[pos + 2] | data[pos + 3] << 8
            if idx >= method_count:
                raise MalformedDexError(
                    f"invoke references method {idx} of {method_count}")
            if keep is None or idx in keep:
                add_offset(pos)
                add_method(idx)
            pos += 6
            continue
        step = steps[op]
        if op == 0x00:
            marker = data[pos + 1]  # pos and end differ by whole units
            if marker == 0x01:      # packed-switch payload
                step = 2 * (_u16(data, pos + 2, end) * 2 + 4)
            elif marker == 0x02:    # sparse-switch payload
                step = 2 * (_u16(data, pos + 2, end) * 4 + 2)
            elif marker == 0x03:    # fill-array-data payload
                width = _u16(data, pos + 2, end)
                count = _u32(data, pos + 4, end)
                step = 2 * ((count * width + 1) // 2 + 4)
        elif not step:
            raise MalformedDexError(f"invalid opcode {op:#x} at {pos:#x}")
        pos += step
    # The loop stops at the first step past `end`, so one check suffices.
    if pos > end:
        raise MalformedDexError("instruction walk escaped code region")


def _fixed_pool(data: bytes, fmt: str,
                pool: tuple[int, int]) -> Iterator[tuple[int, ...]]:
    """Unpack the items of a (size, offset) pool through a view of `data`,
    so the region is not copied; the header check has bounded it."""
    size, off = pool
    return struct.iter_unpack(
        fmt, memoryview(data)[off:off + struct.calcsize(fmt) * size])


def _string_at(data: bytes, off: int, limit: int) -> str:
    """Decode the string_data_item at `off`: a uleb128 length, then
    modified UTF-8 up to a NUL."""
    _utf16_len, pos = _read_uleb128(data, off, limit)
    # MUTF-8 encodes U+0000 as C0 80, so the first 00 byte ends the
    # string; an all-ASCII body decodes the same as ASCII.
    end = data.find(0, pos, limit)
    if end >= 0:
        body = data[pos:end]
        if body.isascii():
            return body.decode("ascii")
    return decode_mutf8(data, pos, limit)[0]


def _read_strings(data: bytes, string_ids: tuple[int, int],
                  limit: int) -> list[str]:
    """Decode every entry of the string pool, in pool order."""
    strings: list[str] = []
    for (data_off,) in _fixed_pool(data, "<I", string_ids):
        if data_off >= limit:
            raise MalformedDexError("string data offset out of bounds")
        strings.append(_string_at(data, data_off, limit))
    return strings


def _columns(data: bytes, pool: tuple[int, int], code: str,
             width: int) -> list[array]:
    """The `width` columns of a (size, offset) pool whose items are
    `width` little-endian fields of array type `code`, as compact arrays
    (2 or 4 bytes a field); the header check has bounded the region, and
    an empty pool's region is empty wherever its offset points."""
    size, off = pool
    flat = array(code)
    flat.frombytes(memoryview(data)[off:off + flat.itemsize * width * size])
    if sys.byteorder == "big":
        flat.byteswap()
    return [flat[k::width] for k in range(width)]


# ASCII up to the first `[` (0x5B): the part of a key that the bytes of an
# ASCII descriptor can show. (A class up to U+10FFFF would cost
# milliseconds to compile.)
_KEY_HEAD = re.compile(r"[\x00-\x5a\x5c-\x7f]*")


def _literal(text: bytes) -> bytes:
    """A pattern for `text` in which each `.` matches `.` or `/`."""
    return re.escape(text).replace(rb"\.", rb"[./]")


def _alternation(heads: list[bytes]) -> bytes:
    """A pattern for the sorted `heads`, none of which starts another,
    that branches once per distinct next byte."""
    parts = []
    for first, group in groupby(heads, key=lambda head: head[:1]):
        rest = [head[1:] for head in group]
        parts.append(_literal(first + rest[0]) if len(rest) == 1
                     else _literal(first) + _alternation(rest))
    return parts[0] if len(parts) == 1 else b"(?:" + b"|".join(parts) + b")"


@lru_cache(maxsize=8)
def _type_selector(keys: tuple[str, ...]) -> re.Pattern:
    """A pattern that matches at the string_data_item of every type
    descriptor whose dotted name can start with one of `keys`, and of some
    whose name cannot.

    An ASCII descriptor's dotted name is its bytes past any `[` and an
    `L`, with `/` read as `.` (and `;` dropped), then `[]` per `[`; a lone
    primitive letter reads as its Java name. So each key is cut at its
    first `[` or non-ASCII character, a `.` or `/` of it matches either,
    and a key that starts another is dropped. A descriptor with any byte
    of 0x80 or more always matches, to be decoded and checked whole.
    """
    heads: list[str] = []
    for head in sorted(_KEY_HEAD.match(key)[0].replace("/", ".")
                       for key in keys):
        if not heads or not head.startswith(heads[-1]):
            heads.append(head)
    primitives = "".join(letter for letter, name in _PRIMITIVES.items()
                         if name.startswith(tuple(heads)))
    alternatives = []
    if heads:
        alternatives.append(rb"\[*L?" + _alternation(
            [head.encode("ascii") for head in heads]))
    if primitives:
        alternatives.append(rb"\[*[" + primitives.encode("ascii") + rb"]\x00")
    # The lookahead takes the longest ASCII run at once, so a descriptor
    # with no byte of 0x80 or more fails without backtracking through it.
    alternatives.append(rb"(?=([\x01-\x7f]*))\1[\x80-\xff]")
    # The uleb128 length: up to four continuation bytes, then a final one.
    return re.compile(rb"[\x80-\xff]{0,4}[\x00-\x7f](?:"
                      + b"|".join(alternatives) + b")")


def _invoke_sites(data: bytes, limit: int, keep: frozenset[int],
                  cancel_check: Callable[[], None] | None) -> list[int]:
    """The even offsets of the invokes of the indexes in `keep`, ascending,
    then `limit`. Each chunk repeats the last word of the one before, so an
    opcode and its index are decoded together."""
    roles = bytearray(_IS_INVOKE)
    for i in keep:
        roles[i & 0xFF] |= 2
        roles[i >> 8 & 0xFF] |= 4
    sites = []
    for start in range(0, limit if keep else 0, _SCAN_CHUNK - 2):
        if cancel_check is not None:
            cancel_check()
        end = min(start + _SCAN_CHUNK, limit) & ~1
        text = data[start:end].translate(roles).decode("utf-16-be")
        for match in re.finditer(_SITE, text, re.DOTALL):
            pos = start + 2 * match.start() - 2
            # Each index byte is a wanted index's byte; is the pair one?
            if data[pos + 2] | data[pos + 3] << 8 in keep:
                sites.append(pos)
    return sites + [limit]


def _decode_pools(data: bytes, limit: int, string_ids, type_ids, proto_ids,
                  method_ids) -> tuple[list[MethodRef], list[str]]:
    """Decode and check every string, type, proto and method entry, in
    pool order; return the method pool and the type names."""
    strings = _read_strings(data, string_ids, limit)

    types: list[str] = []
    for (desc_idx,) in _fixed_pool(data, "<I", type_ids):
        if desc_idx >= len(strings):
            raise MalformedDexError("type descriptor index out of bounds")
        types.append(descriptor_to_dotted(strings[desc_idx]))

    protos: list[tuple[str, tuple[str, ...]]] = []
    for shorty_idx, return_idx, parameters_off in _fixed_pool(
            data, "<3I", proto_ids):
        if shorty_idx >= len(strings) or return_idx >= len(types):
            raise MalformedDexError("proto indices out of bounds")
        protos.append((types[return_idx], tuple(map(
            types.__getitem__,
            _read_type_list(data, parameters_off, limit, len(types))))))

    # tuple.__new__ skips the named tuple's Python-level constructor.
    new_ref = tuple.__new__
    methods: list[MethodRef] = []
    for class_idx, proto_idx, name_idx in _fixed_pool(data, "<2HI",
                                                      method_ids):
        if class_idx >= len(types) or proto_idx >= len(protos) \
                or name_idx >= len(strings):
            raise MalformedDexError("method indices out of bounds")
        methods.append(new_ref(MethodRef, (types[class_idx], strings[name_idx])
                               + protos[proto_idx]))
    return methods, types


def _select_pools(data: bytes, limit: int, string_ids, type_ids, proto_ids,
                  method_ids, keys: tuple[str, ...]
                  ) -> tuple[dict[int, MethodRef], Callable[[int], str]]:
    """The method entries whose defining class can start with one of
    `keys`, keyed by pool index, and a function that names a type.

    Each pool's index columns are read whole as compact arrays
    (`_columns`) and bounded with one `max()` each, which are the full
    decode's index checks. Types are
    picked by their descriptor bytes (`_type_selector`), and a string, a
    type name or a proto is decoded only when a picked entry, or a caller
    of `type_name`, needs it.
    """
    (string_offs,) = _columns(data, string_ids, "I", 1)
    (type_strings,) = _columns(data, type_ids, "I", 1)
    shorties, returns, parameters = _columns(data, proto_ids, "I", 3)
    # method_id_item: u16 class_idx, u16 proto_idx, u32 name_idx
    method_types, method_protos, _, _ = _columns(data, method_ids, "H", 4)
    _, method_names = _columns(data, method_ids, "I", 2)
    if max(string_offs, default=-1) >= limit:
        raise MalformedDexError("string data offset out of bounds")
    if max(type_strings, default=-1) >= len(string_offs):
        raise MalformedDexError("type descriptor index out of bounds")
    if max(shorties, default=-1) >= len(string_offs) \
            or max(returns, default=-1) >= len(type_strings):
        raise MalformedDexError("proto indices out of bounds")
    if max(method_types, default=-1) >= len(type_strings) \
            or max(method_protos, default=-1) >= len(shorties) \
            or max(method_names, default=-1) >= len(string_offs):
        raise MalformedDexError("method indices out of bounds")

    string = cache(lambda i: _string_at(data, string_offs[i], limit))
    type_name = cache(lambda t: descriptor_to_dotted(string(type_strings[t])))
    proto = cache(lambda p: (type_name(returns[p]), tuple(map(
        type_name, _read_type_list(data, parameters[p], limit,
                                   len(type_strings))))))
    picked = set(compress(count(), map(
        _type_selector(keys).match, repeat(data),
        map(string_offs.__getitem__, type_strings), repeat(limit))))
    new_ref = tuple.__new__
    methods = {i: new_ref(MethodRef, (type_name(method_types[i]),
                                      string(method_names[i]))
                          + proto(method_protos[i]))
               for i in compress(count(), map(picked.__contains__,
                                              method_types))}
    return methods, type_name


def parse_dex(data: bytes, entry_name: str = "classes.dex",
              cancel_check: Callable[[], None] | None = None,
              wanted: Callable[..., Iterable[int]] | None = None) -> DexUnit:
    """Parse one DEX file into its method pool plus the invoke columns.

    Without `wanted`, every pool is decoded and checked, every code item is
    walked, and the unit holds the whole method pool and every class name.
    `wanted` has `keys`, a tuple of dotted class-name prefixes, and maps
    the method entries whose defining class can start with one of them
    (given as a mapping from pool index to `MethodRef`, possibly with a few
    more entries) to the indexes whose invokes the caller needs. Only
    those entries are decoded; the columns keep only their invokes, only
    code that can hold one is walked, and the unit's `methods` and
    `class_names` are mappings that hold the entries given to `wanted` and
    the callers of the kept invokes. The index bounds of every pool are
    still checked, but a malformed string, proto or type list that no
    decoded entry uses fails nothing. `cancel_check` runs once per class
    definition and scan chunk so oversized inputs can be abandoned
    cooperatively. Raises MalformedDexError on any structural problem;
    never reads outside the input buffer.
    """
    limit, (string_ids, type_ids, proto_ids, _field_ids, method_ids,
            class_defs) = _parse_header(data)
    pools = (data, limit, string_ids, type_ids, proto_ids, method_ids)
    if wanted is None:
        methods, types = _decode_pools(*pools)
        type_name, keep, sites = types.__getitem__, None, None
    else:
        methods, type_name = _select_pools(*pools, wanted.keys)
        keep = frozenset(wanted(methods))
        sites = _invoke_sites(data, limit, keep, cancel_check)

    invoke_callers, invoke_methods, invoke_offsets = (
        array("I"), array("I"), array("I"))
    class_types: list[int] = []
    # class_idx and class_data_off of each 32-byte class_def_item
    for i, (class_idx, class_data_off) in enumerate(
            _fixed_pool(data, "<I20xI4x", class_defs)):
        if cancel_check is not None:
            cancel_check()
        if class_idx >= type_ids[0]:
            raise MalformedDexError("class_def type index out of bounds")
        class_types.append(class_idx)
        if class_data_off == 0:
            continue
        if class_data_off >= limit:
            raise MalformedDexError("class_data offset out of bounds")
        before = len(invoke_methods)
        _walk_class_data(data, class_data_off, limit, method_ids[0],
                         invoke_offsets, invoke_methods, sites, keep)
        invoke_callers.extend([i] * (len(invoke_methods) - before))

    if wanted is None:
        methods = tuple(methods)
        class_names = tuple(map(type_name, class_types))
    else:
        class_names = {i: type_name(class_types[i])
                       for i in set(invoke_callers)}
    return DexUnit(methods=methods, method_ids_off=method_ids[1],
                   class_names=class_names, invoke_callers=invoke_callers,
                   invoke_methods=invoke_methods,
                   invoke_offsets=invoke_offsets, entry_name=entry_name)


def _walk_class_data(data: bytes, pos: int, limit: int, method_count: int,
                     offsets: array, methods: array,
                     sites: list | None, keep: frozenset | None) -> None:
    """Walk the code of every method of the class_data_item at `pos` (given
    `sites`, only code that holds one or starts at an odd offset).

    A uleb128 of one byte (below 0x80) is read inline, a longer one by
    `_read_uleb128`; `insns_size` is read with one prebuilt struct once the
    code item's bounds check has passed. Each method's code is walked
    before the next method is decoded, so of two faults in one item the
    earlier is reported.
    """
    static_fields, pos = _read_uleb128(data, pos, limit)
    instance_fields, pos = _read_uleb128(data, pos, limit)
    direct_methods, pos = _read_uleb128(data, pos, limit)
    virtual_methods, pos = _read_uleb128(data, pos, limit)
    # Skip each field's field_idx_diff and access_flags.
    for _ in range(2 * (static_fields + instance_fields)):
        if pos < limit and data[pos] < 0x80:
            pos += 1
        else:
            pos = _read_uleb128(data, pos, limit)[1]
    read_insns_units = _U32.unpack_from
    for count in (direct_methods, virtual_methods):
        method_idx = 0
        for _ in range(count):
            # method_idx_diff, access_flags, code_off
            if pos < limit and data[pos] < 0x80:
                method_idx += data[pos]
                pos += 1
            else:
                diff, pos = _read_uleb128(data, pos, limit)
                method_idx += diff
            if pos < limit and data[pos] < 0x80:
                pos += 1
            else:
                pos = _read_uleb128(data, pos, limit)[1]
            # code_off is 0 or past the header, so rarely a single byte.
            code_off, pos = _read_uleb128(data, pos, limit)
            if method_idx >= method_count:
                raise MalformedDexError("encoded method index out of bounds")
            if code_off == 0:
                continue
            if code_off + 16 > limit:
                raise MalformedDexError("code item out of bounds")
            at = code_off + 16
            end = at + 2 * read_insns_units(data, code_off + 12)[0]
            # `sites` ends with `limit`: a region past it is walked, and fails.
            if sites is None or at & 1 or sites[bisect_left(sites, at)] < end:
                _walk_insns(data, at, (end - at) // 2, limit, method_count,
                            offsets, methods, keep)
