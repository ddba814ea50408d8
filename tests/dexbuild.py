"""Minimal DEX emitter for test fixtures.

Produces a structurally valid file: correct header with checksum and
signature, content-sorted string pool, sorted type/proto/method pools,
parameter type lists, a map list, and one class per plan entry whose single
static method invokes each requested target once. parse_dex recovers
exactly the planned invocations, and external tooling can open the output
as an ordinary DEX.
"""

from __future__ import annotations

import hashlib
import re
import struct
import zlib
from typing import Iterable, Sequence

from analytika.dex import MethodRef


class InvalidPlanError(ValueError):
    """Fixture plan contains names that cannot be encoded into a DEX file."""


_SEGMENT = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")
_SPECIAL_METHODS = ("<init>", "<clinit>")

_MAP_HEADER = 0x0000
_MAP_STRING_ID = 0x0001
_MAP_TYPE_ID = 0x0002
_MAP_PROTO_ID = 0x0003
_MAP_METHOD_ID = 0x0005
_MAP_CLASS_DEF = 0x0006
_MAP_MAP_LIST = 0x1000
_MAP_TYPE_LIST = 0x1001
_MAP_CLASS_DATA = 0x2000
_MAP_CODE = 0x2001
_MAP_STRING_DATA = 0x2002

_NO_INDEX = 0xFFFFFFFF

_OBJECT_DESC = "Ljava/lang/Object;"
_CALLER_METHOD = "run"
_VOID_PROTO = ("V", ())     # (return descriptor, parameter descriptors)

_PRIMITIVE_DESCRIPTORS = {
    "void": "V", "boolean": "Z", "byte": "B", "short": "S", "char": "C",
    "int": "I", "long": "J", "float": "F", "double": "D",
}


def dotted_to_descriptor(name: str) -> str:
    return "L" + name.replace(".", "/") + ";"


def encode_uleb128(value: int) -> bytes:
    if value < 0:
        raise ValueError("uleb128 encodes non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_mutf8(text: str) -> tuple[bytes, int]:
    """Return (modified-UTF-8 bytes without terminator, UTF-16 unit count)."""
    units = text.encode("utf-16-le", "surrogatepass")
    out = bytearray()
    for i in range(0, len(units), 2):
        u = units[i] | (units[i + 1] << 8)
        if u == 0:
            out += b"\xc0\x80"
        elif u < 0x80:
            out.append(u)
        elif u < 0x800:
            out.append(0xC0 | (u >> 6))
            out.append(0x80 | (u & 0x3F))
        else:
            out.append(0xE0 | (u >> 12))
            out.append(0x80 | ((u >> 6) & 0x3F))
            out.append(0x80 | (u & 0x3F))
    return bytes(out), len(units) // 2


def _check_class_name(name: str) -> None:
    if not name or not all(_SEGMENT.match(seg) for seg in name.split(".")):
        raise InvalidPlanError(f"invalid class name: {name!r}")


def _check_method_name(name: str) -> None:
    if name in _SPECIAL_METHODS:
        return
    if not name or not _SEGMENT.match(name):
        raise InvalidPlanError(f"invalid method name: {name!r}")


def _type_descriptor(name: str) -> str:
    """Dotted type name (int, java.security.Key, byte[]) to a descriptor."""
    dims = 0
    while name.endswith("[]"):
        dims += 1
        name = name[:-2]
    base = _PRIMITIVE_DESCRIPTORS.get(name)
    if base is None:
        _check_class_name(name)
        base = dotted_to_descriptor(name)
    return "[" * dims + base


def _proto(return_type: str, parameters) -> tuple[str, tuple[str, ...]]:
    return (_type_descriptor(return_type),
            tuple(_type_descriptor(p) for p in parameters))


def _shorty(proto) -> str:
    ret, params = proto
    return "".join("L" if d[0] in "L[" else d for d in (ret,) + params)


def _as_target(target) -> tuple[str, str, tuple]:
    if isinstance(target, MethodRef):
        return (target.defining_class, target.method_name,
                _proto(target.return_type, target.parameters))
    if isinstance(target, tuple) and len(target) == 2:
        return target[0], target[1], _VOID_PROTO
    if isinstance(target, tuple) and len(target) == 4:
        return target[0], target[1], _proto(target[2], target[3])
    raise InvalidPlanError(f"unusable invocation target: {target!r}")


def build_fixture_dex(plan: Sequence[tuple[str, Iterable]], *,
                      extra_strings: Sequence[str] = ()) -> bytes:
    """Emit DEX bytes for `plan`, a list of (caller class, targets).

    Each target is a MethodRef, a (dotted class, method name) pair for a
    `()V` method, or a (class, method, return type, parameter types) tuple
    with dotted type names, so overloads can share a class and name. The
    caller's method body contains exactly one invoke-static per target in
    order. `extra_strings` are planted into the string pool without being
    referenced anywhere, for false-positive experiments.
    """
    callers: list[tuple[str, list[tuple[str, str, tuple]]]] = []
    seen = set()
    for caller, targets in plan:
        _check_class_name(caller)
        if caller in seen:
            raise InvalidPlanError(f"duplicate caller class: {caller!r}")
        seen.add(caller)
        resolved = []
        for target in targets:
            cls, method, proto = _as_target(target)
            _check_class_name(cls)
            _check_method_name(method)
            resolved.append((dotted_to_descriptor(cls), method, proto))
        callers.append((caller, resolved))

    # ---- pools ------------------------------------------------------------
    type_descs = {dotted_to_descriptor(c) for c, _ in callers}
    method_keys = set()
    for caller, targets in callers:
        method_keys.add((dotted_to_descriptor(caller), _CALLER_METHOD,
                         _VOID_PROTO))
        method_keys.update(targets)
    proto_set = {proto for _, _, proto in method_keys}
    for desc, _, (ret, params) in method_keys:
        type_descs.update((desc, ret) + params)

    have_code = bool(callers)
    if have_code:
        type_descs.add(_OBJECT_DESC)

    string_set = (set(type_descs) | {m for _, m, _ in method_keys}
                  | {_shorty(p) for p in proto_set} | set(extra_strings))

    utf16_key = lambda s: s.encode("utf-16-be", "surrogatepass")
    strings = sorted(string_set, key=utf16_key)
    string_index = {s: i for i, s in enumerate(strings)}

    types = sorted(type_descs, key=utf16_key)
    type_index = {t: i for i, t in enumerate(types)}

    protos = sorted(proto_set, key=lambda p: (
        type_index[p[0]], tuple(type_index[d] for d in p[1])))
    proto_index = {p: i for i, p in enumerate(protos)}
    type_lists = list(dict.fromkeys(params for _, params in protos if params))

    methods = sorted(method_keys, key=lambda k: (
        type_index[k[0]], string_index[k[1]], proto_index[k[2]]))
    if len(methods) > 0xFFFF:
        raise InvalidPlanError("method pool exceeds 16-bit invoke index range")
    method_index = {k: i for i, k in enumerate(methods)}

    n_str, n_type, n_proto = len(strings), len(types), len(protos)
    n_method, n_class = len(methods), len(callers)

    # ---- layout -----------------------------------------------------------
    off_string_ids = 0x70
    off_type_ids = off_string_ids + 4 * n_str
    off_proto_ids = off_type_ids + 4 * n_type
    off_method_ids = off_proto_ids + 12 * n_proto
    off_class_defs = off_method_ids + 8 * n_method
    data_off = off_class_defs + 32 * n_class

    cursor = data_off
    string_data_offs = []
    string_blobs = []
    for s in strings:
        blob, utf16_len = encode_mutf8(s)
        payload = encode_uleb128(utf16_len) + blob + b"\x00"
        string_data_offs.append(cursor)
        string_blobs.append(payload)
        cursor += len(payload)

    def pad4(n):
        return (-n) % 4

    type_list_offs = {}
    type_list_blobs = []
    if type_lists:
        cursor += pad4(cursor)
    for params in type_lists:
        blob = struct.pack(f"<I{len(params)}H", len(params),
                           *(type_index[d] for d in params))
        blob += b"\x00" * pad4(len(blob))
        type_list_offs[params] = cursor
        type_list_blobs.append(blob)
        cursor += len(blob)

    code_pad0 = pad4(cursor) if have_code else 0
    cursor += code_pad0
    code_offs = []
    code_blobs = []
    for caller, targets in callers:
        insns = bytearray()
        for target in targets:
            idx = method_index[target]
            insns += struct.pack("<BBHH", 0x71, 0x00, idx, 0x0000)
        insns += b"\x0e\x00"
        units = len(insns) // 2
        item = struct.pack("<HHHHII", 0, 0, 0, 0, 0, units) + bytes(insns)
        item += b"\x00" * pad4(len(item))
        code_offs.append(cursor)
        code_blobs.append(item)
        cursor += len(item)

    class_data_offs = []
    class_data_blobs = []
    for i, (caller, _targets) in enumerate(callers):
        run_idx = method_index[(dotted_to_descriptor(caller), _CALLER_METHOD,
                                _VOID_PROTO)]
        blob = (encode_uleb128(0) + encode_uleb128(0)
                + encode_uleb128(1) + encode_uleb128(0)
                + encode_uleb128(run_idx) + encode_uleb128(0x9)  # public|static
                + encode_uleb128(code_offs[i]))
        class_data_offs.append(cursor)
        class_data_blobs.append(blob)
        cursor += len(blob)

    map_pad = pad4(cursor)
    cursor += map_pad
    map_off = cursor

    map_items = [(_MAP_HEADER, 1, 0)]
    if n_str:
        map_items.append((_MAP_STRING_ID, n_str, off_string_ids))
    if n_type:
        map_items.append((_MAP_TYPE_ID, n_type, off_type_ids))
    if n_proto:
        map_items.append((_MAP_PROTO_ID, n_proto, off_proto_ids))
    if n_method:
        map_items.append((_MAP_METHOD_ID, n_method, off_method_ids))
    if n_class:
        map_items.append((_MAP_CLASS_DEF, n_class, off_class_defs))
    if n_str:
        map_items.append((_MAP_STRING_DATA, n_str, string_data_offs[0]))
    if type_lists:
        map_items.append((_MAP_TYPE_LIST, len(type_lists),
                          type_list_offs[type_lists[0]]))
    if n_class:
        map_items.append((_MAP_CODE, n_class, code_offs[0]))
        map_items.append((_MAP_CLASS_DATA, n_class, class_data_offs[0]))
    map_items.append((_MAP_MAP_LIST, 1, map_off))
    map_items.sort(key=lambda item: item[2])

    cursor += 4 + 12 * len(map_items)
    file_size = cursor

    # ---- emit -------------------------------------------------------------
    buf = bytearray(file_size)
    struct.pack_into("<8s", buf, 0, b"dex\n035\x00")
    struct.pack_into(
        "<20I", buf, 32,
        file_size, 0x70, 0x12345678, 0, 0, map_off,
        n_str, off_string_ids if n_str else 0,
        n_type, off_type_ids if n_type else 0,
        n_proto, off_proto_ids if n_proto else 0,
        0, 0,
        n_method, off_method_ids if n_method else 0,
        n_class, off_class_defs if n_class else 0,
        file_size - data_off, data_off)

    for i, off in enumerate(string_data_offs):
        struct.pack_into("<I", buf, off_string_ids + 4 * i, off)
        buf[off:off + len(string_blobs[i])] = string_blobs[i]
    for i, desc in enumerate(types):
        struct.pack_into("<I", buf, off_type_ids + 4 * i, string_index[desc])
    for i, proto in enumerate(protos):
        ret, params = proto
        struct.pack_into("<III", buf, off_proto_ids + 12 * i,
                         string_index[_shorty(proto)], type_index[ret],
                         type_list_offs.get(params, 0))
    for i, (cls_desc, name, proto) in enumerate(methods):
        struct.pack_into("<HHI", buf, off_method_ids + 8 * i,
                         type_index[cls_desc], proto_index[proto],
                         string_index[name])
    for params, blob in zip(type_lists, type_list_blobs):
        off = type_list_offs[params]
        buf[off:off + len(blob)] = blob
    for i, (caller, _targets) in enumerate(callers):
        struct.pack_into(
            "<8I", buf, off_class_defs + 32 * i,
            type_index[dotted_to_descriptor(caller)], 0x1,
            type_index[_OBJECT_DESC], 0, _NO_INDEX, 0,
            class_data_offs[i], 0)
    for off, blob in zip(code_offs, code_blobs):
        buf[off:off + len(blob)] = blob
    for off, blob in zip(class_data_offs, class_data_blobs):
        buf[off:off + len(blob)] = blob

    struct.pack_into("<I", buf, map_off, len(map_items))
    for i, (item_type, size, off) in enumerate(map_items):
        struct.pack_into("<HHII", buf, map_off + 4 + 12 * i,
                         item_type, 0, size, off)

    digest = hashlib.sha1(bytes(buf[32:])).digest()
    buf[12:32] = digest
    struct.pack_into("<I", buf, 8, zlib.adler32(bytes(buf[12:])) & 0xFFFFFFFF)
    return bytes(buf)
