"""Seeded DEX writer for benchmark inputs.

Writes structurally valid DEX 035 files from class specs: sorted string,
type, proto and method pools with real parameter type lists, class data,
code items and a map list. Method bodies mix every invoke kind (including
the /range forms) with ordinary non-invoke instructions and packed-switch,
sparse-switch and fill-array-data payloads. The writer reports the
absolute byte offset of every invoke it emits, so expected analysis
results come from the writer's own bookkeeping, not from a parser.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field

OBJECT = "Ljava/lang/Object;"
STRING = "Ljava/lang/String;"
NO_INDEX = 0xFFFFFFFF

# invoke-virtual, -super, -direct, -static, -interface; +6 for /range.
INVOKE_KINDS = {"virtual": 0x6E, "super": 0x6F, "direct": 0x70,
                "static": 0x71, "interface": 0x72}
RANGE_DELTA = 0x74 - 0x6E

# Non-invoke instructions as (opcode, width in code units).
FILLER_OPS = (
    (0x12, 1),  # const/4
    (0x13, 2),  # const/16
    (0x14, 3),  # const
    (0x01, 1),  # move
    (0x07, 1),  # move-object
    (0x0C, 1),  # move-result-object
    (0x0A, 1),  # move-result
    (0x21, 1),  # array-length
    (0x38, 2),  # if-eqz
    (0x32, 2),  # if-eq
    (0x28, 1),  # goto
    (0x44, 2),  # aget
    (0x4B, 2),  # aput
    (0x90, 2),  # add-int
    (0xB0, 1),  # add-int/2addr
    (0xD8, 2),  # add-int/lit8
    (0x7B, 1),  # neg-int
    (0x2D, 2),  # cmpl-float
)


def dotted_to_desc(name: str) -> str:
    return "L" + name.replace(".", "/") + ";"


def shorty_of(ret: str, params) -> str:
    return "".join("L" if d[0] in "L[" else d for d in (ret, *params))


def arg_words(params, static: bool) -> int:
    return (0 if static else 1) + sum(2 if d in ("J", "D") else 1 for d in params)


def utf16_key(text: str) -> bytes:
    return text.encode("utf-16-be", "surrogatepass")


def encode_uleb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_mutf8(text: str) -> bytes:
    """Modified UTF-8: UTF-16 units, NUL as C0 80, surrogates kept split."""
    if text.isascii() and "\x00" not in text:
        return text.encode("ascii")
    units = text.encode("utf-16-le", "surrogatepass")
    out = bytearray()
    for i in range(0, len(units), 2):
        u = units[i] | (units[i + 1] << 8)
        if 0 < u < 0x80:
            out.append(u)
        elif u < 0x800:
            out += bytes((0xC0 | (u >> 6), 0x80 | (u & 0x3F)))
        else:
            out += bytes((0xE0 | (u >> 12), 0x80 | ((u >> 6) & 0x3F),
                          0x80 | (u & 0x3F)))
    return bytes(out)


# A method ref key: (class descriptor, name, return descriptor, param tuple).

@dataclass
class MethodSpec:
    name: str
    ret: str = "V"
    params: tuple = ()
    direct: bool = False
    static: bool = False
    # body items: ("invoke", kind, ref_key, use_range) | ("str", text)
    #   | ("op", opcode, width) | ("packed", n) | ("sparse", n)
    #   | ("array", width, count)
    body: list = field(default_factory=list)


@dataclass
class ClassSpec:
    name: str           # dotted
    methods: list       # MethodSpec


@dataclass
class DexImage:
    data: bytes
    # (caller dotted class, ref key, absolute offset of the invoke)
    invocations: list
    method_keys: list   # method pool in index order
    method_ids_off: int
    strings: list       # string pool in index order


def build_dex(classes: list, extra_refs=()) -> DexImage:
    """Emit one DEX file. `extra_refs` are pooled but never invoked."""
    strings: set = set()
    types: set = {OBJECT}
    protos: set = set()
    refs: set = set(extra_refs)
    for cls in classes:
        desc = dotted_to_desc(cls.name)
        types.add(desc)
        for m in cls.methods:
            refs.add((desc, m.name, m.ret, tuple(m.params)))
            for item in m.body:
                tag = item[0]
                if tag == "invoke":
                    refs.add(item[2])
                elif tag == "str":
                    strings.add(item[1])
    for cdesc, name, ret, params in refs:
        types.add(cdesc)
        types.add(ret)
        types.update(params)
        strings.add(name)
        protos.add((ret, params))
    for ret, params in protos:
        strings.add(shorty_of(ret, params))
    strings.update(types)

    string_list = sorted(strings, key=utf16_key)
    sidx = {s: i for i, s in enumerate(string_list)}
    type_list = sorted(types, key=lambda t: sidx[t])
    tidx = {t: i for i, t in enumerate(type_list)}
    proto_list = sorted(protos, key=lambda p: (tidx[p[0]],
                                               [tidx[t] for t in p[1]]))
    pidx = {p: i for i, p in enumerate(proto_list)}
    method_list = sorted(refs, key=lambda r: (tidx[r[0]], sidx[r[1]],
                                              pidx[(r[2], r[3])]))
    if len(method_list) > 0xFFFF:
        raise ValueError("method pool exceeds the 16-bit invoke index")
    midx = {r: i for i, r in enumerate(method_list)}
    classes = sorted(classes, key=lambda c: tidx[dotted_to_desc(c.name)])

    n_str, n_type, n_proto = len(string_list), len(type_list), len(proto_list)
    n_method, n_class = len(method_list), len(classes)
    off_string_ids = 0x70
    off_type_ids = off_string_ids + 4 * n_str
    off_proto_ids = off_type_ids + 4 * n_type
    off_method_ids = off_proto_ids + 12 * n_proto
    off_class_defs = off_method_ids + 8 * n_method
    data_off = off_class_defs + 32 * n_class

    data = bytearray()   # everything from data_off on

    def pad4():
        data.extend(b"\x00" * ((-(data_off + len(data))) % 4))

    # type lists for proto parameters
    type_list_off = {}
    for params in sorted({p[1] for p in proto_list if p[1]},
                         key=lambda ps: [tidx[t] for t in ps]):
        pad4()
        type_list_off[params] = data_off + len(data)
        data += struct.pack("<I", len(params))
        data += b"".join(struct.pack("<H", tidx[t]) for t in params)
    first_type_list = min(type_list_off.values()) if type_list_off else 0

    # code items
    pad4()
    first_code = data_off + len(data)
    invocations = []
    class_methods = []     # per class: [(method index, access, code_off, direct)]
    n_code = 0
    for cls in classes:
        desc = dotted_to_desc(cls.name)
        entries = []
        for m in cls.methods:
            code_off = data_off + len(data)
            insns_base = code_off + 16
            insns = bytearray()
            payloads = []      # (fixup unit position, payload bytes)
            outs = 0
            for item in m.body:
                tag = item[0]
                if tag == "invoke":
                    _, kind, ref, use_range = item
                    words = arg_words(ref[3], kind == "static")
                    outs = max(outs, words)
                    invocations.append((cls.name, ref,
                                        insns_base + len(insns)))
                    op = INVOKE_KINDS[kind]
                    if use_range or words > 5:
                        insns += struct.pack("<BBHH", op + RANGE_DELTA, words,
                                             midx[ref], 0)
                    else:
                        regs = 0
                        for r in range(min(words, 4)):
                            regs |= r << (4 * r)
                        g = 4 if words == 5 else 0
                        insns += struct.pack("<BBHH", op, (words << 4) | g,
                                             midx[ref], regs)
                elif tag == "op":
                    _, op, width = item
                    insns += bytes((op, 0x10)) + b"\x01\x00" * (width - 1)
                elif tag == "str":
                    insns += struct.pack("<BBH", 0x1A, 0,
                                         sidx[item[1]])
                elif tag == "packed":
                    n = item[1]
                    payloads.append((len(insns) // 2, struct.pack(
                        "<HHi", 0x0100, n, 0) + struct.pack(f"<{n}i",
                                                            *([3] * n))))
                    insns += struct.pack("<BBi", 0x2B, 0, 0)
                elif tag == "sparse":
                    n = item[1]
                    keys = [k * 7 for k in range(n)]
                    payloads.append((len(insns) // 2, struct.pack(
                        "<HH", 0x0200, n) + struct.pack(f"<{n}i", *keys)
                        + struct.pack(f"<{n}i", *([3] * n))))
                    insns += struct.pack("<BBi", 0x2C, 0, 0)
                elif tag == "array":
                    _, width, count = item
                    body = bytes(range(256)) * (width * count // 256 + 1)
                    body = body[:width * count]
                    if len(body) % 2:
                        body += b"\x00"
                    payloads.append((len(insns) // 2, struct.pack(
                        "<HHI", 0x0300, width, count) + body))
                    insns += struct.pack("<BBi", 0x26, 0, 0)
                else:
                    raise ValueError(f"unknown body item {tag!r}")
            insns += b"\x11\x00" if m.ret != "V" else b"\x0e\x00"
            for fix_unit, payload in payloads:
                if (len(insns) // 2) % 2:
                    insns += b"\x00\x00"          # nop so payload aligns
                rel = len(insns) // 2 - fix_unit
                struct.pack_into("<i", insns, fix_unit * 2 + 2, rel)
                insns += payload
            ins = arg_words(m.params, m.static)
            regs = max(ins + 4, outs)
            data += struct.pack("<HHHHII", regs, ins, outs, 0, 0,
                                len(insns) // 2)
            data += insns
            pad4()
            n_code += 1
            access = (0x8 if m.static else 0) | (0x2 if m.direct else 0x1)
            if m.name == "<init>":
                access = 0x10001
            entries.append((midx[(desc, m.name, m.ret, tuple(m.params))],
                            access, code_off, m.direct or m.static
                            or m.name == "<init>"))
        class_methods.append(entries)

    # string data
    string_data_off = []
    first_string_data = data_off + len(data)
    for s in string_list:
        string_data_off.append(data_off + len(data))
        n_units = len(utf16_key(s)) // 2
        data += encode_uleb128(n_units) + encode_mutf8(s) + b"\x00"

    # class data
    first_class_data = data_off + len(data)
    class_data_off = []
    for entries in class_methods:
        class_data_off.append(data_off + len(data))
        direct = sorted(e for e in entries if e[3])
        virtual = sorted(e for e in entries if not e[3])
        blob = bytearray(encode_uleb128(0) + encode_uleb128(0)
                         + encode_uleb128(len(direct))
                         + encode_uleb128(len(virtual)))
        for group in (direct, virtual):
            prev = 0
            for index, access, code_off, _ in group:
                blob += (encode_uleb128(index - prev) + encode_uleb128(access)
                         + encode_uleb128(code_off))
                prev = index
        data += blob

    pad4()
    map_off = data_off + len(data)
    items = [(0x0000, 1, 0)]
    for kind, count, off in (
            (0x0001, n_str, off_string_ids), (0x0002, n_type, off_type_ids),
            (0x0003, n_proto, off_proto_ids),
            (0x0005, n_method, off_method_ids),
            (0x0006, n_class, off_class_defs),
            (0x1001, len(type_list_off), first_type_list),
            (0x2001, n_code, first_code),
            (0x2002, n_str, first_string_data),
            (0x2000, n_class, first_class_data)):
        if count:
            items.append((kind, count, off))
    items.append((0x1000, 1, map_off))
    items.sort(key=lambda it: it[2])
    data += struct.pack("<I", len(items))
    for kind, count, off in items:
        data += struct.pack("<HHII", kind, 0, count, off)
    file_size = data_off + len(data)

    head = bytearray(data_off)
    head[0:8] = b"dex\n035\x00"
    struct.pack_into(
        "<20I", head, 32, file_size, 0x70, 0x12345678, 0, 0, map_off,
        n_str, off_string_ids if n_str else 0,
        n_type, off_type_ids if n_type else 0,
        n_proto, off_proto_ids if n_proto else 0,
        0, 0,
        n_method, off_method_ids if n_method else 0,
        n_class, off_class_defs if n_class else 0,
        file_size - data_off, data_off)
    head[off_string_ids:off_type_ids] = struct.pack(f"<{n_str}I",
                                                    *string_data_off)
    head[off_type_ids:off_proto_ids] = struct.pack(
        f"<{n_type}I", *(sidx[t] for t in type_list))
    for i, (ret, params) in enumerate(proto_list):
        struct.pack_into("<III", head, off_proto_ids + 12 * i,
                         sidx[shorty_of(ret, params)], tidx[ret],
                         type_list_off.get(params, 0))
    for i, (cdesc, name, ret, params) in enumerate(method_list):
        struct.pack_into("<HHI", head, off_method_ids + 8 * i, tidx[cdesc],
                         pidx[(ret, params)], sidx[name])
    obj = tidx[OBJECT]
    for i, cls in enumerate(classes):
        struct.pack_into("<8I", head, off_class_defs + 32 * i,
                         tidx[dotted_to_desc(cls.name)], 0x1, obj, 0,
                         NO_INDEX, 0, class_data_off[i], 0)
    buf = head + data
    buf[12:32] = hashlib.sha1(memoryview(buf)[32:]).digest()
    struct.pack_into("<I", buf, 8, zlib.adler32(memoryview(buf)[12:]))
    return DexImage(data=bytes(buf), invocations=invocations,
                    method_keys=method_list, method_ids_off=off_method_ids,
                    strings=string_list)
