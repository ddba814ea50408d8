"""Binary AndroidManifest.xml (AXML) writer for benchmark inputs.

Lays out the chunk stream the way the platform packaging tools do: file
header, UTF-16 string pool, resource map, namespace start, element
chunks, namespace end. Shares no code with the parser under test.
"""

from __future__ import annotations

import struct

ANDROID_NS = "http://schemas.android.com/apk/res/android"
_NO_INDEX = 0xFFFFFFFF
_TYPE_STRING = 0x03
_TYPE_INT_DEC = 0x10
_TYPE_INT_BOOLEAN = 0x12
# android:name, android:minSdkVersion, android:label resource ids
_RESOURCE_IDS = {"name": 0x01010003, "minSdkVersion": 0x0101020C,
                 "label": 0x01010001}


def _string_pool(strings) -> bytes:
    offsets, blob = [], bytearray()
    for s in strings:
        offsets.append(len(blob))
        units = s.encode("utf-16-le")
        blob += struct.pack("<H", len(units) // 2) + units + b"\x00\x00"
    blob += b"\x00" * (-len(blob) % 4)
    start = 28 + 4 * len(strings)
    head = struct.pack("<HHIIIIII", 0x0001, 28, start + len(blob),
                       len(strings), 0, 0, start, 0)
    return head + struct.pack(f"<{len(offsets)}I", *offsets) + bytes(blob)


def manifest_bytes(package: str, permissions=(), min_sdk=None,
                   label: str = "app") -> bytes:
    """Compiled manifest with package, permissions, uses-sdk, application."""
    # (element name, [(namespaced?, attr name, value)])
    elements = [("uses-permission", [(True, "name", p)]) for p in permissions]
    if min_sdk is not None:
        elements.append(("uses-sdk", [(True, "minSdkVersion", min_sdk)]))
    elements.append(("application", [(True, "label", label)]))

    # Resource-id'd attribute names come first, matching the resource map.
    strings = ["name", "minSdkVersion", "label", "android", ANDROID_NS,
               "manifest", "package", package]
    for name, attrs in elements:
        strings.append(name)
        strings += [v for _, _, v in attrs if isinstance(v, str)]
    strings = list(dict.fromkeys(strings))
    idx = {s: i for i, s in enumerate(strings)}

    def attr(namespaced, name, value):
        ns = idx[ANDROID_NS] if namespaced else _NO_INDEX
        if isinstance(value, bool):
            raw, vtype, vdata = _NO_INDEX, _TYPE_INT_BOOLEAN, -int(value) & 0xFFFFFFFF
        elif isinstance(value, int):
            raw, vtype, vdata = _NO_INDEX, _TYPE_INT_DEC, value
        else:
            raw, vtype, vdata = idx[value], _TYPE_STRING, idx[value]
        return struct.pack("<IIIHBBI", ns, idx[name], raw, 8, 0, vtype, vdata)

    def start(name, attrs, line):
        body = b"".join(attr(*a) for a in attrs)
        return (struct.pack("<HHIII", 0x0102, 16, 36 + len(body), line,
                            _NO_INDEX)
                + struct.pack("<IIHHHHHH", _NO_INDEX, idx[name], 0x14, 0x14,
                              len(attrs), 0, 0, 0) + body)

    def end(name, line):
        return struct.pack("<HHIIIII", 0x0103, 16, 24, line, _NO_INDEX,
                           _NO_INDEX, idx[name])

    resmap = list(_RESOURCE_IDS.values())
    chunks = bytearray(_string_pool(strings))
    chunks += struct.pack("<HHI", 0x0180, 8, 8 + 4 * len(resmap))
    chunks += struct.pack(f"<{len(resmap)}I", *resmap)
    ns_args = (1, _NO_INDEX, idx["android"], idx[ANDROID_NS])
    chunks += struct.pack("<HHIIIII", 0x0100, 16, 24, *ns_args)
    chunks += start("manifest", [(False, "package", package)], 2)
    for line, (name, attrs) in enumerate(elements, start=3):
        chunks += start(name, attrs, line) + end(name, line)
    chunks += end("manifest", len(elements) + 3)
    chunks += struct.pack("<HHIIIII", 0x0101, 16, 24, *ns_args)
    return struct.pack("<HHI", 0x0003, 8, 8 + len(chunks)) + bytes(chunks)
