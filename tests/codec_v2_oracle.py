"""Frozen reference decoder for the ``.rpdb`` codec (formats v1 and v2).

A verbatim copy of the per-node, byte-at-a-time decoder that
``repro.core.profiledb`` shipped before its one-pass decoder.  It is a
test oracle only: ``tests/test_codec_parity.py`` checks that the
production decoder accepts exactly the inputs this one accepts and
builds the same profiles from them.  Do not optimise or "fix" it — its
value is that it does not change.
"""

from __future__ import annotations

import struct

from repro.core.cct import CCT, CCTNode
from repro.core.metrics import MetricVector
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ProfileError

__all__ = ["oracle_decode"]

_MAGIC = b"RPDB"
_VERSION = 2
_MIN_VERSION = 1
_HEADER_LEN = 6

_MAX_UVARINT_SHIFT = 63

_TAG_INT = 0
_TAG_STR = 1
_TAG_NEG = 2

_N_METRIC_LEVELS = len(MetricVector().levels)
_N_METRIC_FIELDS = 5 + _N_METRIC_LEVELS


def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ProfileError("truncated uvarint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > _MAX_UVARINT_SHIFT:
            raise ProfileError("uvarint exceeds 64 bits (corrupt continuation run)")


def _checked_count(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    count, pos = _read_uvarint(buf, pos)
    if count > len(buf) - pos:
        raise ProfileError(f"{what} count {count} exceeds remaining {len(buf) - pos} bytes")
    return count, pos


def _string_at(strings: list[str], idx: int) -> str:
    if idx >= len(strings):
        raise ProfileError(
            f"string-table index {idx} out of range (table has {len(strings)})"
        )
    return strings[idx]


def _read_metric_block(buf: bytes, pos: int) -> tuple[list[int], int]:
    values = []
    append = values.append
    blen = len(buf)
    for _ in range(_N_METRIC_FIELDS):
        if pos >= blen:
            raise ProfileError("truncated uvarint")
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            append(byte)
            continue
        result = byte & 0x7F
        shift = 7
        while True:
            if pos >= blen:
                raise ProfileError("truncated uvarint")
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > _MAX_UVARINT_SHIFT:
                raise ProfileError("uvarint exceeds 64 bits (corrupt continuation run)")
        append(result)
    return values, pos


def _decode_node_header(
    buf: bytes, pos: int, strings: list[str]
) -> tuple[CCTNode, int, int]:
    key_len, pos = _checked_count(buf, pos, "key element")
    key_elements = []
    for _ in range(key_len):
        if pos >= len(buf):
            raise ProfileError("truncated key element tag")
        tag = buf[pos]
        pos += 1
        raw, pos = _read_uvarint(buf, pos)
        if tag == _TAG_STR:
            key_elements.append(_string_at(strings, raw))
        elif tag == _TAG_INT:
            key_elements.append(raw)
        elif tag == _TAG_NEG:
            key_elements.append(-raw)
        else:
            raise ProfileError(f"bad key tag {tag}")
    node = CCTNode(tuple(key_elements))
    info_len, pos = _checked_count(buf, pos, "info entry")
    if info_len:
        info = {}
        for _ in range(info_len):
            k, pos = _read_uvarint(buf, pos)
            v, pos = _read_uvarint(buf, pos)
            info[_string_at(strings, k)] = _string_at(strings, v)
        node.info = info
    values, pos = _read_metric_block(buf, pos)
    m = MetricVector()
    m.samples, m.latency, m.events, m.tlb_misses, m.stores = values[:5]
    m.levels = values[5:]
    node.metrics = m
    n_children, pos = _checked_count(buf, pos, "child")
    return node, n_children, pos


def _decode_node(buf: bytes, pos: int, strings: list[str]) -> tuple[CCTNode, int]:
    root, n_children, pos = _decode_node_header(buf, pos, strings)
    stack: list[tuple[CCTNode, int]] = [(root, n_children)]
    while stack:
        node, remaining = stack[-1]
        if remaining == 0:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if node.key in parent.children:
                    raise ProfileError(f"duplicate child key {node.key}")
                parent.children[node.key] = node
            continue
        stack[-1] = (node, remaining - 1)
        child, n_kids, pos = _decode_node_header(buf, pos, strings)
        stack.append((child, n_kids))
    return root, pos


def oracle_decode(data: bytes) -> ProfileDB:
    """Decode ``data`` exactly as the pre-one-pass decoder did."""
    if len(data) < _HEADER_LEN:
        raise ProfileError(f"profile shorter than the {_HEADER_LEN}-byte header")
    if data[:4] != _MAGIC:
        raise ProfileError("bad profile magic")
    (version,) = struct.unpack_from("<H", data, 4)
    if not _MIN_VERSION <= version <= _VERSION:
        raise ProfileError(f"unsupported profile version {version}")
    pos = _HEADER_LEN
    n_strings, pos = _checked_count(data, pos, "string-table entry")
    strings: list[str] = []
    for _ in range(n_strings):
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProfileError("truncated string-table entry")
        try:
            strings.append(data[pos:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProfileError(f"string-table entry is not valid UTF-8: {exc}") from exc
        pos = end
    name_idx, pos = _read_uvarint(data, pos)
    db = ProfileDB(_string_at(strings, name_idx))
    if version >= 2:
        n_meta, pos = _checked_count(data, pos, "meta entry")
        for _ in range(n_meta):
            k, pos = _read_uvarint(data, pos)
            v, pos = _read_uvarint(data, pos)
            db.meta[_string_at(strings, k)] = _string_at(strings, v)
    n_threads, pos = _checked_count(data, pos, "thread")
    for _ in range(n_threads):
        tname_idx, pos = _read_uvarint(data, pos)
        profile = ThreadProfile(_string_at(strings, tname_idx))
        n_classes, pos = _checked_count(data, pos, "storage class")
        for _ in range(n_classes):
            cls_idx, pos = _read_uvarint(data, pos)
            try:
                storage = StorageClass(_string_at(strings, cls_idx))
            except ValueError as exc:
                raise ProfileError(f"unknown storage class: {exc}") from exc
            if storage in profile._ccts:
                raise ProfileError(f"duplicate storage class {storage.value}")
            root, pos = _decode_node(data, pos, strings)
            tree = CCT(storage.value)
            tree.root = root
            profile._ccts[storage] = tree
        db.add_thread(profile)
    if pos != len(data):
        raise ProfileError(f"{len(data) - pos} trailing bytes after profile body")
    return db
