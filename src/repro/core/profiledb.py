"""Compact profile databases (paper §2.2 "space overhead").

A :class:`ThreadProfile` holds one thread's per-storage-class CCTs; a
:class:`ProfileDB` holds all thread profiles of one process (or, after
merging, of a whole job).  The binary codec uses varints plus a string
table so profile size stays proportional to *distinct contexts*, not to
execution length — the property that distinguishes compact CCT profiles
from the allocation/access traces of tools like MemProf.

The codec is the boundary profiles cross between worker processes in
the parallel driver (:mod:`repro.parallel`), so decoding is defensive:
every malformed input — truncated buffers, out-of-range string-table
indices, bad tags, unbounded varints — raises :class:`ProfileError`
instead of leaking ``IndexError``/``UnicodeDecodeError`` from the guts
of the parser.  Decoding is one pass: after the string table, the body
becomes one list of varint values (single-byte runs copied in C, only
multi-byte varints decoded in Python), then one iterative walk builds
the CCTs, memoizing node keys and info dicts on their value spans.  The
same walk can fold a tree into one it already built, which gives the
merged decode (:meth:`ProfileDB.merged_from_bytes`): every thread of a
profile folded into one as it is read, exactly what
:func:`repro.core.merge.merge_profiles` would make of the plain decode.
The cyclic garbage collector is paused while the walk builds the trees
(they hold no reference cycles) and restored to the caller's state
afterwards; this module is the one place in ``repro`` that changes
collector state.

Format version 2 adds a small string-keyed metadata section to the
header (used by the rank-file merge to report partial results); version 1
payloads (no metadata) still decode.
"""

from __future__ import annotations

import gc
import re
import struct
import sys
from typing import Iterator

from repro.core.cct import CCT, CCTNode, canonical_key_order
from repro.core.metrics import MetricVector
from repro.core.storage import StorageClass
from repro.errors import ProfileError
from repro.machine.hierarchy import LVL_L1, LVL_L2, LVL_L3, LVL_LMEM, LVL_RMEM

__all__ = ["ThreadProfile", "ProfileDB"]

_MAGIC = b"RPDB"
_VERSION = 2
_MIN_VERSION = 1
_HEADER_LEN = 6  # magic + u16 version


def _obs_session():
    """The active repro.obs session, if that subsystem is even imported."""
    obs_mod = sys.modules.get("repro.obs")
    return obs_mod.active_session() if obs_mod is not None else None


# -- varint codec --------------------------------------------------------------

# Metric values are non-negative cycle/sample counts.  A varint is at
# most 10 bytes (the last group lands at shift 63), so the decoder reads
# values below 2**70; the cap turns a corrupt continuation-bit run into a
# clean ProfileError instead of an unbounded shift.  The encoder refuses
# anything outside that domain, so every profile it writes reads back.
_MAX_UVARINT_SHIFT = 63
_MAX_UVARINT_BYTES = _MAX_UVARINT_SHIFT // 7 + 1
_UVARINT_LIMIT = 1 << (7 * _MAX_UVARINT_BYTES)


def _write_uvarint(out: bytearray, value: int) -> None:
    # Most values fit one byte; checking that case first keeps the domain
    # check off the encoder's common path.
    if 0 <= value < 0x80:
        out.append(value)
        return
    if not 0 <= value < _UVARINT_LIMIT:
        raise ProfileError(
            f"uvarint cannot encode {value}: outside [0, 2**{7 * _MAX_UVARINT_BYTES})"
        )
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


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
    """Read a count that the remaining buffer could plausibly satisfy.

    Every counted element occupies at least one byte, so a count larger
    than the bytes left is corrupt no matter what follows.
    """
    count, pos = _read_uvarint(buf, pos)
    if count > len(buf) - pos:
        raise ProfileError(f"{what} count {count} exceeds remaining {len(buf) - pos} bytes")
    return count, pos


class _StringTable:
    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.strings: list[str] = []

    def intern(self, s: str) -> int:
        idx = self._index.get(s)
        if idx is None:
            idx = len(self.strings)
            self._index[s] = idx
            self.strings.append(s)
        return idx


def _string_at(strings: list[str], idx: int) -> str:
    if idx >= len(strings):
        raise ProfileError(
            f"string-table index {idx} out of range (table has {len(strings)})"
        )
    return strings[idx]


# -- node codec ----------------------------------------------------------------

_TAG_INT = 0
_TAG_STR = 1
_TAG_NEG = 2

_N_METRIC_LEVELS = len(MetricVector().levels)
_N_METRIC_FIELDS = 5 + _N_METRIC_LEVELS


def _encode_node_header(node: CCTNode, out: bytearray, strings: _StringTable) -> None:
    key = node.key
    _write_uvarint(out, len(key))
    for element in key:
        if isinstance(element, str):
            out.append(_TAG_STR)
            _write_uvarint(out, strings.intern(element))
        elif isinstance(element, int):
            if element >= 0:
                out.append(_TAG_INT)
                _write_uvarint(out, element)
            else:
                out.append(_TAG_NEG)
                _write_uvarint(out, -element)
        else:
            raise ProfileError(f"unencodable key element {element!r}")
    info = node.info or {}
    _write_uvarint(out, len(info))
    for k in sorted(info):
        v = info[k]
        if not isinstance(v, str):
            raise ProfileError(f"info values must be str, got {k}={v!r}")
        _write_uvarint(out, strings.intern(k))
        _write_uvarint(out, strings.intern(v))
    m = node.metrics
    for value in (m.samples, m.latency, m.events, m.tlb_misses, m.stores):
        _write_uvarint(out, value)
    for value in m.levels:
        _write_uvarint(out, value)
    _write_uvarint(out, len(node.children))


def _encode_node(
    node: CCTNode, out: bytearray, strings: _StringTable, canonical: bool
) -> None:
    # Iterative pre-order walk: like the decoder, an explicit stack keeps
    # pathologically deep CCTs from hitting the recursion limit.
    stack = [iter((node,))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        _encode_node_header(child, out, strings)
        children = child.children.values()
        if canonical:
            children = sorted(children, key=lambda c: canonical_key_order(c.key))
        stack.append(iter(children))


# -- one-pass decoder ------------------------------------------------------------
#
# After the string table every body byte belongs to a varint: key tags
# are raw bytes, but valid tags are below 0x80, so they read as one-byte
# varints.  ``_varint_stream`` turns the body into one list of values and
# ``_decode_tree`` walks that list once per CCT.

# A multi-byte varint: continuation bytes, then a terminator.  Leading
# with a single character class (not ``[...]+``) lets ``re`` scan for
# the first continuation byte with its fast prefix search.
_MULTI_BYTE_VARINT_RE = re.compile(rb"([\x80-\xff][\x80-\xff]*[\x00-\x7f])")


def _varint_stream(body: bytes) -> tuple[list[int], set[int]]:
    """Decode every varint of ``body`` into one list.

    Runs of one-byte varints are copied in C with ``list.extend``; only
    multi-byte varints cost Python work.  Also returns the positions of
    multi-byte varints whose value is a valid key tag (0-2): only a
    non-minimal encoding gives a multi-byte varint such a small value,
    and at a tag position it stands for a tag byte >= 0x80, which the
    walk must reject.
    """
    if body and body[-1] & 0x80:
        raise ProfileError("truncated uvarint")
    parts = _MULTI_BYTE_VARINT_RE.split(body)
    values = list(parts[0])
    append = values.append
    extend = values.extend
    multibyte_tags: set[int] = set()
    for token, run in zip(parts[1::2], parts[2::2]):
        if len(token) == 2:
            value = token[0] & 0x7F | token[1] << 7
        else:
            if len(token) > _MAX_UVARINT_BYTES:
                raise ProfileError("uvarint exceeds 64 bits (corrupt continuation run)")
            value = 0
            for byte in reversed(token):
                value = value << 7 | byte & 0x7F
        if value <= _TAG_NEG:
            multibyte_tags.add(len(values))
        append(value)
        extend(run)
    return values, multibyte_tags


def _decode_header(
    span: tuple[int, ...], key_len: int, strings: list[str]
) -> tuple[tuple, dict | None]:
    """Key tuple and info dict of one node header value span.

    ``span`` is ``key_len, (tag, raw) * key_len, info_len, (k, v) *
    info_len``.  Only called on a memo miss, so it validates everything.
    """
    if len(span) != 2 + 2 * key_len + 2 * span[1 + 2 * key_len]:
        raise ProfileError("truncated node header")
    key: list[str | int] = []
    for t in range(1, 1 + 2 * key_len, 2):
        tag, raw = span[t], span[t + 1]
        if tag == _TAG_STR:
            key.append(_string_at(strings, raw))
        elif tag == _TAG_INT:
            key.append(raw)
        elif tag == _TAG_NEG:
            key.append(-raw)
        else:
            raise ProfileError(f"bad key tag {tag}")
    info_span = span[2 + 2 * key_len:]
    if not info_span:
        return tuple(key), None
    info: dict[str, str] = {}
    for t in range(0, len(info_span), 2):
        info[_string_at(strings, info_span[t])] = _string_at(strings, info_span[t + 1])
    return tuple(key), info


def _decode_tree(
    values: list[int], i: int, strings: list[str], multibyte_tags: set[int],
    memo: dict[tuple[int, ...], tuple[tuple, dict | None]],
    holder: dict[tuple, CCTNode], seen: set[CCTNode] | None,
) -> int:
    """Decode the CCT whose root node starts at ``values[i]`` into ``holder``.

    ``holder`` maps root keys to roots.  A fresh decode (``seen`` is
    ``None``) starts from an empty holder and builds every node.  A fold
    starts from ``{key: root}`` of an existing tree and adds each source
    node into the node with the same path, creating the ones it lacks, so
    the result is what :meth:`CCTNode.merge` would build: metrics summed,
    info kept from the first node that had any, new children appended in
    source order.  ``seen`` collects the nodes this source tree
    reached, so two source siblings with one key are rejected even
    when they land on a node that existed before.

    Iterative pre-order walk, so adversarially deep inputs cannot raise
    ``RecursionError``.  ``memo`` maps a node's key+info value span to
    its decoded key and info (spans repeat across contexts); each node
    gets its own copy of the info dict so decoded nodes never alias.
    Nodes are built slot by slot, skipping the default ``MetricVector``
    that ``CCTNode()`` would allocate.  Returns the index past the tree.
    Running off the end of ``values`` raises ``IndexError``; the caller
    maps it to :class:`ProfileError`.
    """
    new_node = CCTNode.__new__
    new_metrics = MetricVector.__new__
    n_fields = _N_METRIC_FIELDS
    parent = holder
    remaining = 1
    stack: list[tuple[dict[tuple, CCTNode], int]] = []
    while True:
        if not remaining:
            if not stack:
                break
            parent, remaining = stack.pop()
            continue
        remaining -= 1
        key_len = values[i]
        j = i + 1 + 2 * key_len
        k = j + 1 + 2 * values[j]
        span = tuple(values[i:k])
        header = memo.get(span)
        if header is None:
            header = memo[span] = _decode_header(span, key_len, strings)
        if multibyte_tags and not multibyte_tags.isdisjoint(range(i + 1, j, 2)):
            raise ProfileError("bad key tag (multi-byte)")
        key, info = header
        n_children = values[k + n_fields]
        if key in parent:
            node = parent[key]
            if seen is None or node in seen:
                raise ProfileError(f"duplicate child key {key}")
            seen.add(node)
            m = node.metrics
            m.samples += values[k]
            m.latency += values[k + 1]
            m.events += values[k + 2]
            m.tlb_misses += values[k + 3]
            m.stores += values[k + 4]
            levels = m.levels  # unrolled over the data-source levels
            levels[LVL_L1] += values[k + 5 + LVL_L1]
            levels[LVL_L2] += values[k + 5 + LVL_L2]
            levels[LVL_L3] += values[k + 5 + LVL_L3]
            levels[LVL_LMEM] += values[k + 5 + LVL_LMEM]
            levels[LVL_RMEM] += values[k + 5 + LVL_RMEM]
            if node.info is None and info is not None:
                node.info = info.copy()
            children = node.children
        else:
            m = new_metrics(MetricVector)
            m.samples = values[k]
            m.latency = values[k + 1]
            m.events = values[k + 2]
            m.tlb_misses = values[k + 3]
            m.stores = values[k + 4]
            m.levels = values[k + 5:k + n_fields]
            node = new_node(CCTNode)
            node.key = key
            node.info = None if info is None else info.copy()
            node.metrics = m
            children = {}
            node.children = children
            parent[key] = node
            if seen is not None:
                seen.add(node)
        i = k + n_fields + 1
        if n_children:
            stack.append((parent, remaining))
            parent = children
            remaining = n_children
    return i


def _storage_at(strings: list[str], idx: int) -> StorageClass:
    try:
        return StorageClass(_string_at(strings, idx))
    except ValueError as exc:
        raise ProfileError(f"unknown storage class: {exc}") from exc


def _fold_threads(
    values: list[int], i: int, n_threads: int, strings: list[str],
    multibyte_tags: set[int], memo: dict[tuple[int, ...], tuple[tuple, dict | None]],
    merged: ThreadProfile,
) -> int:
    """Fold ``n_threads`` encoded thread profiles into ``merged``.

    The merged decode's thread loop: each storage class's first CCT is
    decoded fresh, every later one is folded into it.  Adds the rules a
    fold needs to what a plain decode checks: thread names strictly
    increase (the order :func:`merge_profiles` folds them in) and every
    root key is ``("root", <storage class>)``.  Returns the index past
    the last thread.
    """
    previous = None
    for _ in range(n_threads):
        name = _string_at(strings, values[i])
        if previous is not None and name <= previous:
            raise ProfileError(f"thread {name!r} does not sort after {previous!r}")
        previous = name
        n_classes = values[i + 1]
        i += 2
        classes: set[StorageClass] = set()
        for _ in range(n_classes):
            storage = _storage_at(strings, values[i])
            if storage in classes:
                raise ProfileError(f"duplicate storage class {storage.value}")
            classes.add(storage)
            tree = merged.get_cct(storage)
            if tree is None:
                holder: dict[tuple, CCTNode] = {}
                i = _decode_tree(values, i + 1, strings, multibyte_tags, memo, holder, None)
                tree = merged.cct(storage)
                (root,) = holder.values()
                if root.key != tree.root.key:
                    raise ProfileError(
                        f"CCT root key {root.key} does not match storage class "
                        f"{storage.value!r}"
                    )
                tree.root = root
            else:
                holder = {tree.root.key: tree.root}
                i = _decode_tree(values, i + 1, strings, multibyte_tags, memo, holder, set())
                if len(holder) != 1:
                    raise ProfileError(
                        f"CCT root key does not match storage class {storage.value!r}"
                    )
    return i


# -- profiles -------------------------------------------------------------------


class ThreadProfile:
    """One thread's CCTs, one per storage class (created on demand).

    :meth:`cct` is the *write-path* accessor: it materializes an empty
    CCT on first use so profiler hooks can insert unconditionally.  Read
    paths (views, rendering, analysis, serialization) must use
    :meth:`get_cct`/:meth:`has_cct` so that merely *looking at* a profile
    never changes its ``storage_classes()``, ``node_count()`` or
    serialized size.
    """

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self._ccts: dict[StorageClass, CCT] = {}

    def cct(self, storage: StorageClass) -> CCT:
        tree = self._ccts.get(storage)
        if tree is None:
            tree = CCT(storage.value)
            self._ccts[storage] = tree
        return tree

    def get_cct(self, storage: StorageClass) -> CCT | None:
        """Non-creating accessor: the CCT, or ``None`` if never written."""
        return self._ccts.get(storage)

    def has_cct(self, storage: StorageClass) -> bool:
        return storage in self._ccts

    def storage_classes(self) -> list[StorageClass]:
        return sorted(self._ccts, key=lambda s: s.value)

    def node_count(self) -> int:
        return sum(cct.node_count() for cct in self._ccts.values())

    def clone(self) -> "ThreadProfile":
        out = ThreadProfile(self.thread_name)
        for storage, cct in self._ccts.items():
            out._ccts[storage] = cct.clone()
        return out


class ProfileDB:
    """All thread profiles of a process (or a merged job).

    ``meta`` is a small string->string dictionary serialized with the
    profile; the parallel driver and merge use it to record provenance
    (rank, app) and degradation (a partial merge after worker failures).
    """

    def __init__(self, process_name: str, meta: dict[str, str] | None = None) -> None:
        self.process_name = process_name
        self.threads: dict[str, ThreadProfile] = {}
        self.meta: dict[str, str] = dict(meta) if meta else {}

    def add_thread(self, profile: ThreadProfile) -> None:
        if profile.thread_name in self.threads:
            raise ProfileError(f"duplicate thread profile {profile.thread_name}")
        self.threads[profile.thread_name] = profile

    def all_profiles(self) -> Iterator[ThreadProfile]:
        for name in sorted(self.threads):
            yield self.threads[name]

    def node_count(self) -> int:
        return sum(p.node_count() for p in self.threads.values())

    # -- binary codec -------------------------------------------------------

    def to_bytes(self, canonical: bool = False) -> bytes:
        """Serialize; ``canonical=True`` additionally sorts CCT children.

        Two semantically equal databases (same nodes, metrics, info) may
        serialize differently because child insertion order reflects
        merge order.  Canonical encoding makes the bytes a function of
        content only — the form merge-equivalence tests and the parallel
        merge's byte-identity guarantee compare.
        """
        obs = _obs_session()
        if obs is None:
            return self._to_bytes_impl(canonical)
        start = obs.clock.now_us()
        data = self._to_bytes_impl(canonical)
        obs.trace.complete(
            name="codec:encode", cat="codec", ts_us=start,
            dur_us=obs.clock.now_us() - start, pid=0, tid=3,
            args={"process": self.process_name, "bytes": len(data)},
        )
        obs.metrics.inc(
            "repro_codec_encodes_total", 1,
            help_text="ProfileDB encode operations",
        )
        obs.metrics.inc(
            "repro_codec_encoded_bytes_total", len(data),
            help_text="bytes produced by the profile encoder",
        )
        return data

    def _to_bytes_impl(self, canonical: bool) -> bytes:
        strings = _StringTable()
        body = bytearray()
        _write_uvarint(body, strings.intern(self.process_name))
        _write_uvarint(body, len(self.meta))
        for k in sorted(self.meta):
            v = self.meta[k]
            if not isinstance(v, str):
                raise ProfileError(f"meta values must be str, got {k}={v!r}")
            _write_uvarint(body, strings.intern(k))
            _write_uvarint(body, strings.intern(v))
        _write_uvarint(body, len(self.threads))
        for profile in self.all_profiles():
            _write_uvarint(body, strings.intern(profile.thread_name))
            classes = profile.storage_classes()
            _write_uvarint(body, len(classes))
            for storage in classes:
                _write_uvarint(body, strings.intern(storage.value))
                tree = profile.get_cct(storage)
                assert tree is not None  # storage_classes() only lists present CCTs
                _encode_node(tree.root, body, strings, canonical)
        table = bytearray()
        _write_uvarint(table, len(strings.strings))
        for s in strings.strings:
            raw = s.encode("utf-8")
            _write_uvarint(table, len(raw))
            table.extend(raw)
        return _MAGIC + struct.pack("<H", _VERSION) + bytes(table) + bytes(body)

    def canonical_bytes(self) -> bytes:
        return self.to_bytes(canonical=True)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProfileDB":
        return cls._decode(data, None)

    @classmethod
    def merged_from_bytes(cls, data: bytes, name: str) -> "ProfileDB":
        """``merge_profiles([ProfileDB.from_bytes(data)], name)`` in one pass.

        Each storage class's first CCT is decoded as usual and every later
        thread's CCT of that class is folded into it as it is read, so the
        merged tree is built without materializing the per-thread ones.
        The result encodes to the same plain and canonical bytes as the
        two-step merge.  It accepts a subset of what :meth:`from_bytes`
        accepts, adding only the rules a fold needs: every CCT root key is
        ``("root", <storage class>)``, thread names strictly increase (the
        encoder writes them sorted, and the merge folds them in sorted
        order, keeping the first info it meets), and sibling keys are
        unique within each source tree.
        """
        return cls._decode(data, name)

    @classmethod
    def _decode(cls, data: bytes, merged_name: str | None) -> "ProfileDB":
        obs = _obs_session()
        if obs is None:
            return cls._from_bytes_impl(data, merged_name)
        start = obs.clock.now_us()
        db = cls._from_bytes_impl(data, merged_name)
        obs.trace.complete(
            name="codec:decode", cat="codec", ts_us=start,
            dur_us=obs.clock.now_us() - start, pid=0, tid=3,
            args={"process": db.process_name, "bytes": len(data)},
        )
        obs.metrics.inc(
            "repro_codec_decodes_total", 1,
            help_text="ProfileDB decode operations",
        )
        obs.metrics.inc(
            "repro_codec_decoded_bytes_total", len(data),
            help_text="bytes consumed by the profile decoder",
        )
        return db

    @classmethod
    def _from_bytes_impl(cls, data: bytes, merged_name: str | None) -> "ProfileDB":
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
        size = len(data)
        for _ in range(n_strings):
            if pos < size and data[pos] < 0x80:  # one-byte length: the common case
                end = pos + 1 + data[pos]
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
                end = pos + length
            if end > size:
                raise ProfileError("truncated string-table entry")
            try:
                strings.append(data[pos:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProfileError(f"string-table entry is not valid UTF-8: {exc}") from exc
            pos = end
        values, multibyte_tags = _varint_stream(data[pos:])
        # The tree build allocates several tracked containers per node and
        # frees none, so the cyclic collector would rescan and promote each
        # half-built tree, later forcing full collections over the whole
        # heap.  It cannot reclaim anything here: decoded trees are acyclic
        # (children dicts point only down; keys and info hold only str and
        # int).  So pause it for the build and restore the caller's state.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._from_values(values, version, strings, multibyte_tags, merged_name)
        except IndexError:
            raise ProfileError("truncated profile body") from None
        finally:
            if gc_was_enabled:
                gc.enable()

    @classmethod
    def _from_values(
        cls, values: list[int], version: int, strings: list[str],
        multibyte_tags: set[int], merged_name: str | None,
    ) -> "ProfileDB":
        db = cls(_string_at(strings, values[0]))
        i = 1
        if version >= 2:
            n_meta = values[i]
            i += 1
            for _ in range(n_meta):
                db.meta[_string_at(strings, values[i])] = _string_at(strings, values[i + 1])
                i += 2
        memo: dict[tuple[int, ...], tuple[tuple, dict | None]] = {}
        n_threads = values[i]
        i += 1
        if merged_name is not None:
            db.process_name = merged_name
            merged = ThreadProfile(f"{merged_name}.merged")
            db.add_thread(merged)
            i = _fold_threads(values, i, n_threads, strings, multibyte_tags, memo, merged)
        else:
            for _ in range(n_threads):
                profile = ThreadProfile(_string_at(strings, values[i]))
                n_classes = values[i + 1]
                i += 2
                for _ in range(n_classes):
                    storage = _storage_at(strings, values[i])
                    if storage in profile._ccts:
                        raise ProfileError(f"duplicate storage class {storage.value}")
                    holder: dict[tuple, CCTNode] = {}
                    i = _decode_tree(
                        values, i + 1, strings, multibyte_tags, memo, holder, None
                    )
                    tree = CCT(storage.value)
                    (tree.root,) = holder.values()
                    profile._ccts[storage] = tree
                db.add_thread(profile)
        if i != len(values):
            raise ProfileError(f"{len(values) - i} trailing values after profile body")
        return db

    def size_bytes(self) -> int:
        """Serialized size — the paper's "space overhead" figure."""
        return len(self.to_bytes())
