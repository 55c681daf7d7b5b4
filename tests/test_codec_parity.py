"""Differential parity: the one-pass decoder against the frozen oracle.

``tests/codec_v2_oracle.py`` is the per-node decoder the codec used to
ship.  The production decoder must accept exactly the inputs the oracle
accepts and build profiles that encode to the same bytes, including on
corrupt input: every truncation and every single-byte XOR of two real
rank blobs, non-minimal varints, and non-minimal key tags.  Round-trips
cover the varint value domain edges and string tables large enough for
multi-byte string indices.
"""

from __future__ import annotations

import functools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cct import KIND_FRAME, KIND_IP, CCTNode
from repro.core.metrics import MetricVector
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ProfileError
from repro.parallel.registry import run_app_rank
from tests.codec_v2_oracle import oracle_decode
from tests.test_codec_robustness import _uv

PARITY_APPS = ("sweep3d", "nw")
MUTATIONS = ("truncate", 0xFF, 0x80, 0x01)


@functools.cache
def _smoke_blob(app: str) -> bytes:
    return run_app_rank(app, 0, 2, preset="smoke").to_bytes()


def _outcome(decode, data: bytes) -> bytes | None:
    """Re-encoded profile, or ``None`` if rejected.  Any exception other
    than ProfileError escapes and fails the test."""
    try:
        return decode(data).to_bytes()
    except ProfileError:
        return None


def _variants(data: bytes, mutation):
    if mutation == "truncate":
        for end in range(len(data)):
            yield end, data[:end]
        return
    for offset in range(len(data)):
        mutated = bytearray(data)
        mutated[offset] ^= mutation
        yield offset, bytes(mutated)


def _payload(strings: list[bytes], body: bytes) -> bytes:
    table = _uv(len(strings)) + b"".join(_uv(len(s)) + s for s in strings)
    return b"RPDB" + struct.pack("<H", 2) + table + body


_EMPTY_METRICS = _uv(0) * 10


class TestMutatedBlobs:
    @pytest.mark.parametrize(
        "mutation", MUTATIONS, ids=lambda m: m if isinstance(m, str) else f"xor{m:#04x}"
    )
    @pytest.mark.parametrize("app", PARITY_APPS)
    def test_same_accept_set_and_same_profiles(self, app, mutation):
        data = _smoke_blob(app)
        assert ProfileDB.from_bytes(data).to_bytes() == data
        mismatches = []
        for where, variant in _variants(data, mutation):
            ours = _outcome(ProfileDB.from_bytes, variant)
            if ours != _outcome(oracle_decode, variant):
                mismatches.append(where)
        assert not mismatches, f"{app}/{mutation}: differs from oracle at {mismatches[:10]}"


class TestCraftedInput:
    def test_non_minimal_tag_rejected_even_when_span_is_memoized(self):
        # Thread "t" has root key ("x",) with a one-byte STR tag; thread
        # "u" spells the same tag as 0x81 0x00.  The value span matches the
        # memoized one, but a tag byte >= 0x80 is corrupt.
        node_ok = _uv(1) + b"\x01" + _uv(3) + _uv(0) + _EMPTY_METRICS + _uv(0)
        node_multibyte_tag = _uv(1) + b"\x81\x00" + _uv(3) + _uv(0) + _EMPTY_METRICS + _uv(0)
        strings = [b"p", b"t", b"heap", b"x", b"u"]
        body = (
            _uv(0) + _uv(0) + _uv(2)
            + _uv(1) + _uv(1) + _uv(2) + node_ok
            + _uv(4) + _uv(1) + _uv(2) + node_multibyte_tag
        )
        payload = _payload(strings, body)
        for decode in (oracle_decode, ProfileDB.from_bytes):
            with pytest.raises(ProfileError, match="tag"):
                decode(payload)
        single = _payload(
            strings, _uv(0) + _uv(0) + _uv(1) + _uv(4) + _uv(1) + _uv(2) + node_multibyte_tag
        )
        for decode in (oracle_decode, ProfileDB.from_bytes):
            with pytest.raises(ProfileError, match="tag"):
                decode(single)

    @staticmethod
    def _one_node(metrics: bytes, n_children: bytes = b"\x00") -> bytes:
        """Profile "p", thread "t", one heap CCT whose root key is ("x",)."""
        node = _uv(1) + b"\x01" + _uv(3) + _uv(0) + metrics + n_children
        return _payload(
            [b"p", b"t", b"heap", b"x"],
            _uv(0) + _uv(0) + _uv(1) + _uv(1) + _uv(1) + _uv(2) + node,
        )

    def test_non_minimal_varints_outside_tags_decode_alike(self):
        # 0x80 0x00 is a two-byte zero; both decoders accept it as a
        # metric value and a child count and re-encode it minimally.
        payload = self._one_node(b"\x80\x00" + b"\x85\x80\x00" + _uv(0) * 8, b"\x80\x00")
        ours = ProfileDB.from_bytes(payload)
        assert ours.to_bytes() == oracle_decode(payload).to_bytes()
        cct = ours.threads["t"].get_cct(StorageClass.HEAP)
        assert cct is not None and cct.root.metrics.latency == 5

    def test_varint_length_cap(self):
        longest = self._one_node(_uv(0) + _uv(2**70 - 1) + _uv(0) * 8)
        assert len(_uv(2**70 - 1)) == 10
        assert ProfileDB.from_bytes(longest).to_bytes() == oracle_decode(longest).to_bytes()
        too_long = self._one_node(_uv(0) + _uv(2**70) + _uv(0) * 8)
        for decode in (oracle_decode, ProfileDB.from_bytes):
            with pytest.raises(ProfileError, match="64 bits"):
                decode(too_long)

    def test_decoded_nodes_have_every_slot_and_no_shared_info(self):
        # The decoder fills CCTNode/MetricVector slots directly; a slot
        # added to either class must be filled there too.
        db = ProfileDB.from_bytes(_smoke_blob("sweep3d"))
        infos = []
        for profile in db.all_profiles():
            for storage in profile.storage_classes():
                cct = profile.get_cct(storage)
                assert cct is not None
                for node in cct.root.walk():
                    for slot in CCTNode.__slots__:
                        getattr(node, slot)
                    for slot in MetricVector.__slots__:
                        getattr(node.metrics, slot)
                    if node.info is not None:
                        infos.append(node.info)
        assert infos and len({id(info) for info in infos}) == len(infos)


def _edge_db(metrics: list[int], n_frames: int) -> ProfileDB:
    """A chain of ``n_frames`` distinct frames (two strings each, so
    n_frames > 64 needs multi-byte string indices) with mixed-sign int
    key elements and the given metric values on the leaf."""
    profile = ThreadProfile("t")
    path = [
        ((KIND_FRAME, f"f{i}", -i if i % 2 else i), {"label": f"l{i}"})
        for i in range(n_frames)
    ]
    path.append(((KIND_IP, "leaf", 7, 0), None))
    leaf = profile.cct(StorageClass.HEAP).insert_path(path)
    m = leaf.metrics
    m.samples, m.latency, m.events, m.tlb_misses, m.stores = metrics[:5]
    m.levels = list(metrics[5:])
    db = ProfileDB("p", meta={"k": "v"})
    db.add_thread(profile)
    return db


_EDGE_VALUES = (0, 127, 128, 2**14, 2**63, 2**64, 2**70 - 1)


class TestRoundTripDomain:
    @given(
        metrics=st.lists(
            st.sampled_from(_EDGE_VALUES) | st.integers(0, 2**70 - 1),
            min_size=10, max_size=10,
        ),
        n_frames=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_edge_values_and_large_string_tables(self, metrics, n_frames):
        db = _edge_db(metrics, n_frames)
        data = db.to_bytes()
        ours = ProfileDB.from_bytes(data)
        assert ours.to_bytes() == data
        assert oracle_decode(data).to_bytes() == data
        assert ours.node_count() == db.node_count()

    def test_more_than_128_strings(self):
        data = _edge_db([128] * 10, 100).to_bytes()
        assert data[6] & 0x80 and (data[6] & 0x7F | data[7] << 7) > 128  # two-byte string count
        assert ProfileDB.from_bytes(data).to_bytes() == oracle_decode(data).to_bytes() == data

    def test_encoder_refuses_values_the_decoder_rejects(self):
        data = _edge_db([2**70 - 1] * 10, 1).to_bytes()
        assert ProfileDB.from_bytes(data).to_bytes() == data
        for bad in (2**70, -1):
            with pytest.raises(ProfileError, match="cannot encode"):
                _edge_db([0, bad] + [0] * 8, 1).to_bytes()
