"""Codec hardening: corrupt input, version compat, round-trip fidelity.

The codec is the wire format between the parallel driver's worker
processes and the rank-file merge, so every malformed input must surface as
:class:`ProfileError` — never a raw ``IndexError``/``UnicodeDecodeError``
/``RecursionError`` escaping the parser guts — and a well-formed
round-trip must preserve profiles exactly (merge-equivalence included).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cct import KIND_FRAME, KIND_IP
from repro.core.merge import merge_profiles
from repro.core.metrics import MetricKind
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ProfileError
from repro.pmu.sample import Sample


def _sample(latency=10, level=3):
    return Sample("T", 1, 1, 0x10, latency, level, False, False, 64)


def _profile(thread_name: str, spec) -> ThreadProfile:
    profile = ThreadProfile(thread_name)
    for storage, names, latency in spec:
        path = [((KIND_FRAME, n, 0), {"label": n}) for n in names[:-1]]
        path.append(((KIND_IP, names[-1], 1, 0), {"label": names[-1]}))
        profile.cct(storage).add_sample_at(path, _sample(latency=latency))
    return profile


def _reference_db() -> ProfileDB:
    db = ProfileDB("p0", meta={"app": "unit", "rank": "3"})
    db.add_thread(_profile("t0", [
        (StorageClass.HEAP, ("main", "solve", "x"), 5),
        (StorageClass.STATIC, ("main", "y"), 3),
    ]))
    db.add_thread(_profile("t1", [
        (StorageClass.HEAP, ("main", "solve", "x"), 7),
        (StorageClass.UNKNOWN, ("main", "z"), 2),
    ]))
    return db


def _uv(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class TestCorruptInput:
    """No malformed buffer may raise anything but ProfileError."""

    def test_every_truncation_rejected(self):
        data = _reference_db().to_bytes()
        for end in range(len(data)):
            with pytest.raises(ProfileError):
                ProfileDB.from_bytes(data[:end])

    def test_every_single_byte_corruption_is_contained(self):
        """Flip every byte: either a clean ProfileError or a valid parse
        (some flips only change a metric value), never a raw exception."""
        data = _reference_db().to_bytes()
        for offset in range(len(data)):
            mutated = bytearray(data)
            mutated[offset] ^= 0xFF
            try:
                ProfileDB.from_bytes(bytes(mutated))
            except ProfileError:
                pass

    def test_trailing_garbage_rejected(self):
        data = _reference_db().to_bytes()
        with pytest.raises(ProfileError, match="trailing"):
            ProfileDB.from_bytes(data + b"\x00")

    def test_unbounded_varint_run_rejected(self):
        # A corrupt continuation run right where the string-table count
        # lives must hit the shift cap, not shift forever.
        payload = b"RPDB" + struct.pack("<H", 2) + b"\x80" * 64 + b"\x01"
        with pytest.raises(ProfileError, match="64 bits"):
            ProfileDB.from_bytes(payload)

    def test_absurd_count_rejected_before_allocation(self):
        # string-table count claims ~2**28 entries in a 10-byte buffer.
        payload = b"RPDB" + struct.pack("<H", 2) + b"\xff\xff\xff\x7f"
        with pytest.raises(ProfileError, match="count"):
            ProfileDB.from_bytes(payload)

    def test_bad_utf8_string_rejected(self):
        table = _uv(1) + _uv(2) + b"\xff\xfe"
        payload = b"RPDB" + struct.pack("<H", 2) + table + _uv(0) + _uv(0) + _uv(0)
        with pytest.raises(ProfileError, match="UTF-8"):
            ProfileDB.from_bytes(payload)

    def test_unknown_version_rejected(self):
        data = bytearray(_reference_db().to_bytes())
        struct.pack_into("<H", data, 4, 99)
        with pytest.raises(ProfileError, match="version"):
            ProfileDB.from_bytes(bytes(data))

    def test_deep_nesting_does_not_recurse(self):
        """A pathologically deep chain decodes iteratively."""
        profile = ThreadProfile("t")
        path = [((KIND_FRAME, f"f{i}", 0), None) for i in range(5000)]
        profile.cct(StorageClass.HEAP).insert_path(path)
        db = ProfileDB("deep")
        db.add_thread(profile)
        rt = ProfileDB.from_bytes(db.to_bytes())
        assert rt.node_count() == db.node_count()


class TestVersionCompat:
    def test_v1_payload_without_meta_decodes(self):
        # Hand-built v1 body: no metadata section between the process
        # name and the thread count.
        strings = [b"p", b"t", b"nonmem"]
        table = _uv(len(strings)) + b"".join(_uv(len(s)) + s for s in strings)
        empty_node = _uv(0) + _uv(0) + _uv(0) * 10 + _uv(0)  # key/info/metrics/kids
        body = _uv(0) + _uv(1) + _uv(1) + _uv(1) + _uv(2) + empty_node
        payload = b"RPDB" + struct.pack("<H", 1) + table + body
        db = ProfileDB.from_bytes(payload)
        assert db.process_name == "p"
        assert db.meta == {}
        assert db.threads["t"].storage_classes() == [StorageClass.NONMEM]

    def test_writer_emits_v2(self):
        data = _reference_db().to_bytes()
        assert struct.unpack_from("<H", data, 4)[0] == 2


class TestRoundTrip:
    def test_meta_round_trips(self):
        db = _reference_db()
        rt = ProfileDB.from_bytes(db.to_bytes())
        assert rt.meta == {"app": "unit", "rank": "3"}
        assert rt.to_bytes() == db.to_bytes()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(StorageClass)),
                st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4),
                st.integers(0, 2**40),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_everything(self, spec):
        db = ProfileDB("p", meta={"k": "v"})
        db.add_thread(_profile("t", spec))
        rt = ProfileDB.from_bytes(db.to_bytes())
        assert rt.node_count() == db.node_count()
        assert rt.meta == db.meta
        for storage in db.threads["t"].storage_classes():
            orig = db.threads["t"].get_cct(storage)
            back = rt.threads["t"].get_cct(storage)
            assert back is not None
            assert back.root.to_dict() == orig.root.to_dict()
            for kind in MetricKind:
                assert back.total(kind) == orig.total(kind)
        # The round-trip is also stable: re-encoding yields the same bytes.
        assert rt.to_bytes() == db.to_bytes()

    def test_roundtrip_is_merge_equivalent_for_app_profile(self):
        """A real (short) app run survives the codec: merging the
        round-tripped copies gives byte-identical results to merging
        the originals."""
        from repro.apps.lulesh import run_rank

        dbs = [run_rank(rank, 2) for rank in range(2)]
        assert all(db.node_count() > 0 for db in dbs)
        round_tripped = [ProfileDB.from_bytes(db.to_bytes()) for db in dbs]
        merged_orig = merge_profiles(dbs, "job")
        merged_rt = merge_profiles(round_tripped, "job")
        assert merged_rt.canonical_bytes() == merged_orig.canonical_bytes()
