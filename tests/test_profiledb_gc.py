"""The decoder's cyclic-GC pause: narrow, state-restoring, leak-free.

``ProfileDB._from_bytes_impl`` pauses the cyclic collector while it
builds the decoded trees, because the collector could reclaim nothing
there and would otherwise rescan and promote every half-built tree.
Pinned here: every decode, valid or malformed, leaves ``gc.isenabled()``
exactly as the caller had it; no collection runs inside a decode; and
decoded trees hold no reference cycles, so the pause can never strand
garbage.
"""

from __future__ import annotations

import gc
import struct

import pytest

from repro.core.profiledb import _N_METRIC_FIELDS, ProfileDB
from repro.errors import ProfileError
from repro.parallel.registry import run_app_rank


@pytest.fixture(scope="module")
def lulesh_blob() -> bytes:
    return run_app_rank("lulesh", 0, 2).to_bytes(canonical=True)


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _one_node_payload(tag: int) -> bytes:
    """A minimal v2 profile: one thread, one CCT whose root key is (tag, 0)."""
    strings = [b"p", b"t", b"nonmem"]
    table = bytes([len(strings)]) + b"".join(bytes([len(s)]) + s for s in strings)
    node = bytes([1, tag, 0, 0]) + bytes(_N_METRIC_FIELDS) + bytes([0])
    # name, no meta, one thread named "t" with one CCT of class "nonmem"
    body = bytes([0, 0, 1, 1, 1, 2]) + node
    return b"RPDB" + struct.pack("<H", 2) + table + body


def _cases(blob: bytes) -> dict[str, tuple[bytes, str | None]]:
    """name -> (payload, the ProfileError message it raises, or None)."""
    return {
        "valid": (blob, None),
        "one node": (_one_node_payload(tag=0), None),
        "truncated": (blob[:-1], "truncated"),
        "bad magic": (b"XPDB" + blob[4:], "magic"),
        "bad tag": (_one_node_payload(tag=3), "bad key tag"),
        "trailing values": (blob + b"\x00", "trailing"),
    }


class TestStateRestored:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_every_decode_leaves_gc_state_as_found(self, lulesh_blob, restore_gc, enabled):
        for name, (data, error) in _cases(lulesh_blob).items():
            if enabled:
                gc.enable()
            else:
                gc.disable()
            if error is None:
                ProfileDB.from_bytes(data)
            else:
                with pytest.raises(ProfileError, match=error):
                    ProfileDB.from_bytes(data)
            assert gc.isenabled() is enabled, name


class TestNoCollectionInsideDecode:
    def test_no_collection_while_decoding(self, lulesh_blob, restore_gc):
        gc.enable()
        inside = [False]
        collections: list[int] = []

        def hook(phase: str, info: dict) -> None:
            if phase == "start" and inside[0]:
                collections.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            gc.collect()  # start from empty young generations
            inside[0] = True
            db = ProfileDB.from_bytes(lulesh_blob)
            inside[0] = False
        finally:
            gc.callbacks.remove(hook)
        assert db.node_count() > 1000
        assert collections == []

    def test_decoded_trees_are_acyclic(self, lulesh_blob, restore_gc):
        gc.enable()
        gc.collect()
        db = ProfileDB.from_bytes(lulesh_blob)
        assert db.node_count() > 1000
        del db
        assert gc.collect() == 0
