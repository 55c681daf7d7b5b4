"""Rebuilding compaction: bounded decoded profiles, clean mid-stream failure.

A reopened store has no live rollup, so ``ProfileStore.compact``
rebuilds it from disk: it folds ``[rollup] + fresh leaves`` one input
at a time, decoding each leaf just before it folds.  Pinned here:
however many leaves are pending, only a couple of decoded profiles are
alive at any decode; and a leaf that rots in the middle of a batch
fails the compaction before anything is written, leaving rollup,
generation and watermark untouched.
"""

from __future__ import annotations

import json
import weakref

import pytest

from repro.core.profiledb import ProfileDB
from repro.errors import ServeError
from repro.parallel.registry import run_app_rank
from repro.serve import ProfileStore

APP = "nw"


@pytest.fixture(scope="module")
def blobs():
    return [
        run_app_rank(APP, rank, 4).to_bytes(canonical=True) for rank in range(4)
    ]


def _ingest(store: ProfileStore, blobs: list[bytes], n: int) -> None:
    for i in range(n):
        store.ingest(APP, blobs[i % len(blobs)])


def _snapshot(store: ProfileStore) -> tuple:
    app_dir = store.root / APP
    manifest = json.loads((app_dir / "MANIFEST.json").read_text())
    files = sorted(p.relative_to(app_dir).as_posix() for p in app_dir.rglob("*"))
    return store.rollup_bytes(APP), manifest, files


def test_compaction_holds_a_bounded_number_of_decoded_profiles(
    tmp_path, blobs, monkeypatch
):
    store = ProfileStore(tmp_path / "s", shards=2)
    _ingest(store, blobs, 2)
    store.compact(APP)
    _ingest(store, blobs, 20)
    store = ProfileStore(tmp_path / "s", shards=2)  # reopened: rebuilds from disk

    decode = ProfileDB.merged_from_bytes.__func__
    decoded: list[weakref.ref] = []
    alive_at_call: list[int] = []

    def tracking_decode(cls, data, name):
        alive_at_call.append(sum(1 for ref in decoded if ref() is not None))
        db = decode(cls, data, name)
        decoded.append(weakref.ref(db))
        return db

    monkeypatch.setattr(ProfileDB, "merged_from_bytes", classmethod(tracking_decode))
    result = store.compact(APP)
    monkeypatch.undo()

    assert result.leaves_folded == 20
    assert len(alive_at_call) == 21  # the rollup, then each leaf once
    assert max(alive_at_call) <= 3, alive_at_call
    assert store.verify_rollup(APP) == (True, 22)


def test_leaf_rotting_mid_batch_leaves_store_unchanged(tmp_path, blobs):
    store = ProfileStore(tmp_path / "s", shards=2)
    _ingest(store, blobs, 2)
    store.compact(APP)
    _ingest(store, blobs, 5)
    store.leaves(APP)[4].path.write_bytes(b"rotted")  # third fresh leaf
    store = ProfileStore(tmp_path / "s", shards=2)  # reopened: rebuilds from disk
    before = _snapshot(store)

    with pytest.raises(ServeError, match="unreadable"):
        store.compact(APP)

    assert _snapshot(store) == before
    rollup, manifest, _ = before
    assert rollup is not None
    assert manifest == {"compacted_upto": 2, "generation": 1}
