"""The store's live rollup: each leaf decoded once, compaction only encodes.

``ProfileStore.ingest`` folds the door's merged decode of each leaf into
the app's live rollup right after the leaf is written; ``compact``
encodes it and rebuilds it from disk only when it does not cover exactly
the leaves past the manifest's watermark.  Pinned here: a live
compaction decodes nothing; random schedules of ingests, compactions,
reopens and failed writes keep the rollup equal to a sequential merge
of its leaves; a failed manifest write is not counted twice; blobs no
compaction could fold are refused at the door; and deep call chains
compact.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.cct import KIND_FRAME, KIND_ROOT
from repro.core.profiledb import ProfileDB
from repro.core.storage import StorageClass
from repro.errors import ProfileError, ServeError
from repro.obs import ManualClock, ObsConfig, ObsSession
from repro.parallel.registry import run_app_rank
from repro.serve import ProfileService, ProfileStore, ServeClient
from repro.util.rng import DeterministicRNG

APP = "nw"


@pytest.fixture(scope="module")
def blobs():
    return [run_app_rank(APP, rank, 4).to_bytes() for rank in range(4)]


def _no_decoding(monkeypatch):
    def refuse(cls, *args):
        raise AssertionError("compaction decoded a blob")

    monkeypatch.setattr(ProfileDB, "from_bytes", classmethod(refuse))
    monkeypatch.setattr(ProfileDB, "merged_from_bytes", classmethod(refuse))


class _FailingWrites:
    """Makes the store's next write of a kind of file raise ``OSError``:
    ``"leaf"``, ``"rollup.rpdb"`` or ``"MANIFEST.json"``."""

    def __init__(self, monkeypatch) -> None:
        import repro.serve.store as store_mod

        self.pending: set[str] = set()
        self.fired: list[str] = []
        write = store_mod._atomic_write

        def atomic_write(path, data):
            kind = "leaf" if path.parent.name.startswith("shard-") else path.name
            if kind in self.pending:
                self.pending.discard(kind)
                self.fired.append(kind)
                raise OSError(f"injected failure writing {path.name}")
            write(path, data)

        monkeypatch.setattr(store_mod, "_atomic_write", atomic_write)


def test_live_compaction_decodes_nothing(tmp_path, blobs, monkeypatch):
    store = ProfileStore(tmp_path / "s", shards=2)
    for blob in blobs[:2]:
        store.ingest(APP, blob)
    profiles = [ProfileDB.merged_from_bytes(blob, APP) for blob in blobs[2:]]
    with monkeypatch.context() as patch:
        _no_decoding(patch)
        assert store.compact(APP).leaves_folded == 2
        for blob, profile in zip(blobs[2:], profiles):
            store.ingest(APP, blob, profile)
        assert store.compact(APP).leaves_folded == 2
    assert store.verify_rollup(APP) == (True, 4)


def test_reopened_store_rebuilds_once(tmp_path, blobs, monkeypatch):
    store = ProfileStore(tmp_path / "s", shards=2)
    store.ingest(APP, blobs[0])
    store.compact(APP)
    store.ingest(APP, blobs[1])
    reopened = ProfileStore(tmp_path / "s", shards=2)
    reopened.ingest(APP, blobs[2])
    assert reopened.compact(APP).leaves_folded == 2  # rebuilt from disk
    profile = ProfileDB.merged_from_bytes(blobs[3], APP)
    with monkeypatch.context() as patch:
        _no_decoding(patch)
        reopened.ingest(APP, blobs[3], profile)
        assert reopened.compact(APP).leaves_folded == 1
    assert reopened.verify_rollup(APP) == (True, 4)


def test_door_profile_is_folded_as_given(tmp_path, blobs):
    store = ProfileStore(tmp_path / "s")
    profile = ProfileDB.merged_from_bytes(blobs[0], APP)
    store.ingest(APP, blobs[0], profile)
    store.compact(APP)
    assert store.rollup_bytes(APP) == profile.canonical_bytes()


def test_failed_manifest_write_is_not_counted_twice(tmp_path, blobs, monkeypatch):
    store = ProfileStore(tmp_path / "s", shards=2)
    for blob in blobs[:2]:
        store.ingest(APP, blob)
    failing = _FailingWrites(monkeypatch)
    failing.pending.add("MANIFEST.json")
    with pytest.raises(OSError, match="injected"):
        store.compact(APP)
    assert store.generation(APP) == 0  # the new rollup is on disk, the manifest is not
    result = store.compact(APP)
    assert result.generation == 1 and result.leaves_folded == 2
    assert store.verify_rollup(APP) == (True, 2)


def test_failed_rollup_write_keeps_the_live_rollup(tmp_path, blobs, monkeypatch):
    store = ProfileStore(tmp_path / "s", shards=2)
    store.ingest(APP, blobs[0])
    failing = _FailingWrites(monkeypatch)
    failing.pending.add("rollup.rpdb")
    with pytest.raises(OSError, match="injected"):
        store.compact(APP)
    store.ingest(APP, blobs[1])
    with monkeypatch.context() as patch:
        _no_decoding(patch)
        assert store.compact(APP).leaves_folded == 2
    assert store.verify_rollup(APP) == (True, 2)


def test_another_store_compacting_forces_a_rebuild(tmp_path, blobs, monkeypatch):
    mine = ProfileStore(tmp_path / "s")
    mine.ingest(APP, blobs[0])
    mine.ingest(APP, blobs[1])
    ProfileStore(tmp_path / "s").compact(APP)
    mine.ingest(APP, blobs[2])
    decode = ProfileDB.merged_from_bytes.__func__
    decoded = []

    def tracking_decode(cls, data, name):
        decoded.append(len(data))
        return decode(cls, data, name)

    monkeypatch.setattr(ProfileDB, "merged_from_bytes", classmethod(tracking_decode))
    assert mine.compact(APP).leaves_folded == 1
    assert len(decoded) == 2  # the other store's rollup, then leaf 3
    assert mine.verify_rollup(APP) == (True, 3)


@pytest.mark.parametrize("seed", range(6))
def test_random_schedules_keep_the_rollup_exact(tmp_path, blobs, monkeypatch, seed):
    """Ingests, compactions, reopens and failed leaf/rollup/manifest writes
    in a seeded random order.  After a failed manifest write the same
    store compacts again before any reopen: a restart in that window
    double counts, the store's known crash-consistency gap."""
    rng = DeterministicRNG(seed)
    failing = _FailingWrites(monkeypatch)
    store = ProfileStore(tmp_path / "s", shards=3)
    stored = 0
    manifest_failed = False
    for _ in range(30):
        op = rng.randint(0, 9)
        if op <= 4:
            try:
                store.ingest(APP, blobs[rng.randint(0, len(blobs) - 1)])
                stored += 1
            except OSError:
                assert failing.fired[-1] == "leaf"
        elif op <= 6 or manifest_failed:
            try:
                result = store.compact(APP)
            except OSError:
                manifest_failed = failing.fired[-1] == "MANIFEST.json"
                continue
            manifest_failed = False
            if result.changed:
                assert store.verify_rollup(APP) == (True, stored)
        elif op == 7:
            store = ProfileStore(tmp_path / "s", shards=3)
        else:
            failing.pending.add(("leaf", "rollup.rpdb", "MANIFEST.json")[rng.randint(0, 2)])
    failing.pending.clear()
    store.ingest(APP, blobs[0])
    store.compact(APP)
    assert store.verify_rollup(APP) == (True, stored + 1)
    assert failing.fired  # every seed injects at least one failure


# -- blobs that used to pass the door and then stall every compaction -----------


def _deep_chain_blob(depth: int = 5000) -> bytes:
    db = run_app_rank(APP, 0, 2, preset="smoke")
    tree = next(db.all_profiles()).cct(StorageClass.UNKNOWN)
    leaf = tree.insert_path([((KIND_FRAME, f"f{d}", d), None) for d in range(depth)])
    leaf.metrics.samples = 1
    return db.to_bytes()


def _foreign_root_blob() -> bytes:
    db = run_app_rank(APP, 0, 2, preset="smoke")
    first = next(db.all_profiles())
    first.get_cct(StorageClass.HEAP).root.key = (KIND_ROOT, "not-heap")
    return db.to_bytes()


def _serve(tmp_path, body):
    session = ObsSession(ObsConfig(wall_clock=ManualClock()))
    service = ProfileService(ProfileStore(tmp_path / "store", shards=2), session=session)

    async def runner():
        host, port = await service.start()
        try:
            async with ServeClient(host, port) as client:
                await body(client)
        finally:
            await service.stop()

    asyncio.run(runner())
    return service, session


def test_deep_call_chain_compacts(tmp_path, blobs):
    deep = _deep_chain_blob()

    async def body(client):
        assert await client.ingest(APP, deep) == 1
        assert await client.ingest(APP, blobs[0]) == 2
        assert (await client.compact(APP))["leaves_folded"] == 2
        assert await client.ingest(APP, deep) == 3
        assert (await client.compact(APP))["generation"] == 2

    service, _ = _serve(tmp_path, body)
    assert service.store.verify_rollup(APP) == (True, 3)
    reopened = ProfileStore(tmp_path / "store", shards=2)
    reopened.ingest(APP, deep)
    assert reopened.compact(APP).leaves_folded == 1  # the rebuild path
    assert reopened.verify_rollup(APP) == (True, 4)


def test_unfoldable_blob_rejected_at_the_door(tmp_path, blobs):
    bad = _foreign_root_blob()
    ProfileDB.from_bytes(bad)  # a plain decode accepts it

    async def body(client):
        with pytest.raises(ServeError, match="root key"):
            await client.ingest(APP, bad)
        assert await client.ingest(APP, blobs[0]) == 1
        assert (await client.compact(APP))["generation"] == 1

    service, session = _serve(tmp_path, body)
    assert session.metrics.value(
        "repro_serve_rejected_total", {"app": APP, "reason": "corrupt-blob"}
    ) == 1
    assert service.store.verify_rollup(APP) == (True, 1)


def test_unfoldable_blob_rejected_by_the_store(tmp_path):
    store = ProfileStore(tmp_path / "s")
    with pytest.raises(ProfileError, match="root key"):
        store.ingest(APP, _foreign_root_blob())
    assert store.leaves(APP) == []
