"""Continuous-profiling service: store invariants, ingest protocol, queries.

The load-bearing pin is rollup byte-identity: however ingest and
compaction interleave, the store's incrementally-maintained rollup must
equal ``merge_profiles`` over the same leaves byte-for-byte (canonical
codec).  The rest covers the asyncio front end — framing, corrupt-blob
rejection, bounded-queue backpressure, ack-after-durable — and the
query layer's generation-keyed memoization and invalidation.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.merge import merge_profiles
from repro.core.profiledb import ProfileDB
from repro.errors import ServeError
from repro.obs import ManualClock, ObsConfig, ObsSession
from repro.parallel.registry import run_app_rank
from repro.serve import ProfileService, ProfileStore, QueryEngine, ServeClient
from repro.serve.service import STATUS_ERROR, pack_request, read_response


@pytest.fixture(scope="module")
def blobs():
    """Four real rank profiles (canonical codec-v2 bytes)."""
    return [
        run_app_rank("nw", rank, 4).to_bytes(canonical=True) for rank in range(4)
    ]


def _session() -> ObsSession:
    return ObsSession(ObsConfig(wall_clock=ManualClock()))


def _reference(blobs: list[bytes], app: str) -> bytes:
    dbs = [ProfileDB.from_bytes(b) for b in blobs]
    return merge_profiles(dbs, name=app).canonical_bytes()


# ------------------------------------------------------------------- store


class TestStore:
    def test_shard_layout_and_reopen(self, tmp_path, blobs):
        store = ProfileStore(tmp_path / "s", shards=2)
        for blob in blobs:
            store.ingest("nw", blob)
        refs = store.leaves("nw")
        assert [r.seq for r in refs] == [1, 2, 3, 4]
        assert {r.shard for r in refs} == {"shard-00", "shard-01"}
        # A fresh instance recovers the sequence counter from filenames.
        reopened = ProfileStore(tmp_path / "s", shards=2)
        assert reopened.ingest("nw", blobs[0]) == 5

    def test_corrupt_blob_rejected_at_ingest(self, tmp_path):
        store = ProfileStore(tmp_path / "s")
        from repro.errors import ProfileError

        with pytest.raises(ProfileError):
            store.ingest("nw", b"not a profile")
        assert store.leaves("nw") == []

    @pytest.mark.parametrize("bad", ["", "../up", "a/b", ".hidden", "x" * 65])
    def test_bad_namespace_rejected(self, tmp_path, bad):
        store = ProfileStore(tmp_path / "s")
        with pytest.raises(ServeError):
            store.ingest(bad, b"")

    def test_compact_noop_keeps_generation(self, tmp_path, blobs):
        store = ProfileStore(tmp_path / "s")
        store.ingest("nw", blobs[0])
        first = store.compact("nw")
        assert first.changed and first.generation == 1
        again = store.compact("nw")
        assert not again.changed and again.generation == 1
        assert store.rollup_bytes("nw") is not None

    def test_rollup_byte_identity_across_schedules(self, tmp_path, blobs):
        """The acceptance pin: three interleavings, one byte string."""
        expected = _reference(blobs, "nw")
        schedules = {
            "one-shot": [4],              # compact once after everything
            "pairs": [2, 2],              # compact mid-stream
            "eager": [1, 1, 1, 1],        # compact after every blob
        }
        outputs = {}
        for name, batches in schedules.items():
            store = ProfileStore(tmp_path / name, shards=3)
            it = iter(blobs)
            for batch in batches:
                for _ in range(batch):
                    store.ingest("nw", next(it))
                store.compact("nw")
            identical, covered = store.verify_rollup("nw")
            assert identical and covered == 4
            outputs[name] = store.rollup_bytes("nw")
        assert outputs["one-shot"] == expected
        assert outputs["pairs"] == expected
        assert outputs["eager"] == expected

    def test_unreadable_stored_leaf_is_integrity_error(self, tmp_path, blobs):
        store = ProfileStore(tmp_path / "s", shards=1)
        store.ingest("nw", blobs[0])
        [ref] = store.leaves("nw")
        ref.path.write_bytes(b"rotted")
        with pytest.raises(ServeError, match="unreadable"):
            store.compact("nw")

    def test_stats_counts_uncompacted(self, tmp_path, blobs):
        store = ProfileStore(tmp_path / "s", shards=2)
        store.ingest("nw", blobs[0])
        store.compact("nw")
        store.ingest("nw", blobs[1])
        stats = store.stats("nw")
        assert stats.leaves == 2 and stats.uncompacted == 1
        assert stats.generation == 1 and stats.rollup_bytes > 0


# ----------------------------------------------------------------- service


def _with_service(tmp_path, coro_factory, blobs=None, **service_kw):
    """Run an async test body against a started service; returns session."""
    session = _session()
    store = ProfileStore(tmp_path / "store", shards=2)
    service = ProfileService(store, session=session, **service_kw)

    async def runner():
        host, port = await service.start()
        try:
            await coro_factory(service, host, port)
        finally:
            await service.stop()

    asyncio.run(runner())
    return service, session


class TestService:
    def test_ingest_compact_query_round_trip(self, tmp_path, blobs):
        async def body(service, host, port):
            async with ServeClient(host, port) as client:
                seqs = [await client.ingest("nw", b) for b in blobs]
                assert seqs == [1, 2, 3, 4]
                compacted = await client.compact("nw")
                assert compacted["generation"] == 1
                assert compacted["leaves_folded"] == 4
                top = await client.query("nw", "topdown")
                assert "backend_bound" in top["text"]
                assert top["generation"] == 1 and top["cached"] is False
                bottom = await client.query("nw", "bottomup", metric="latency")
                assert bottom["sites"]
                variables = await client.query("nw", "variables", n=3)
                assert len(variables["variables"]) <= 3

        service, _ = _with_service(tmp_path, body, blobs)
        identical, covered = service.store.verify_rollup("nw")
        assert identical and covered == 4

    def test_interleaved_service_schedule_matches_reference(
        self, tmp_path, blobs
    ):
        """Second pinned schedule through the full network path."""

        async def body(service, host, port):
            async with ServeClient(host, port) as client:
                await client.ingest("nw", blobs[0])
                await client.compact("nw")
                for blob in blobs[1:3]:
                    await client.ingest("nw", blob)
                await client.compact("nw")
                await client.ingest("nw", blobs[3])
                await client.compact("nw")

        service, _ = _with_service(tmp_path, body, blobs)
        assert service.store.rollup_bytes("nw") == _reference(blobs, "nw")

    def test_corrupt_blob_rejected_and_counted(self, tmp_path, blobs):
        async def body(service, host, port):
            async with ServeClient(host, port) as client:
                with pytest.raises(ServeError, match="corrupt"):
                    await client.ingest("nw", b"garbage bytes")
                # The connection survives a rejection.
                assert await client.ingest("nw", blobs[0]) == 1

        service, session = _with_service(tmp_path, body, blobs)
        assert session.metrics.value(
            "repro_serve_rejected_total",
            {"app": "nw", "reason": "corrupt-blob"},
        ) == 1
        assert session.metrics.value(
            "repro_serve_ingest_total", {"app": "nw"}
        ) == 1

    def test_bad_magic_and_unknown_op(self, tmp_path, blobs):
        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"BOGUSFRAMEBYTES")
            await writer.drain()
            status, payload = await read_response(reader)
            assert status == STATUS_ERROR and "magic" in payload["error"]
            writer.close()

            reader, writer = await asyncio.open_connection(host, port)
            writer.write(pack_request(99, "nw", b""))
            await writer.drain()
            status, payload = await read_response(reader)
            assert status == STATUS_ERROR and "unknown op" in payload["error"]
            writer.close()

        _with_service(tmp_path, body)

    def test_query_without_rollup_is_clear_error(self, tmp_path, blobs):
        async def body(service, host, port):
            async with ServeClient(host, port) as client:
                await client.ingest("nw", blobs[0])
                with pytest.raises(ServeError, match="no compacted rollup"):
                    await client.query("nw", "topdown")

        _with_service(tmp_path, body, blobs)

    def test_two_apps_namespace_isolation(self, tmp_path, blobs):
        async def body(service, host, port):
            async def ship(app, subset):
                async with ServeClient(host, port) as client:
                    for blob in subset:
                        await client.ingest(app, blob)
                    await client.compact(app)

            await asyncio.gather(
                ship("alpha", blobs[:2]), ship("beta", blobs[2:])
            )
            async with ServeClient(host, port) as client:
                status = await client.query("", "status")
                assert set(status["apps"]) == {"alpha", "beta"}
                assert status["apps"]["alpha"]["leaves"] == 2
                assert status["apps"]["beta"]["leaves"] == 2

        service, _ = _with_service(tmp_path, body, blobs)
        for app, subset in (("alpha", blobs[:2]), ("beta", blobs[2:])):
            assert service.store.rollup_bytes(app) == _reference(subset, app)

    def test_backpressure_bounds_inflight_window(self, tmp_path, blobs):
        """With the writer gated shut, at most queue_size blobs are queued
        and no ingest acks; opening the gate drains and acks everything."""

        class GatedService(ProfileService):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self.gate: asyncio.Event | None = None

            async def _consume(self):
                self.gate = asyncio.Event()
                await self.gate.wait()
                await super()._consume()

        session = _session()
        store = ProfileStore(tmp_path / "store", shards=2)
        service = GatedService(store, queue_size=2, session=session)

        async def runner():
            host, port = await service.start()
            try:
                clients = []
                sends = []
                for blob in blobs:
                    client = ServeClient(host, port)
                    await client.connect()
                    clients.append(client)
                    sends.append(
                        asyncio.create_task(client.ingest("nw", blob))
                    )
                await asyncio.sleep(0.05)
                assert service._queue.qsize() <= 2  # bounded window
                assert not any(t.done() for t in sends)  # no early acks
                assert store.leaves("nw") == []  # nothing durable yet
                service.gate.set()
                seqs = await asyncio.gather(*sends)
                assert sorted(seqs) == [1, 2, 3, 4]
                for client in clients:
                    await client.close()
            finally:
                await service.stop()

        asyncio.run(runner())
        assert len(store.leaves("nw")) == 4

    def test_auto_compaction_and_metricsz(self, tmp_path, blobs):
        async def body(service, host, port):
            async with ServeClient(host, port) as client:
                for blob in blobs:
                    await client.ingest("nw", blob)
                # compact_every=2 folded twice without explicit requests.
                metricsz = await client.query("", "metricsz")
                assert "repro_serve_compactions_total" in metricsz["text"]
                assert "repro_serve_ingest_total" in metricsz["text"]

        service, session = _with_service(
            tmp_path, body, blobs, compact_every=2
        )
        assert service.store.generation("nw") == 2
        assert service.store.rollup_bytes("nw") == _reference(blobs, "nw")
        assert session.metrics.value(
            "repro_serve_compactions_total", {"app": "nw"}
        ) == 2

    def test_serve_spans_on_named_lane(self, tmp_path, blobs):
        async def body(service, host, port):
            async with ServeClient(host, port) as client:
                await client.ingest("nw", blobs[0])
                await client.compact("nw")

        _, session = _with_service(tmp_path, body, blobs)
        from repro.obs import WALL_PID, WALL_TID_SERVE

        serve_spans = [
            e for e in session.trace.events
            if e.get("cat") == "serve" and e.get("ph") == "X"
        ]
        names = {e["name"] for e in serve_spans}
        assert {"serve.ingest", "serve.compact"} <= names
        assert all(
            e["pid"] == WALL_PID and e["tid"] == WALL_TID_SERVE
            for e in serve_spans
        )


# ------------------------------------------------------------- query layer


class TestQueryEngine:
    def _compacted_store(self, tmp_path, blobs) -> ProfileStore:
        store = ProfileStore(tmp_path / "store", shards=2)
        for blob in blobs[:2]:
            store.ingest("nw", blob)
        store.compact("nw")
        return store

    def test_memoized_until_compaction(self, tmp_path, blobs):
        store = self._compacted_store(tmp_path, blobs)
        engine = QueryEngine(store, session=_session())
        first = engine.query("nw", "topdown")
        second = engine.query("nw", "topdown")
        assert first["cached"] is False and second["cached"] is True
        assert engine.cache_hits == 1 and engine.cache_misses == 1
        # Compaction bumps the generation: the cache must invalidate.
        store.ingest("nw", blobs[2])
        store.compact("nw")
        third = engine.query("nw", "topdown")
        assert third["cached"] is False
        assert third["generation"] == 2
        assert engine.hit_ratio() == pytest.approx(1 / 3)

    def test_cached_payload_matches_fresh(self, tmp_path, blobs):
        store = self._compacted_store(tmp_path, blobs)
        engine = QueryEngine(store)
        first = engine.query("nw", "variables", metric="latency", n=5)
        second = engine.query("nw", "variables", metric="latency", n=5)
        assert {k: v for k, v in first.items() if k != "cached"} == {
            k: v for k, v in second.items() if k != "cached"
        }

    def test_unknown_view_and_metric(self, tmp_path, blobs):
        store = self._compacted_store(tmp_path, blobs)
        engine = QueryEngine(store)
        with pytest.raises(ServeError, match="unknown view"):
            engine.query("nw", "flamegraph")
        with pytest.raises(ServeError, match="unknown metric"):
            engine.query("nw", "variables", metric="zorkmids")

    def test_status_on_empty_store(self, tmp_path):
        engine = QueryEngine(ProfileStore(tmp_path / "s"))
        payload = engine.query("", "status")
        assert payload["apps"] == {} and "empty" in payload["text"]

    def test_metricsz_without_session(self, tmp_path):
        engine = QueryEngine(ProfileStore(tmp_path / "s"))
        payload = engine.query("", "metricsz")
        assert "no telemetry session" in payload["text"]

    def test_payload_is_json_serializable(self, tmp_path, blobs):
        store = self._compacted_store(tmp_path, blobs)
        engine = QueryEngine(store)
        for view in ("topdown", "bottomup", "variables", "status"):
            json.dumps(engine.query("nw", view))
