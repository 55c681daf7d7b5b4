"""Asyncio ingest/query front end for the continuous-profiling store.

Stdlib-only TCP service speaking a small length-prefixed binary frame:

Request::

    b"RPQ1"  magic
    u8       op          (1=INGEST, 2=QUERY, 3=COMPACT)
    u16      app_len     big-endian
    u32      payload_len big-endian
    app_len  app namespace, UTF-8
    payload  op-specific body

INGEST carries a codec-v2 ``.rpdb`` blob; QUERY a JSON object
``{"view": ..., "metric": ..., "n": ...}``; COMPACT has an empty body.

Response::

    b"RPR1"  magic
    u8       status      (0=ok, 1=rejected/error)
    u32      payload_len big-endian
    payload  JSON object (ok: op result; error: {"error": ...})

Backpressure and durability: handlers validate each blob with the
hardened codec's merged decode
(:meth:`repro.core.profiledb.ProfileDB.merged_from_bytes`), then block
on a **bounded** queue feeding one consumer task that owns all store
writes.  The ack is only sent after the consumer resolves the request's
future post-commit, so a slow disk backs pressure up through the queue
to every connected client, and an acked blob is on disk.  Corrupt blobs,
and blobs no compaction could fold, are rejected at the front door
(``ProfileError`` from the codec) without ever touching the store.  The
consumer hands the door's merged profile to the store, which folds it
into the app's live rollup right after the leaf is written, so a leaf
is decoded once and compaction only encodes.

Self-instrumentation (``repro.obs``): every request runs under a wall
span on the ``serve`` lane, and the session's registry collects
``repro_serve_*`` counters/gauges/histograms — ingest/reject counts,
queue depth, compaction rounds, query latency — all visible through
the ``metricsz`` query view while the service runs.  Latency comes
from the session's injected clock, so tests drive it deterministically
with :class:`repro.obs.clock.ManualClock`.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import TYPE_CHECKING

from repro.core.profiledb import ProfileDB
from repro.errors import ProfileError, ServeError
from repro.serve.query import QueryEngine
from repro.serve.store import ProfileStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSession

__all__ = [
    "OP_COMPACT",
    "OP_INGEST",
    "OP_QUERY",
    "ProfileService",
    "ServeClient",
]

REQUEST_MAGIC = b"RPQ1"
RESPONSE_MAGIC = b"RPR1"
_REQ_HEAD = struct.Struct(">4sBHI")
_RESP_HEAD = struct.Struct(">4sBI")

OP_INGEST = 1
OP_QUERY = 2
OP_COMPACT = 3
_OP_NAMES = {OP_INGEST: "ingest", OP_QUERY: "query", OP_COMPACT: "compact"}

STATUS_OK = 0
STATUS_ERROR = 1

# A profile blob at fleet scale is kilobytes; anything near this cap is a
# corrupt length field or an abusive client, not a real profile.
MAX_PAYLOAD = 64 * 1024 * 1024


def _session() -> "ObsSession":
    # Reuse an active observing() scope when the caller opened one (the
    # CLI pipeline does); otherwise the service instruments itself into
    # a private session it exposes for metricsz/export.
    from repro import obs

    return obs.active_session() or obs.ObsSession()


def pack_request(op: int, app: str, payload: bytes) -> bytes:
    app_raw = app.encode("utf-8")
    return _REQ_HEAD.pack(REQUEST_MAGIC, op, len(app_raw), len(payload)) + app_raw + payload


def pack_response(status: int, payload: dict) -> bytes:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _RESP_HEAD.pack(RESPONSE_MAGIC, status, len(raw)) + raw


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[int, str, bytes] | None:
    """Read one framed request; ``None`` on clean EOF before a frame."""
    try:
        head = await reader.readexactly(_REQ_HEAD.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError("connection closed mid-frame") from exc
    magic, op, app_len, payload_len = _REQ_HEAD.unpack(head)
    if magic != REQUEST_MAGIC:
        raise ServeError(f"bad request magic {magic!r}")
    if payload_len > MAX_PAYLOAD:
        raise ServeError(f"payload of {payload_len} bytes exceeds frame cap")
    try:
        app_raw = await reader.readexactly(app_len)
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ServeError("connection closed mid-frame") from exc
    try:
        app = app_raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ServeError("app namespace is not valid UTF-8") from exc
    return op, app, payload


async def read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    try:
        head = await reader.readexactly(_RESP_HEAD.size)
        magic, status, payload_len = _RESP_HEAD.unpack(head)
        if magic != RESPONSE_MAGIC:
            raise ServeError(f"bad response magic {magic!r}")
        if payload_len > MAX_PAYLOAD:
            raise ServeError(f"response of {payload_len} bytes exceeds frame cap")
        raw = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ServeError("server closed the connection mid-response") from exc
    return status, json.loads(raw.decode("utf-8"))


class ProfileService:
    """The ingest/compaction/query service around one :class:`ProfileStore`.

    ``queue_size`` bounds the in-flight (validated, unacked) ingest
    window — the backpressure knob.  ``compact_every`` > 0 folds an
    app's leaves automatically after that many ingests; 0 leaves
    compaction to explicit COMPACT requests (deterministic for tests).
    """

    def __init__(
        self,
        store: ProfileStore,
        queue_size: int = 64,
        compact_every: int = 0,
        session: "ObsSession | None" = None,
    ) -> None:
        if queue_size < 1:
            raise ServeError("ingest queue needs room for at least one blob")
        self.store = store
        self.queue_size = queue_size
        self.compact_every = compact_every
        self.session = session if session is not None else _session()
        self.engine = QueryEngine(store, session=self.session)
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.base_events.Server | None = None
        self._consumer_task: asyncio.Task | None = None
        self._since_compact: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port)."""
        if self._server is not None:
            raise ServeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._consumer_task = asyncio.create_task(self._consume())
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._consumer_task is not None:
            self._consumer_task.cancel()
            try:
                await self._consumer_task
            except asyncio.CancelledError:
                pass
            self._consumer_task = None
        self._queue = None

    # -- obs helpers ---------------------------------------------------------

    def _metric(self):
        return self.session.metrics

    def _reject(self, app: str, reason: str) -> None:
        self._metric().inc(
            "repro_serve_rejected_total",
            labels={"app": app or "?", "reason": reason},
            help_text="requests rejected at the front door",
        )

    def _queue_depth(self) -> None:
        depth = self._queue.qsize() if self._queue is not None else 0
        self._metric().set_gauge(
            "repro_serve_queue_depth",
            depth,
            help_text="validated blobs waiting for the store writer",
        )

    # -- store writer --------------------------------------------------------

    async def _consume(self) -> None:
        """Single writer: commits validated blobs, resolves ack futures."""
        assert self._queue is not None
        while True:
            app, blob, profile, future = await self._queue.get()
            self._queue_depth()
            try:
                seq = self._commit(app, blob, profile)
            except Exception as exc:  # resolve the waiter, don't die
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(seq)
            finally:
                self._queue.task_done()

    def _commit(self, app: str, blob: bytes, profile: ProfileDB) -> int:
        seq = self.store.ingest(app, blob, profile)
        if self.compact_every > 0:
            pending = self._since_compact.get(app, 0) + 1
            if pending >= self.compact_every:
                self._since_compact[app] = 0
                self._compact(app)
            else:
                self._since_compact[app] = pending
        return seq

    def _compact(self, app: str) -> dict:
        with self.session.wall_span(
            f"serve.compact.{app}", cat="serve", tid=_serve_tid(), args={"app": app}
        ):
            result = self.store.compact(app)
        self.engine.invalidate(app)
        metric = self._metric()
        if result.changed:
            metric.inc(
                "repro_serve_compactions_total",
                labels={"app": app},
                help_text="compaction rounds that folded new leaves",
            )
            metric.inc(
                "repro_serve_compacted_leaves_total",
                result.leaves_folded,
                labels={"app": app},
                help_text="leaf blobs folded into rollups",
            )
        return {
            "app": app,
            "generation": result.generation,
            "leaves_folded": result.leaves_folded,
            "leaves_total": result.leaves_total,
            "rollup_bytes": result.rollup_bytes,
            "text": result.summary(),
        }

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServeError as exc:
                    self._reject("?", "bad-frame")
                    writer.write(pack_response(STATUS_ERROR, {"error": str(exc)}))
                    await writer.drain()
                    break
                if request is None:
                    break
                op, app, payload = request
                status, response = await self._dispatch(op, app, payload)
                writer.write(pack_response(status, response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, op: int, app: str, payload: bytes) -> tuple[int, dict]:
        name = _OP_NAMES.get(op)
        if name is None:
            self._reject(app, "bad-op")
            return STATUS_ERROR, {"error": f"unknown op {op}"}
        clock = self.session.clock
        start = clock.now_us()
        try:
            if op == OP_INGEST:
                result = await self._ingest(app, payload)
            elif op == OP_COMPACT:
                ProfileStore.check_app(app)
                result = self._compact(app)
            else:
                result = self._query(app, payload)
        except (ServeError, ProfileError) as exc:
            self._reject(app, getattr(exc, "reason", "error"))
            return STATUS_ERROR, {"error": str(exc)}
        except OSError as exc:
            # A failed store write (a full disk, say) fails this request
            # alone; the connection and the writer stay up.
            self._reject(app, "store-io")
            return STATUS_ERROR, {"error": f"store I/O error: {exc}"}
        finally:
            elapsed_s = (clock.now_us() - start) / 1e6
            self._metric().observe(
                "repro_serve_request_seconds",
                elapsed_s,
                labels={"op": name},
                help_text="wall time per request, by op",
            )
            self.session.trace.complete(
                name=f"serve.{name}",
                cat="serve",
                ts_us=start,
                dur_us=clock.now_us() - start,
                pid=_serve_pid(),
                tid=_serve_tid(),
                args={"app": app} if app else None,
            )
        return STATUS_OK, result

    async def _ingest(self, app: str, blob: bytes) -> dict:
        ProfileStore.check_app(app)
        try:
            # The hardened codec is the gatekeeper; its merged decode is
            # what the store folds into the live rollup.
            profile = ProfileDB.merged_from_bytes(blob, app)
        except ProfileError as exc:
            err = ServeError(f"rejected corrupt blob for {app!r}: {exc}")
            err.reason = "corrupt-blob"  # type: ignore[attr-defined]
            raise err from exc
        assert self._queue is not None, "service not started"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((app, blob, profile, future))  # blocks when full
        self._queue_depth()
        seq = await future  # ack only after the writer committed
        metric = self._metric()
        metric.inc(
            "repro_serve_ingest_total",
            labels={"app": app},
            help_text="blobs accepted and committed",
        )
        metric.inc(
            "repro_serve_ingest_bytes_total",
            len(blob),
            labels={"app": app},
            help_text="payload bytes committed to the store",
        )
        return {"app": app, "seq": seq, "bytes": len(blob)}

    def _query(self, app: str, payload: bytes) -> dict:
        try:
            params = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError(f"query payload is not valid JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise ServeError("query payload must be a JSON object")
        view = str(params.get("view", "status"))
        metric = str(params.get("metric", "latency"))
        n = params.get("n", 10)
        if type(n) is not int or n < 1:
            raise ServeError(f"query n must be a JSON integer >= 1, got {n!r}")
        clock = self.session.clock
        start = clock.now_us()
        result = self.engine.query(app, view, metric=metric, n=n)
        self._metric().observe(
            "repro_serve_query_latency_seconds",
            (clock.now_us() - start) / 1e6,
            labels={"view": view},
            help_text="view materialization latency (cache hits included)",
        )
        return result


def _serve_pid() -> int:
    from repro.obs import WALL_PID

    return WALL_PID


def _serve_tid() -> int:
    from repro.obs import WALL_TID_SERVE

    return WALL_TID_SERVE


class ServeClient:
    """Async client for the frame protocol (one connection, many requests)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._reader = self._writer = None

    async def _request(self, op: int, app: str, payload: bytes) -> dict:
        if self._writer is None or self._reader is None:
            raise ServeError("client is not connected")
        self._writer.write(pack_request(op, app, payload))
        await self._writer.drain()
        status, response = await read_response(self._reader)
        if status != STATUS_OK:
            raise ServeError(response.get("error", "request failed"))
        return response

    async def ingest(self, app: str, blob: bytes) -> int:
        """Ship one ``.rpdb`` blob; returns its committed sequence number."""
        response = await self._request(OP_INGEST, app, blob)
        return int(response["seq"])

    async def query(
        self, app: str, view: str, metric: str = "latency", n: int = 10
    ) -> dict:
        params = {"view": view, "metric": metric, "n": n}
        payload = json.dumps(params, sort_keys=True).encode("utf-8")
        return await self._request(OP_QUERY, app, payload)

    async def compact(self, app: str) -> dict:
        return await self._request(OP_COMPACT, app, b"")
