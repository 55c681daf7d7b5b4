"""The ``serve-mixed`` workload: closed-loop continuous-profiling traffic.

The service runs in its own forked process, as ``hpcview serve`` runs it
(default queue, shards and compaction arity).  One generator process
(this one) drives it over two connections:

* connection 1 ingests distinct blobs in a fixed, seeded order and,
  after every ``COMPACT_EVERY`` ingests of an app, requests a compaction
  of that app; the schedule ends with one compaction per app;
* connection 2 sends topdown/bottomup/variables queries over a fixed key
  set, one per acked ingest, so the mix of cache hits and misses follows
  ingest progress rather than speed.

Blobs are smoke-preset rank profiles of all five apps (1.5-34 KB).  Each
app contributes ``BASE_RANKS`` simulated ranks; every ingest stamps its
own ``host`` id into the profile's metadata, so no two blobs are
byte-identical.  The stamp is a same-length string swap: the codec keeps
strings verbatim in its string table, so the blob stays valid, and the
service still decodes every one at the door.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing as mp
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServeError
from repro.parallel import APPS
from repro.parallel.registry import run_app_rank
from repro.serve import ProfileService, ProfileStore, ServeClient
from repro.util.rng import DeterministicRNG

from checks import check_rollups
from common import Result, layer_shares, median, median_of_apps, p99
from tracer import Tracer, sum_spans

# Small blobs (nw, streamcluster, sweep3d: 1.5-4.6 KB) arrive three times as
# often as large ones (amg2006, lulesh: 22-34 KB).
APP_WEIGHTS = {"amg2006": 1, "lulesh": 1, "nw": 3, "streamcluster": 3, "sweep3d": 3}
COMPACT_EVERY = 50
BLOBS_PER_SECOND = 90        # sizes the fixed schedule from the run length
BASE_RANKS = 2
VIEWS = ("topdown", "bottomup", "variables")
HOST_MARK = "host-000000"
START_TIMEOUT_S = 60.0


def _counts(n_ingests: int) -> dict[str, int]:
    """Split ``n_ingests`` over the apps by weight (largest remainder)."""
    total = sum(APP_WEIGHTS.values())
    exact = {app: n_ingests * w / total for app, w in APP_WEIGHTS.items()}
    counts = {app: int(x) for app, x in exact.items()}
    by_remainder = sorted(APP_WEIGHTS, key=lambda a: (counts[a] - exact[a], a))
    for app in by_remainder[: n_ingests - sum(counts.values())]:
        counts[app] += 1
    return counts


@dataclass
class Schedule:
    ingests: list[tuple[str, bytes]]          # (app, blob) in send order
    compact_after: dict[int, str]             # ingest index -> app to compact
    queries: list[tuple[int, str, str]]       # (acked ingests needed, app, view)
    counts: dict[str, int] = field(default_factory=dict)


def build_schedule(seed: int, n_ingests: int) -> Schedule:
    """Blob corpus plus the fixed request schedule.  The corpus comes from
    the apps' own seeds; ``seed`` picks the request order and query keys."""
    templates: dict[str, list[bytes]] = {}
    for app in APPS:
        templates[app] = []
        for rank in range(BASE_RANKS):
            db = run_app_rank(app, rank, BASE_RANKS, preset="smoke")
            db.meta["host"] = HOST_MARK
            blob = db.to_bytes()
            if blob.count(HOST_MARK.encode()) != 1:
                raise RuntimeError(f"{app}: host stamp is not unique in the blob")
            templates[app].append(blob)

    rng = DeterministicRNG(seed)
    counts = _counts(n_ingests)
    order = [app for app in APP_WEIGHTS for _ in range(counts[app])]
    rng.shuffle(order)
    ingests = []
    compact_after: dict[int, str] = {}
    first_rollup: dict[str, int] = {}
    seen = dict.fromkeys(APPS, 0)
    for index, app in enumerate(order):
        template = templates[app][seen[app] % BASE_RANKS]
        stamp = f"host-{index:06d}".encode()
        ingests.append((app, template.replace(HOST_MARK.encode(), stamp)))
        seen[app] += 1
        if seen[app] % COMPACT_EVERY == 0:
            compact_after[index] = app
            first_rollup.setdefault(app, index)
    queries = []
    for index in range(n_ingests):
        # a query released by ingest ack ``index + 1`` may target any app
        # whose first compaction was requested before that ack
        ready = sorted(app for app, at in first_rollup.items() if at < index)
        if ready:
            app = ready[rng.randint(0, len(ready) - 1)]
            queries.append((index + 1, app, VIEWS[rng.randint(0, len(VIEWS) - 1)]))
    return Schedule(ingests, compact_after, queries, counts)


# -- the service process -------------------------------------------------------

def _service_main(root: str, conn, parent_end, tracer: Tracer | None) -> None:
    """Forked child: serve until the parent says stop, then report."""
    parent_end.close()   # else the parent closing its end never reads as EOF here

    async def main() -> None:
        service = ProfileService(ProfileStore(root))
        host, port = await service.start("127.0.0.1", 0)
        conn.send((host, port))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_reader(conn.fileno(), stop.set)
        try:
            await stop.wait()
        finally:
            loop.remove_reader(conn.fileno())
            await service.stop()

    asyncio.run(main())
    try:
        conn.recv()
    except EOFError:
        return   # the parent went away without asking for a report
    conn.send({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.export() if tracer is not None else None,
    })


class Service:
    """A forked service process bound to a fresh store under ``root``."""

    def __init__(self, root: Path, tracer: Tracer | None = None) -> None:
        self.root = root
        self._conn, child = mp.Pipe()
        self._proc = mp.get_context("fork").Process(
            target=_service_main, args=(str(root), child, self._conn, tracer),
            daemon=True,
        )
        self._proc.start()
        child.close()
        if not self._conn.poll(START_TIMEOUT_S):
            self.close()
            raise RuntimeError("service did not start")
        self.host, self.port = self._conn.recv()

    def stop(self) -> dict:
        """Ask the service to stop; returns its report (peak RSS, trace)."""
        self._conn.send("stop")
        if not self._conn.poll(START_TIMEOUT_S):
            self.close()
            raise RuntimeError("service did not report after stop")
        info = self._conn.recv()
        self.close()
        return info

    def close(self) -> None:
        """Wait for the process to end, killing it if it does not."""
        if self._conn.closed:
            return
        self._conn.close()
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


# -- the generator -------------------------------------------------------------

@dataclass
class Traffic:
    ingest_s: dict[str, list[float]] = field(default_factory=dict)   # app -> latencies
    query_s: dict[str, list[float]] = field(default_factory=dict)
    compact_s: list[float] = field(default_factory=list)
    ingest_wall_s: float = 0.0
    wall_s: float = 0.0
    hits: int = 0
    rejected: int = 0
    spans: list[tuple[str, int, int]] = field(default_factory=list)


async def _drive(host: str, port: int, schedule: Schedule, result: Result) -> Traffic:
    out = Traffic()
    progress = asyncio.Condition()
    acked = 0
    clock = time.perf_counter_ns

    async def ingest_connection() -> None:
        nonlocal acked
        last_seq: dict[str, int] = {}
        async with ServeClient(host, port) as client:
            t_start = clock()
            for index, (app, blob) in enumerate(schedule.ingests):
                t0 = clock()
                try:
                    seq = await client.ingest(app, blob)
                except ServeError as exc:
                    out.rejected += 1
                    result.check(False, f"ingest {index} ({app}) rejected: {exc}")
                else:
                    t1 = clock()
                    out.ingest_s.setdefault(app, []).append((t1 - t0) / 1e9)
                    out.spans.append(("request.ingest", t0, t1))
                    result.check(
                        seq > last_seq.get(app, 0),
                        f"ingest {index} ({app}): seq {seq} not above {last_seq.get(app)}",
                    )
                    last_seq[app] = seq
                async with progress:
                    acked += 1
                    progress.notify_all()
                if index in schedule.compact_after:
                    await compact(client, schedule.compact_after[index])
            for app in sorted(schedule.counts):
                if schedule.counts[app] % COMPACT_EVERY:
                    await compact(client, app)
            out.ingest_wall_s = (clock() - t_start) / 1e9

    async def compact(client: ServeClient, app: str) -> None:
        t0 = clock()
        try:
            await client.compact(app)
        except ServeError as exc:
            result.check(False, f"compaction of {app} failed: {exc}")
            return
        t1 = clock()
        out.compact_s.append((t1 - t0) / 1e9)
        out.spans.append(("request.compact", t0, t1))
        result.check(True, "compaction")

    async def query_connection() -> None:
        async with ServeClient(host, port) as client:
            for needed, app, view in schedule.queries:
                async with progress:
                    await progress.wait_for(lambda: acked >= needed)
                t0 = clock()
                try:
                    reply = await client.query(app, view)
                except ServeError as exc:
                    result.check(False, f"{view} query for {app} failed: {exc}")
                    continue
                t1 = clock()
                out.query_s.setdefault(app, []).append((t1 - t0) / 1e9)
                out.spans.append(("request.query", t0, t1))
                out.hits += bool(reply.get("cached"))
                result.check(
                    reply.get("view") == view and bool(reply.get("text")),
                    f"{view} query for {app} returned no view",
                )

    t0 = clock()
    await asyncio.gather(ingest_connection(), query_connection())
    out.wall_s = (clock() - t0) / 1e9
    return out


def start_service(root: Path, tracer: Tracer | None = None) -> Service:
    """Fork a service; with a tracer, its store, codec and query entry
    points are wrapped in the child only."""
    if tracer is None:
        return Service(root)
    tracer.install_serve()
    try:
        return Service(root, tracer)
    finally:
        tracer.restore()


def run_pass(service: Service, schedule: Schedule, result: Result) -> tuple[Traffic, dict]:
    """Drive one pass of the schedule, stop the service, verify its rollups."""
    try:
        traffic = asyncio.run(_drive(service.host, service.port, schedule, result))
    finally:
        info = service.stop()
    store = ProfileStore(service.root)
    check_rollups(result, store, schedule.counts)
    fingerprint = {}
    for app, leaves in sorted(schedule.counts.items()):
        rollup = store.rollup_bytes(app) or b""
        fingerprint[app] = {"leaves": leaves, "rollup.bytes": len(rollup),
                            "digest": hashlib.sha256(rollup).hexdigest()[:16]}
    result.details["fingerprint"] = fingerprint
    return traffic, info


def _pooled(per_app: dict[str, list[float]]) -> list[float]:
    return [value for values in per_app.values() for value in values]


def end_to_end(traffic: Traffic, info: dict, result: Result) -> None:
    ingests = _pooled(traffic.ingest_s)
    queries = _pooled(traffic.query_s)
    result.put("job_s", traffic.wall_s, "s")
    result.put("op_ms.p50", median_of_apps(traffic.ingest_s) * 1e3, "ms")
    result.put("op_ms.p99", p99(ingests) * 1e3, "ms")
    result.put("ops_per_s", len(ingests) / traffic.ingest_wall_s, "1/s")
    result.put("fold_s", sum(traffic.compact_s), "s")
    result.put("read_ms.p50", median_of_apps(traffic.query_s) * 1e3, "ms")
    result.put("read_ms.p99", p99(queries) * 1e3, "ms")
    result.put("peak_rss_mb", info["peak_rss_mb"], "MiB")
    result.details["samples"] = {
        "ingests": len(ingests), "queries": len(queries),
        "compactions": len(traffic.compact_s), "query_hits": traffic.hits,
    }


def per_layer(traffic: Traffic, baseline: Traffic, info: dict, blob_bytes: int,
              result: Result) -> None:
    trace = info["trace"]
    spans = Tracer.spans_from(trace)
    door = sum_spans(spans, "decode", None)
    store_write = sum_spans(spans, "store.write")
    result.put("serve.door_decode_s", door, "s")
    result.put("serve.store_write_s", store_write, "s")
    result.put("serve.ingest_wait_s", sum(_pooled(traffic.ingest_s)) - door - store_write, "s")
    result.put("serve.rejected", traffic.rejected, "count")
    result.put("serve.compact.decode_s", sum_spans(spans, "decode", "compaction"), "s")
    result.put("serve.compact.merge_s", sum_spans(spans, "merge", "compaction"), "s")
    result.put("serve.compact.encode_s", sum_spans(spans, "encode", "compaction"), "s")
    result.put("serve.compact.other_s", sum_spans(spans, "compaction", self_time=True), "s")
    result.put("store.write_amplification", trace["bytes_written"] / blob_bytes, "ratio")
    result.put("store.flushes", trace["fsyncs"], "count")
    queries = [s for s in spans if s.name == "query"]
    hits = [s for s in queries if s.args.get("cached")]
    misses = [s for s in queries if not s.args.get("cached")]
    result.put("serve.query.hit_s", sum(s.dur_ns for s in hits) / 1e9, "s")
    result.put("serve.query.miss_s", sum(s.dur_ns for s in misses) / 1e9, "s")
    result.put("serve.query.hit_ratio", len(hits) / len(queries) if queries else 0.0,
               "fraction")
    decode_s = sum_spans(spans, "decode")
    decoded = sum(s.args.get("bytes", 0) for s in spans if s.name == "decode")
    result.put("codec.decode_s", decode_s, "s")
    result.put("codec.decode_mb_per_s", decoded / 1e6 / decode_s if decode_s else 0.0, "MB/s")
    result.put("merge.s", sum_spans(spans, "merge", self_time=True), "s")
    result.put("views.s", sum(s.self_ns for s in misses) / 1e9, "s")
    result.put("trace.overhead_share", (traffic.wall_s - baseline.wall_s) / traffic.wall_s,
               "fraction")
    m = {name: value for name, (value, _) in result.metrics.items()}
    result.details["layer_shares"] = layer_shares({
        "codec decode (door+compaction)": door + m["serve.compact.decode_s"],
        "compaction merge+encode+other": m["serve.compact.merge_s"]
        + m["serve.compact.encode_s"] + m["serve.compact.other_s"],
        "store write": store_write,
        "ingest wait": m["serve.ingest_wait_s"],
        "query": m["serve.query.hit_s"] + m["serve.query.miss_s"],
    })
    result.details["service_spans"] = spans


# -- workload entry points -----------------------------------------------------

@dataclass
class Prepared:
    schedule: Schedule
    services: list[Service]

    @property
    def blob_bytes(self) -> int:
        return sum(len(blob) for _, blob in self.schedule.ingests)


def n_ingests(seconds: float) -> int:
    """Fixed schedule length for a run length, independent of speed."""
    return max(600, round(BLOBS_PER_SECOND * seconds))


def prepare(seed: int, seconds: float, root: Path, tracer: Tracer | None) -> Prepared:
    """Set-up: start the service (forked before the corpus exists, so it
    inherits none of it) and build the corpus and schedule.  A traced run
    also starts a second, wrapped service for its traced pass."""
    services = [start_service(root / "store")]
    try:
        if tracer is not None:
            services.append(start_service(root / "store-traced", tracer))
        schedule = build_schedule(seed, n_ingests(seconds))
    except BaseException:
        for service in services:
            service.close()
        raise
    return Prepared(schedule, services)


def run(prep: Prepared, tracer: Tracer | None) -> Result:
    result = Result()
    traffic, info = run_pass(prep.services[0], prep.schedule, result)
    if tracer is None:
        end_to_end(traffic, info, result)
        result.details["serve_metrics"] = serve_metrics(traffic)
    else:
        traced, traced_info = run_pass(prep.services[1], prep.schedule, result)
        per_layer(traced, traffic, traced_info, prep.blob_bytes, result)
        result.details["client_spans"] = traced.spans
    return result


def serve_metrics(traffic: Traffic) -> dict[str, tuple[float, str]]:
    """The same traffic under the service's own metric names, pooled over apps."""
    ingests = _pooled(traffic.ingest_s)
    queries = _pooled(traffic.query_s)
    return {
        "ingest_blobs_per_s": (len(ingests) / traffic.ingest_wall_s, "blobs/s"),
        "ingest_ms.p50": (median(ingests) * 1e3, "ms"),
        "ingest_ms.p99": (p99(ingests) * 1e3, "ms"),
        "compact_s": (sum(traffic.compact_s), "s"),
        "query_ms.p50": (median(queries) * 1e3, "ms"),
        "query_ms.p99": (p99(queries) * 1e3, "ms"),
    }
