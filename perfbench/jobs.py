"""The ``paper-job`` and ``dense-sampling`` workloads: profiling jobs.

A job runs every app's ranks through ``profile_ranks`` (one freshly
forked worker per rank, as ``hpcview run`` does), then decodes the rank
files, merges them and renders the topdown and variables views.  The
post-mortem runs in its own forked process, as ``hpcview merge`` and
``hpcview topdown`` would, so the parent stays as light as ``hpcview
run``'s parent while it forks every job's rank workers.  Only after the
last job does it import the apps, to run the in-process reference ranks
the output checks compare against.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.core.analyzer import Analyzer
from repro.core.metrics import MetricKind
from repro.core.render import render_variable_table
from repro.metrics import ProfileSource, evaluate_boundness, render_topdown
from repro.parallel import APPS, profile_ranks
from repro.parallel.registry import register_app, run_app_rank

from checks import CASE_STUDY, case_study_holds, check_rank_files, decode_rank_file
from common import (
    Result, layer_shares, median, median_of_apps, parent_import_violations,
    peak_child_rss_mb, seeded_runner, slowest_app,
)
from tracer import sum_spans

N_RANKS = 2
DRIVER_JOBS = 2
PRESET = "paper"
POST_MORTEMS = 5    # post-mortem repetitions per job in an untraced run
POST_MORTEM_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class JobSpec:
    name: str
    apps: tuple[str, ...]
    period_divisor: int
    job_seconds: float   # typical job wall time here; sizes the job count


PAPER_JOB = JobSpec("paper-job", APPS, 1, 6.5)
DENSE_SAMPLING = JobSpec("dense-sampling", ("lulesh", "sweep3d"), 32, 6.0)


def n_jobs(spec: JobSpec, seconds: float) -> int:
    """Fixed job count for a run length, independent of how fast jobs go."""
    return max(1, round(seconds / spec.job_seconds))


def _no_span(name, **args):
    return nullcontext()


def post_mortems(apps: tuple[str, ...], paths: dict[str, dict[int, str]],
                 repeats: int, span=_no_span) -> dict:
    """Each app's post-mortem over its rank files, ``repeats`` times, so
    the short decode/merge/view timings are medians.  Returns plain data
    (timings and what the checks need), so it can cross a process pipe."""
    out: dict = {"post_s": {app: [] for app in apps}, "fold_s": [], "apps": {}}
    for _ in range(repeats):
        fold = 0.0
        for app in apps:
            t0 = time.perf_counter()
            dbs = {rank: decode_rank_file(path) for rank, path in paths[app].items()}
            good = [db for db in dbs.values() if db is not None]
            views: list[str] = []
            exp = None
            if good:
                with span("merge", app=app):
                    exp = Analyzer(app).add_all(good).analyze()
            fold += time.perf_counter() - t0
            if exp is not None:
                with span("views", app=app, view="topdown"):
                    views.append(render_topdown(
                        evaluate_boundness(ProfileSource(exp)), title=app))
                with span("views", app=app, view="variables"):
                    views.append(render_variable_table(
                        exp.top_down(MetricKind.LATENCY), title=app))
            out["post_s"][app].append(time.perf_counter() - t0)
            if app not in out["apps"]:
                out["apps"][app] = {
                    "canonical": {rank: db.canonical_bytes() if db is not None else None
                                  for rank, db in dbs.items()},
                    "case_study": exp is not None and case_study_holds(app, exp),
                    "views": [bool(text.strip()) for text in views],
                }
        out["fold_s"].append(fold)
    return out


def _post_mortem_child(apps, paths, repeats, conn) -> None:
    try:
        conn.send(post_mortems(apps, paths, repeats))
    except Exception:
        conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()


def post_mortems_forked(apps, paths, repeats) -> dict:
    """Run :func:`post_mortems` in a forked process and wait for it."""
    recv, send = mp.Pipe(duplex=False)
    proc = mp.get_context("fork").Process(
        target=_post_mortem_child, args=(apps, paths, repeats, send), daemon=True,
    )
    proc.start()
    send.close()
    try:
        out = recv.recv() if recv.poll(POST_MORTEM_TIMEOUT_S) else {"error": "timed out"}
    except EOFError:
        out = {"error": "post-mortem process died"}
    finally:
        recv.close()
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return out


def run_job(spec: JobSpec, out_root: Path, result: Result, tracer=None) -> dict:
    """One job: the driver stage, then the post-mortem.  Untraced, the
    post-mortem runs ``POST_MORTEMS`` times in a forked process and
    ``job_s`` counts the first; traced, it runs once in this process with
    the codec wrapped (after the driver's workers have come and gone)."""
    t0 = time.perf_counter()
    reports = {
        app: profile_ranks(app, N_RANKS, out_root, preset=PRESET, jobs=DRIVER_JOBS)
        for app in spec.apps
    }
    driver_s = time.perf_counter() - t0
    paths = {app: {o.rank: o.path for o in r.outcomes if o.ok} for app, r in reports.items()}
    if tracer is None:
        post = post_mortems_forked(spec.apps, paths, POST_MORTEMS)
    else:
        tracer.install_codec()
        try:
            post = post_mortems(spec.apps, paths, 1, tracer.span)
        finally:
            tracer.restore()

    if "error" in post:
        for app in spec.apps:
            result.check(False, f"{app}: post-mortem failed: {post['error']}")
        return {"ok": False, "driver_s": driver_s, "canonical": {app: {} for app in spec.apps}}
    for app in spec.apps:
        checked = post["apps"][app]
        result.check(checked["case_study"], f"{app}: expected {CASE_STUDY[app]}")
        for ok in checked["views"] or [False]:
            result.check(ok, f"{app}: view missing or empty")
    return {
        "ok": True,
        "job_s": driver_s + sum(values[0] for values in post["post_s"].values()),
        "driver_s": driver_s,
        "fold_s": post["fold_s"],
        "post_s": post["post_s"],
        "attempt_s": {
            app: {o.rank: o.attempt_seconds[-1] for o in report.outcomes if o.ok}
            for app, report in reports.items()
        },
        "canonical": {app: post["apps"][app]["canonical"] for app in spec.apps},
    }


class _Capture:
    """Collects the machine hierarchies and profilers a rank creates, so
    the exact counts can be read without timing every access."""

    def __init__(self) -> None:
        from repro.core.profiler import DataCentricProfiler
        from repro.machine.hierarchy import MemoryHierarchy

        self.hierarchies: list = []
        self.profilers: list = []
        self._saved = []
        for cls, sink in ((MemoryHierarchy, self.hierarchies),
                          (DataCentricProfiler, self.profilers)):
            original = cls.__init__

            def init(obj, *args, _original=original, _sink=sink, **kwargs):
                _original(obj, *args, **kwargs)
                _sink.append(obj)

            self._saved.append((cls, original))
            cls.__init__ = init

    def restore(self) -> None:
        for cls, original in self._saved:
            cls.__init__ = original

    def take(self) -> tuple[int, int]:
        """(machine accesses, PMU samples) since the last take."""
        accesses = sum(h.total_accesses() for h in self.hierarchies)
        samples = sum(p.stats.samples for p in self.profilers)
        self.hierarchies.clear()
        self.profilers.clear()
        return accesses, samples


def _reference_ranks(spec: JobSpec, tracer) -> dict:
    """In-process ranks with the same seeds: the check's reference bytes,
    the exact counts, warm untraced times and (when tracing) layer splits."""
    capture = _Capture()
    ref: dict = {}
    try:
        for app in spec.apps:
            if tracer is not None:
                run_app_rank(app, 0, 1, preset="smoke")   # warm: imports, lazy set-up
                capture.take()
            for rank in range(N_RANKS):
                t0 = time.perf_counter()
                db = run_app_rank(app, rank, N_RANKS, preset=PRESET)
                blob = db.to_bytes()
                warm_s = time.perf_counter() - t0
                accesses, samples = capture.take()
                ref[(app, rank)] = {
                    "canonical": db.canonical_bytes(),
                    "cycles": int(db.meta.get("elapsed_cycles", 0)),
                    "bytes": len(blob),
                    "accesses": accesses,
                    "samples": samples,
                    "warm_s": warm_s,
                }
            if tracer is not None:
                tracer.install_rank_layers()
                try:
                    for rank in range(N_RANKS):
                        ref[(app, rank)].update(_traced_rank(tracer, app, rank))
                finally:
                    tracer.restore()
    finally:
        capture.restore()
    return ref


def _traced_rank(tracer, app: str, rank: int) -> dict:
    before = {k: list(v) for k, v in tracer.layers.items()}
    run0 = tracer.run_accesses
    with tracer.span("rank", app=app, rank=rank) as rank_span:
        db = run_app_rank(app, rank, N_RANKS, preset=PRESET)
        with tracer.span("encode", app=app) as encode_span:
            db.to_bytes()
    layers = {
        layer: ((rec[1] - rec[2]) - (before[layer][1] - before[layer][2])) / 1e9
        for layer, rec in tracer.layers.items()
    }
    return {
        "traced_s": rank_span.dur_ns / 1e9,
        "layers": layers,
        "apps_s": rank_span.self_ns / 1e9,    # rank minus encode minus hot layers
        "encode_s": encode_span.dur_ns / 1e9,
        "batched": tracer.run_accesses - run0,
    }


def prepare(spec: JobSpec, seed: int) -> None:
    """Set-up: register the seeded runners the driver's workers will run."""
    for app in spec.apps:
        register_app(app, seeded_runner(app, seed, spec.period_divisor))


def run(spec: JobSpec, seconds: float, tmp: Path, tracer=None) -> Result:
    """Run the workload; ``tracer`` is None for the untraced (timed) run,
    which makes several jobs; a traced run makes one."""
    leaked = parent_import_violations()
    if leaked:
        raise RuntimeError(
            "benchmark parent imported modules hpcview run's parent does not: "
            + ", ".join(leaked)
        )
    result = Result()
    count = 1 if tracer is not None else n_jobs(spec, seconds)
    jobs = [run_job(spec, tmp / f"job{i}", result, tracer) for i in range(count)]
    peak_rss = peak_child_rss_mb()   # rank workers and post-mortems only so far

    ref = _reference_ranks(spec, tracer)
    for job in jobs:
        for app in spec.apps:
            check_rank_files(
                result, app, job["canonical"][app], N_RANKS,
                {rank: ref[(app, rank)]["canonical"] for rank in range(N_RANKS)},
            )
    _fingerprint(spec, ref, result)
    jobs = [job for job in jobs if job["ok"]]
    if not jobs:
        raise RuntimeError("no job finished its post-mortem: " + "; ".join(result.failures[:3]))
    if tracer is None:
        _end_to_end(spec, jobs, peak_rss, result)
    else:
        _per_layer(spec, jobs[0], ref, tracer, result)
    return result


def _fingerprint(spec: JobSpec, ref: dict, result: Result) -> None:
    """Exact simulated-output counts and a digest of the canonical bytes."""
    prints = {}
    for app in spec.apps:
        ranks = [ref[(app, rank)] for rank in range(N_RANKS)]
        digest = hashlib.sha256()
        for entry in ranks:
            digest.update(entry["canonical"])
        prints[app] = {
            "sim.cycles": sum(e["cycles"] for e in ranks),
            "machine.accesses": sum(e["accesses"] for e in ranks),
            "pmu.samples": sum(e["samples"] for e in ranks),
            "profile.bytes": sum(e["bytes"] for e in ranks),
            "digest": digest.hexdigest()[:16],
        }
    result.details["fingerprint"] = prints


def _end_to_end(spec: JobSpec, jobs: list[dict], peak_rss: float, result: Result) -> None:
    attempts = {app: [s for job in jobs for s in job["attempt_s"][app].values()]
                for app in spec.apps}
    post = {app: [s for job in jobs for s in job["post_s"][app]] for app in spec.apps}
    n_attempts = sum(len(values) for values in attempts.values())
    result.put("job_s", median([job["job_s"] for job in jobs]), "s")
    result.put("op_ms.p50", median_of_apps(attempts) * 1e3, "ms")
    result.put("op_ms.p99", slowest_app(attempts) * 1e3, "ms")
    result.put("ops_per_s", n_attempts / sum(job["driver_s"] for job in jobs), "1/s")
    result.put("fold_s", median([s for job in jobs for s in job["fold_s"]]), "s")
    result.put("read_ms.p50", median_of_apps(post) * 1e3, "ms")
    result.put("read_ms.p99", slowest_app(post) * 1e3, "ms")
    result.put("peak_rss_mb", peak_rss, "MiB")
    result.details["rank_s"] = {app: median(values) for app, values in attempts.items()}
    result.details["samples"] = {
        "jobs": len(jobs), "rank_attempts": n_attempts,
        "post_mortems": sum(len(values) for values in post.values()),
    }


def _per_layer(spec: JobSpec, job: dict, ref: dict, tracer, result: Result) -> None:
    traced = untraced = 0.0
    for app in spec.apps:
        ranks = [ref[(app, rank)] for rank in range(N_RANKS)]
        layers = {layer: sum(r["layers"][layer] for r in ranks)
                  for layer in ("machine", "sim", "pmu", "profiler")}
        result.put(f"machine.s.{app}", layers["machine"], "s")
        result.put(f"sim.s.{app}", layers["sim"], "s")
        result.put(f"pmu.s.{app}", layers["pmu"], "s")
        result.put(f"profiler.s.{app}", layers["profiler"], "s")
        result.put(f"apps.s.{app}", sum(r["apps_s"] for r in ranks), "s")
        result.put(f"codec.encode_s.{app}", sum(r["encode_s"] for r in ranks), "s")
        driver = job["attempt_s"].get(app, {})
        result.put(
            f"process.s.{app}",
            sum(driver.get(rank, 0.0) - ranks[rank]["warm_s"] for rank in range(N_RANKS)),
            "s",
        )
        accesses = sum(r["accesses"] for r in ranks)
        batched = sum(r["batched"] for r in ranks)
        result.put(
            f"rank.ns_per_access.{app}",
            sum(r["warm_s"] for r in ranks) * 1e9 / accesses if accesses else 0.0, "ns",
        )
        result.put(f"machine.accesses.{app}", accesses, "count")
        result.put(f"machine.run_share.{app}", batched / accesses if accesses else 0.0,
                   "fraction")
        result.put(f"pmu.samples.{app}", sum(r["samples"] for r in ranks), "count")
        result.put(f"sim.cycles.{app}", sum(r["cycles"] for r in ranks), "count")
        result.put(f"profile.bytes.{app}", sum(r["bytes"] for r in ranks), "bytes")
        traced += sum(r["traced_s"] for r in ranks)
        untraced += sum(r["warm_s"] for r in ranks)
    spans = tracer.spans
    decode_s = sum_spans(spans, "decode")
    decoded = sum(s.args.get("bytes", 0) for s in spans if s.name == "decode")
    result.put("codec.decode_s", decode_s, "s")
    result.put("codec.decode_mb_per_s", decoded / 1e6 / decode_s if decode_s else 0.0, "MB/s")
    result.put("merge.s", sum_spans(spans, "merge", self_time=True), "s")
    result.put("views.s", sum_spans(spans, "views", self_time=True), "s")
    result.put("trace.overhead_share", (traced - untraced) / traced if traced else 0.0,
               "fraction")
    per_app = {
        layer: sum(result.metrics[f"{layer}.{app}"][0] for app in spec.apps)
        for layer in ("machine.s", "sim.s", "apps.s", "pmu.s", "profiler.s", "process.s")
    }
    result.details["layer_shares"] = layer_shares({
        "machine+sim": per_app["machine.s"] + per_app["sim.s"],
        "profiler+pmu": per_app["profiler.s"] + per_app["pmu.s"],
        "apps": per_app["apps.s"],
        "process": per_app["process.s"],
        "codec": decode_s + sum(result.metrics[f"codec.encode_s.{app}"][0] for app in spec.apps),
        "merge+views": result.metrics["merge.s"][0] + result.metrics["views.s"][0],
    })
