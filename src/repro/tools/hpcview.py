"""``python -m repro.tools.hpcview`` — inspect serialized profile databases.

The text-mode stand-in for the paper's hpcviewer GUI.  Works on ``.rpdb``
files written with :meth:`repro.core.profiledb.ProfileDB.to_bytes`:

    python -m repro.tools.hpcview run    --app lulesh --ranks 8 --jobs 4
    python -m repro.tools.hpcview merge  rank0.rpdb rank1.rpdb -o job.rpdb
    python -m repro.tools.hpcview merge  measurements/lulesh/*.rpdb -o job.rpdb
    python -m repro.tools.hpcview top    job.rpdb --metric remote -n 10
    python -m repro.tools.hpcview bottom job.rpdb --metric latency
    python -m repro.tools.hpcview advise job.rpdb
    python -m repro.tools.hpcview topdown job.rpdb
    python -m repro.tools.hpcview topdown --app nw --preset smoke
    python -m repro.tools.hpcview topdown --static-app nw
    python -m repro.tools.hpcview info   job.rpdb
    python -m repro.tools.hpcview staticcheck --app nw --reconcile job.rpdb
    python -m repro.tools.hpcview staticcheck --app nw --reconcile-run --reconcile-metrics
    python -m repro.tools.hpcview info   --machine-stats run.mstats.json
    python -m repro.tools.hpcview serve  --store store --port 9178
    python -m repro.tools.hpcview serve  --smoke --smoke-blobs 32
    python -m repro.tools.hpcview query  nw --port 9178 --view topdown
    python -m repro.tools.hpcview query  --port 9178 --view metricsz

``info --machine-stats`` renders a machine self-instrumentation snapshot
(a JSON-serialized :class:`repro.machine.stats.MachineStats`, as written
by ``benchmarks/bench_simulator_throughput.py --stats-out`` or any
``hierarchy.stats().to_dict()`` dump) next to the profile summaries.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.analyzer import Analyzer, ExperimentDB
from repro.core.derived import derive_from_profile
from repro.core.guidance import advise
from repro.core.metrics import MetricKind
from repro.core.profiledb import ProfileDB
from repro.core.render import (
    render_bottom_up,
    render_hazard_catalogue,
    render_metric_reconciliation,
    render_reconciliation,
    render_sanitizer_report,
    render_static_report,
    render_top_down,
    render_variable_table,
)
from repro.errors import ProfileError
from repro.machine.stats import MachineStats
from repro.util.fmt import format_table, human_bytes

__all__ = ["main", "load_profiles", "save_profile"]


def save_profile(db: ProfileDB, path: str | Path) -> int:
    """Write a profile database to disk; returns its size in bytes."""
    data = db.to_bytes()
    Path(path).write_bytes(data)
    return len(data)


def load_profiles(paths: list[str]) -> list[ProfileDB]:
    return [_read_profile(p) for p in paths]


def _read_profile(path: str) -> ProfileDB:
    """Decode one ``.rpdb`` file; a missing or corrupt one ends the
    command with one stderr line naming the file (exit status 1)."""
    try:
        return ProfileDB.from_bytes(Path(path).read_bytes())
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ProfileError as exc:
        raise SystemExit(f"{path}: not a profile database: {exc}") from None


def _experiment(paths: list[str]) -> ExperimentDB:
    return Analyzer("hpcview").add_all(load_profiles(paths)).analyze()


def _metric(name: str) -> MetricKind:
    try:
        return MetricKind(name)
    except ValueError:
        choices = ", ".join(m.value for m in MetricKind)
        raise SystemExit(f"unknown metric {name!r}; choose one of: {choices}")


def cmd_info(args: argparse.Namespace) -> None:
    if not args.profiles and not args.machine_stats:
        raise SystemExit("info: give profile files and/or --machine-stats")
    for path in args.profiles:
        db = _read_profile(path)
        rows = []
        for profile in db.all_profiles():
            classes = ", ".join(s.value for s in profile.storage_classes())
            rows.append((profile.thread_name, profile.node_count(), classes))
        print(format_table(
            ("thread", "cct nodes", "storage classes"),
            rows,
            title=f"{path}: process {db.process_name!r}, "
                  f"{human_bytes(Path(path).stat().st_size)}",
        ))
        if db.meta:
            print(format_table(
                ("meta key", "value"),
                sorted(db.meta.items()),
                title=f"{path}: provenance",
            ))
        print()
    for path in args.machine_stats:
        stats = MachineStats.from_dict(json.loads(Path(path).read_text()))
        print(format_table(
            ("counter", "value"),
            stats.rows(),
            title=f"{path}: machine self-instrumentation",
        ))
        print()


def cmd_top(args: argparse.Namespace) -> None:
    exp = _experiment(args.profiles)
    view = exp.top_down(_metric(args.metric), accesses_per_var=args.accesses)
    print(render_top_down(view, top_n=args.n, title="top-down data-centric view"))


def cmd_table(args: argparse.Namespace) -> None:
    exp = _experiment(args.profiles)
    view = exp.top_down(_metric(args.metric))
    print(render_variable_table(view, top_n=args.n))


def cmd_bottom(args: argparse.Namespace) -> None:
    exp = _experiment(args.profiles)
    print(render_bottom_up(exp.bottom_up(_metric(args.metric)), top_n=args.n))


def cmd_advise(args: argparse.Namespace) -> None:
    exp = _experiment(args.profiles)
    triage = derive_from_profile(exp)
    print(f"triage: {triage.verdict()}")
    print(f"  memory cycle fraction: {triage.memory_cycle_fraction:.0%}   "
          f"remote intensity: {triage.remote_intensity:.0%}   "
          f"tlb intensity: {triage.tlb_intensity:.0%}")
    print()
    static_findings = None
    if args.static_app:
        from repro.staticcheck import (
            analyze_model,
            build_static_model,
            report_with_impacts,
        )

        model = build_static_model(
            args.static_app, args.static_variant, args.static_preset
        )
        static_findings = report_with_impacts(
            model, analyze_model(model)
        ).findings
    recommendations = advise(
        exp, _metric(args.metric), top_n=args.n, static_findings=static_findings
    )
    if not recommendations:
        print("no variable clears the significance threshold")
    for rec in recommendations:
        print(" -", rec)


def cmd_topdown(args: argparse.Namespace) -> int:
    from repro.metrics import (
        MachineSource,
        ProfileSource,
        evaluate_boundness,
        report_from_source,
        render_topdown,
    )

    n_modes = sum(
        1 for given in (args.profiles, args.app, args.static_app) if given
    )
    if n_modes != 1:
        raise SystemExit(
            "topdown: give merged profile files, --app for a live run, "
            "or --static-app for a no-execution prediction"
        )
    if args.static_app:
        # Static adapter: predict counters from the app's static model
        # and render them on the same tree — no execution at all.
        from repro.staticcheck import build_static_model, predict_model
        from repro.staticcheck.predict import model_source

        model = build_static_model(
            args.static_app, args.variant, args.preset
        )
        source = model_source(predict_model(model))
        title = (
            f"topdown: {args.static_app}/{args.variant} ({args.preset} "
            f"preset, static counter prediction — nothing executed)"
        )
    elif args.app:
        # Live machine adapter: run the app in-process and read the
        # hierarchy's exact counters (including observed per-hop DRAM).
        from importlib import import_module

        from repro.parallel import APPS

        if args.app not in APPS:
            raise SystemExit(
                f"unknown app {args.app!r}; known apps: {', '.join(APPS)}"
            )
        module = import_module(f"repro.apps.{args.app}")
        result = module.run(module.rank_config(args.preset, args.variant))
        source = MachineSource(result.machines[0], result.elapsed_cycles)
        title = (
            f"topdown: {args.app}/{args.variant} ({args.preset} preset, "
            f"live machine counters)"
        )
    else:
        # Profile adapter: sampled counters from merged .rpdb files.
        source = ProfileSource(_experiment(args.profiles))
        title = f"topdown: {' '.join(args.profiles)} (merged profile)"
    print(render_topdown(evaluate_boundness(source), title=title))
    print(f"verdict: {report_from_source(source).verdict()}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.parallel import profile_ranks

    report = profile_ranks(
        args.app,
        args.ranks,
        args.out,
        variant=args.variant,
        preset=args.preset,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
    )
    for outcome in report.outcomes:
        status = outcome.path if outcome.ok else f"FAILED: {outcome.error}"
        print(f"  rank {outcome.rank:4d}  {outcome.elapsed_seconds:6.2f}s  "
              f"attempts={outcome.attempts}  {status}")
        if outcome.retries:
            tries = " ".join(f"{s:.2f}s" for s in outcome.attempt_seconds)
            print(f"        attempt durations: {tries}")
    print(report.summary())
    return 0 if report.ok else 1


def _load_defect_module(path: str):
    import importlib.util

    file = Path(path)
    if not file.exists():
        raise SystemExit(f"defect corpus not found: {file}")
    spec = importlib.util.spec_from_file_location("repro_defect_corpus", file)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_defect_seeds(path: str) -> dict:
    return _load_defect_module(path).SEEDS


def cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.sanitize import SanitizerConfig, parse_fail_on, sanitizing

    if args.list_defects:
        for name, (_runner, expected) in _load_defect_seeds(args.defects_file).items():
            print(f"{name:16s} -> {expected or '<no finding>'}")
        return 0
    if bool(args.app) == bool(args.defect):
        args.parser.error("give exactly one of --app or --defect")
    fail_kinds = parse_fail_on(args.fail_on) if args.fail_on else frozenset()
    # Defect seeds free everything except the leak seed's block, so leak
    # checking is always sound there; real apps opt in with --check-leaks.
    config = SanitizerConfig(check_leaks=args.check_leaks or bool(args.defect))

    if args.defect:
        seeds = _load_defect_seeds(args.defects_file)
        if args.defect not in seeds:
            args.parser.error(
                f"unknown defect seed {args.defect!r}; known: {', '.join(seeds)}"
            )
        runner, _expected = seeds[args.defect]
        with sanitizing(config) as session:
            runner()
        title = f"sanitize: defect seed {args.defect!r}"
    else:
        from repro.parallel.registry import run_app_rank

        with sanitizing(config) as session:
            run_app_rank(
                args.app, args.rank, args.ranks,
                variant=args.variant, preset=args.preset,
            )
        title = f"sanitize: {args.app} rank {args.rank}/{args.ranks}"

    report = session.report()
    print(render_sanitizer_report(report, title=title))
    if fail_kinds and report.matching(fail_kinds):
        return 1
    return 0


def cmd_staticcheck(args: argparse.Namespace) -> int:
    from repro.staticcheck import (
        analyze_model,
        app_variants,
        build_static_model,
        diff_models,
        extract_model,
        reconcile,
        reconcile_metrics,
        report_with_impacts,
    )

    if args.list_hazards:
        print(render_hazard_catalogue(min_share=args.min_share))
        return 0
    if args.list_defects:
        module = _load_defect_module(args.defects_file)
        expected = getattr(module, "STATIC_EXPECTED", {})
        for name in module.STATIC_SEEDS:
            codes, _var = expected.get(name, ((), None))
            print(f"{name:20s} -> {', '.join(codes) or '<no finding>'}")
        return 0
    if args.diff_model and not args.extract:
        args.parser.error("--diff-model needs --extract")
    if bool(args.app) == bool(args.defect):
        args.parser.error("give exactly one of --app or --defect")
    if args.extract and not args.app:
        args.parser.error("--extract interprets app kernels; give --app")
    if args.variant == "all" and not args.app:
        args.parser.error("--variant all needs --app")
    if args.variant == "all" and (args.reconcile or args.reconcile_run):
        args.parser.error("--variant all cannot reconcile; pick one variant")

    variants = (
        list(app_variants(args.app))
        if args.app and args.variant == "all"
        else [args.variant]
    )

    if args.diff_model:
        # The drift gate: structural diff of extracted vs registered
        # declarations per variant; exit 1 on any divergence.
        diverged = False
        for variant in variants:
            extraction = extract_model(args.app, variant, args.preset)
            registered = build_static_model(args.app, variant, args.preset)
            diff = diff_models(
                registered, extraction.model, extraction.inexact_sizes
            )
            print(diff.render())
            diverged = diverged or not diff.ok
        return 1 if diverged else 0

    exit_code = 0
    module = None
    for variant in variants:
        if args.app:
            if args.extract:
                model = extract_model(args.app, variant, args.preset).model
            else:
                model = build_static_model(args.app, variant, args.preset)
        else:
            module = _load_defect_module(args.defects_file)
            seeds = module.STATIC_SEEDS
            if args.defect not in seeds:
                args.parser.error(
                    f"unknown static seed {args.defect!r}; "
                    f"known: {', '.join(seeds)}"
                )
            model = seeds[args.defect]()
        report = report_with_impacts(
            model, analyze_model(model, min_share=args.min_share)
        )
        title = "static model extracted from source" if args.extract else ""
        print(render_static_report(report, top_n=args.n, title=title))

        exp = None
        if args.reconcile:
            exp = _experiment(args.reconcile)
        elif args.reconcile_run:
            if args.app:
                from repro.parallel.registry import run_app_rank

                db = run_app_rank(
                    args.app, 0, 1, variant=variant, preset=args.preset
                )
            else:
                runners = getattr(module, "STATIC_PROFILE_RUNNERS", {})
                if args.defect not in runners:
                    args.parser.error(
                        f"static seed {args.defect!r} has no dynamic profile "
                        f"runner to reconcile against"
                    )
                db = runners[args.defect]()
            exp = Analyzer("staticcheck").add(db).analyze()
        if args.reconcile_metrics and exp is None:
            args.parser.error(
                "--reconcile-metrics needs --reconcile or --reconcile-run"
            )
        if exp is not None:
            print()
            print(render_reconciliation(
                reconcile(report, exp, min_share=args.min_share)
            ))
            if args.reconcile_metrics:
                print()
                print(render_metric_reconciliation(
                    reconcile_metrics(model, exp)
                ))

        if args.fail_on:
            wanted = {
                c.strip().upper() for c in args.fail_on.split(",") if c.strip()
            }
            if any("ANY" in wanted or f.code in wanted for f in report.findings):
                exit_code = 1
    return exit_code


def _run_observed(
    app: str,
    ranks: int,
    variant: str,
    preset: str,
    jobs: int,
    out_root: str | Path,
):
    """Shared trace/metrics pipeline, executed under an active obs session.

    Four legs, so every span category and metric layer is exercised by
    real subsystem code paths: (1) each rank once in-process — the only
    place sim-time spans (phase, parallel region, rank, malloc) and
    machine/profiler metrics can be captured, since driver workers are
    separate OS processes; (2) the real multiprocess driver — wall-clock
    driver spans and retry/timeout metrics; (3) the streaming merge of
    the driver's rank files, decoded in this process — the merge span
    and metrics plus one codec decode span per file;
    (4) a loopback pass through the continuous-profiling service —
    ingest/compaction/query serve spans and ``repro_serve_*`` metrics.
    """
    from repro.parallel import merge_rpdb_files, profile_ranks
    from repro.parallel.registry import run_app_rank

    for rank in range(ranks):
        db = run_app_rank(app, rank, ranks, variant=variant, preset=preset)
        db.to_bytes()  # codec-encode telemetry for this process's profiles
    report = profile_ranks(
        app, ranks, out_root, variant=variant, preset=preset, jobs=jobs
    )
    merged = None
    if report.paths:
        merged, _dropped = merge_rpdb_files(report.paths, app)
        _serve_leg(app, report.paths)
    return report, merged


def _serve_leg(app: str, paths: list) -> None:
    """Loop the driver's output back through ``repro.serve``.

    Single sequential client so the span/metric stream stays
    deterministic under ``--deterministic`` (ManualClock); the repeated
    topdown query records one cache miss and one hit, populating the
    cache-ratio gauge with a stable value.
    """
    import asyncio
    import tempfile

    from repro.serve import ProfileService, ProfileStore, ServeClient

    async def _loop_back() -> None:
        with tempfile.TemporaryDirectory(prefix="hpcview-serve-") as root:
            store = ProfileStore(Path(root) / "store", shards=2)
            service = ProfileService(store, queue_size=8)
            host, port = await service.start()
            try:
                async with ServeClient(host, port) as client:
                    for path in paths:
                        await client.ingest(app, Path(path).read_bytes())
                    await client.compact(app)
                    await client.query(app, "topdown")
                    await client.query(app, "topdown")
            finally:
                await service.stop()

    asyncio.run(_loop_back())


def cmd_trace(args: argparse.Namespace) -> int:
    import tempfile

    from repro.obs import ManualClock, ObsConfig, observing

    config = ObsConfig(
        wall_clock=ManualClock() if args.deterministic else None,
        trace_malloc=not args.no_malloc,
    )
    tmp = None
    out_root = args.measurements
    if out_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="hpcview-trace-")
        out_root = tmp.name
    try:
        with observing(config) as session:
            report, _merged = _run_observed(
                args.app, args.ranks, args.variant, args.preset,
                args.jobs, out_root,
            )
        session.finalize()
    finally:
        if tmp is not None:
            tmp.cleanup()
    path = session.trace.write(args.out)
    print(f"wrote {path}: {len(session.trace.events)} events "
          f"({session.trace.dropped_events} dropped)")
    print(f"span categories: {', '.join(sorted(session.trace.categories()))}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    print(f"max measurement dilation: {session.max_dilation_percent():.2f}%")
    print(report.summary())
    return 0 if report.ok else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    import tempfile
    from contextlib import nullcontext

    from repro.obs import ManualClock, ObsConfig, observing

    config = ObsConfig(
        wall_clock=ManualClock() if args.deterministic else None,
    )
    # Sanitize by default so the sanitizer layer's series are populated;
    # --no-sanitize measures the uninstrumented run instead.
    if args.no_sanitize:
        san_cm = nullcontext(None)
    else:
        from repro.sanitize import sanitizing

        san_cm = sanitizing()
    with tempfile.TemporaryDirectory(prefix="hpcview-metrics-") as out_root:
        with san_cm as san_session, observing(config) as session:
            _report, _merged = _run_observed(
                args.app, args.ranks, args.variant, args.preset,
                args.jobs, out_root,
            )
            if san_session is not None:
                san_session.report()  # finalize sanitizers -> final stats
        session.finalize()
    text = (
        session.metrics.to_prometheus()
        if args.format == "prom"
        else session.metrics.to_json()
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: {session.metrics.series_count()} series")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    from repro.parallel import merge_rpdb_files

    try:
        db, dropped = merge_rpdb_files(args.profiles, Path(args.output).stem)
    except ProfileError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    size = save_profile(db, args.output)
    n_files = len(args.profiles)
    status = "PARTIAL" if db.meta.get("partial") == "true" else "ok"
    print(f"merged {n_files - len(dropped)}/{n_files} profile(s) "
          f"-> {args.output} ({human_bytes(size)}) — {status}")
    for path, why in dropped:
        print(f"  dropped {path}: {why}")
    if "missing_ranks" in db.meta:
        print(f"  missing ranks: {db.meta['missing_ranks']}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ProfileService, ProfileStore

    store = ProfileStore(args.store, shards=args.shards)
    service = ProfileService(
        store, queue_size=args.queue_size, compact_every=args.compact_every
    )
    if args.smoke:
        return asyncio.run(_serve_smoke(service, args.smoke_blobs))

    async def _serve_forever() -> None:
        host, port = await service.start(args.host, args.port)
        print(f"serving {store.root} on {host}:{port} "
              f"(queue {args.queue_size}, {store.shards} shards/app, "
              f"compact_every={args.compact_every or 'manual'})")
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("stopped")
    return 0


async def _serve_smoke(service, n_blobs: int) -> int:
    """Self-test: concurrent two-app ingest, compact, query, verify.

    One client connection per app ingesting concurrently, then a
    compaction and a topdown query per app, then the store invariant:
    each rollup must be byte-identical to a sequential merge of its
    leaves.  Exit 0 only if both rollups verify.
    """
    import asyncio

    from repro.parallel.registry import run_app_rank
    from repro.serve import ServeClient

    apps = ("nw", "streamcluster")
    per_app = max(1, n_blobs // len(apps))
    host, port = await service.start("127.0.0.1", 0)

    async def _ship(app: str) -> None:
        async with ServeClient(host, port) as client:
            for rank in range(per_app):
                blob = run_app_rank(app, rank, per_app).to_bytes(canonical=True)
                await client.ingest(app, blob)

    try:
        await asyncio.gather(*(_ship(app) for app in apps))
        async with ServeClient(host, port) as client:
            for app in apps:
                print((await client.compact(app))["text"])
            print((await client.query(apps[0], "topdown"))["text"])
            print((await client.query("", "status"))["text"])
    finally:
        await service.stop()

    ok = True
    for app in apps:
        identical, covered = service.store.verify_rollup(app)
        verdict = "PASS" if identical else "FAIL"
        print(f"{app}: rollup vs sequential merge of {covered} leaves "
              f"-> byte-identical {verdict}")
        ok = ok and identical
    return 0 if ok else 1


def cmd_query(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ServeError
    from repro.serve import ServeClient

    async def _ask() -> dict:
        async with ServeClient(args.host, args.port) as client:
            if args.compact:
                return await client.compact(args.app)
            return await client.query(
                args.app, args.view, metric=args.metric, n=args.n
            )

    try:
        result = asyncio.run(_ask())
    except ServeError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        print(result.get("text", json.dumps(result, sort_keys=True)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcview",
        description="inspect data-centric profile databases (.rpdb)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, profiles_nargs="+", ranked=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("profiles", nargs=profiles_nargs, help="profile database files")
        if ranked:  # only the ranked views read these
            p.add_argument("--metric", default="samples",
                           help="samples|latency|events|remote|tlb_miss")
            p.add_argument("-n", type=int, default=10, help="rows to show")
        p.set_defaults(func=fn)
        return p

    info = add("info", cmd_info, "list threads/CCTs in each database",
               profiles_nargs="*", ranked=False)
    info.add_argument("--machine-stats", action="append", default=[],
                      metavar="FILE.json",
                      help="also render a MachineStats snapshot (JSON dict)")
    top = add("top", cmd_top, "top-down view: variables with allocation paths")
    top.add_argument("--accesses", type=int, default=3,
                     help="hot accesses to show per variable")
    add("table", cmd_table, "compact one-row-per-variable ranking")
    add("bottom", cmd_bottom, "bottom-up view: allocation call sites")
    advise_p = add("advise", cmd_advise, "triage + optimization guidance")
    advise_p.add_argument("--static-app", default=None, metavar="APP",
                          help="also run the static analyzer on APP and cite "
                               "its predictions in the recommendations")
    advise_p.add_argument("--static-variant", default="original",
                          help="variant for --static-app (default: original)")
    advise_p.add_argument("--static-preset", default="smoke",
                          help="preset for --static-app (default: smoke)")
    merge = add("merge", cmd_merge,
                "merge databases into one; unreadable files are dropped "
                "and reported", ranked=False)
    merge.add_argument("-o", "--output", required=True, help="output .rpdb file")

    topdown = sub.add_parser(
        "topdown",
        help="LIKWID-style top-down boundness hierarchy, from merged "
             "profiles or a live in-process run",
    )
    topdown.add_argument("profiles", nargs="*",
                         help="merged profile database files (.rpdb)")
    topdown.add_argument("--app", default=None,
                         help="run this app in-process and read the live "
                              "machine counters instead of profiles")
    topdown.add_argument("--static-app", default=None, metavar="APP",
                         help="render the static counter prediction of APP "
                              "on the same tree — nothing is executed")
    topdown.add_argument("--variant", default="original",
                         help="app variant for --app/--static-app "
                              "(default: original)")
    topdown.add_argument("--preset", default="smoke",
                         help="workload preset for --app/--static-app "
                              "(default: smoke)")
    topdown.set_defaults(func=cmd_topdown)

    run = sub.add_parser(
        "run", help="profile an app, one worker process per MPI rank"
    )
    run.add_argument("--app", required=True,
                     help="app to profile (see repro.parallel.APPS)")
    run.add_argument("--ranks", type=int, required=True, metavar="N",
                     help="number of simulated MPI ranks")
    run.add_argument("--jobs", type=int, default=None, metavar="J",
                     help="max concurrent worker processes (default: CPU count)")
    run.add_argument("--variant", default="original",
                     help="app variant (default: original)")
    run.add_argument("--preset", default="smoke",
                     help="workload preset (default: smoke)")
    run.add_argument("--out", default="measurements", metavar="DIR",
                     help="measurement root; writes DIR/<app>/<rank>.rpdb")
    run.add_argument("--timeout", type=float, default=300.0,
                     help="per-rank wall-clock limit in seconds")
    run.add_argument("--retries", type=int, default=1,
                     help="retries per failed rank before giving up")
    run.set_defaults(func=cmd_run)

    sanitize = sub.add_parser(
        "sanitize",
        help="run an app or defect seed under the shadow-memory/race checker",
    )
    sanitize.add_argument("--app", default=None,
                          help="app to sanitize (see repro.parallel.APPS)")
    sanitize.add_argument("--defect", default=None, metavar="SEED",
                          help="defect-corpus seed to sanitize instead of an app")
    sanitize.add_argument("--defects-file", default="examples/defects.py",
                          help="path to the seeded-defect corpus")
    sanitize.add_argument("--list-defects", action="store_true",
                          help="list defect seeds and expected findings")
    sanitize.add_argument("--preset", default="smoke",
                          help="workload preset (default: smoke)")
    sanitize.add_argument("--variant", default="original",
                          help="app variant (default: original)")
    sanitize.add_argument("--rank", type=int, default=0,
                          help="MPI rank to run in-process (default 0)")
    sanitize.add_argument("--ranks", type=int, default=2,
                          help="total simulated ranks (default 2)")
    sanitize.add_argument("--check-leaks", action="store_true",
                          help="also report heap blocks still live at exit")
    sanitize.add_argument("--fail-on", default=None, metavar="CLASSES",
                          help="exit 1 when findings match these classes "
                               "(comma list: oob,race,uaf,free,uninit,leak,"
                               "sharing,any or exact kinds)")
    sanitize.set_defaults(func=cmd_sanitize, parser=sanitize)

    static = sub.add_parser(
        "staticcheck",
        help="predict data-centric hazards without running: call graph, "
             "allocation reaching, NUMA/sharing analysis",
    )
    static.add_argument("--app", default=None,
                        help="app to analyze (see repro.staticcheck.STATIC_APPS)")
    static.add_argument("--defect", default=None, metavar="SEED",
                        help="static defect seed to analyze instead of an app")
    static.add_argument("--defects-file", default="examples/defects.py",
                        help="path to the seeded-defect corpus")
    static.add_argument("--list-defects", action="store_true",
                        help="list static seeds and expected hazard codes")
    static.add_argument("--variant", default="original",
                        help="app variant, or 'all' to loop every variant "
                             "(default: original)")
    static.add_argument("--preset", default="smoke",
                        help="workload preset (default: smoke)")
    static.add_argument("--extract", action="store_true",
                        help="recover the model from kernel source by AST "
                             "interpretation instead of the registered "
                             "static_model() declarations")
    static.add_argument("--diff-model", action="store_true",
                        help="structurally diff the extracted model against "
                             "the registered declarations (the drift gate); "
                             "exit 1 on divergence; needs --extract")
    static.add_argument("--list-hazards", action="store_true",
                        help="print the H001..H004 hazard catalogue with "
                             "registry-resolved thresholds and exit")
    static.add_argument("-n", type=int, default=10,
                        help="variables to show (default 10)")
    static.add_argument("--min-share", type=float, default=None,
                        help="minimum static access share for a placement "
                             "finding (default: the formula registry's "
                             "min_share constant, 0.03 unless overridden "
                             "per preset)")
    static.add_argument("--fail-on", default=None, metavar="CODES",
                        help="exit 1 when findings match these hazard codes "
                             "(comma list of H001..H004, or 'any')")
    static.add_argument("--reconcile", nargs="+", default=None,
                        metavar="FILE.rpdb",
                        help="label predictions against these merged profiles")
    static.add_argument("--reconcile-run", action="store_true",
                        help="profile the app (rank 0) or the seed's dynamic "
                             "twin in-process and reconcile against it")
    static.add_argument("--reconcile-metrics", action="store_true",
                        help="also compare static vs dynamic evaluations of "
                             "the derived-metric DAG per variable, with "
                             "relative error (needs --reconcile or "
                             "--reconcile-run)")
    static.set_defaults(func=cmd_staticcheck, parser=static)

    def add_telemetry_args(p):
        p.add_argument("--app", default="nw",
                       help="app to run (see repro.parallel.APPS; default nw)")
        p.add_argument("--ranks", type=int, default=2, metavar="N",
                       help="simulated MPI ranks (default 2)")
        p.add_argument("--variant", default="original",
                       help="app variant (default: original)")
        p.add_argument("--preset", default="smoke",
                       help="workload preset (default: smoke)")
        p.add_argument("--jobs", type=int, default=1, metavar="J",
                       help="driver worker processes (default 1)")
        p.add_argument("--deterministic", action="store_true",
                       help="use a fixed-step manual clock for wall-domain "
                            "spans: byte-identical output across runs")

    trace = sub.add_parser(
        "trace",
        help="run an app under the telemetry layer; write a Perfetto/"
             "Chrome trace-event timeline",
    )
    add_telemetry_args(trace)
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="trace JSON output path (default trace.json)")
    trace.add_argument("--no-malloc", action="store_true",
                       help="skip malloc-lifetime spans (smaller traces)")
    trace.add_argument("--measurements", default=None, metavar="DIR",
                       help="keep driver .rpdb output here "
                            "(default: temporary directory)")
    trace.set_defaults(func=cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run an app under the telemetry layer; export the metrics "
             "registry",
    )
    add_telemetry_args(metrics)
    metrics.add_argument("--format", choices=("prom", "json"), default="prom",
                         help="export format (default: prom)")
    metrics.add_argument("--out", default=None, metavar="FILE",
                         help="write here instead of stdout")
    metrics.add_argument("--no-sanitize", action="store_true",
                         help="run without the sanitizer (drops that "
                              "layer's metric series)")
    metrics.set_defaults(func=cmd_metrics)

    serve = sub.add_parser(
        "serve",
        help="run the continuous-profiling service: async ingest of "
             ".rpdb blobs, sharded store, incremental rollup compaction",
    )
    serve.add_argument("--store", default="store", metavar="DIR",
                       help="store root; grows DIR/<app>/<shard>/ "
                            "(default: store)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0: ephemeral, printed)")
    serve.add_argument("--queue-size", type=int, default=64, metavar="N",
                       help="bounded ingest queue: validated blobs "
                            "awaiting commit (the backpressure window)")
    serve.add_argument("--compact-every", type=int, default=0, metavar="N",
                       help="auto-compact an app after N ingests "
                            "(default 0: only on explicit compact requests)")
    serve.add_argument("--shards", type=int, default=4,
                       help="leaf shards per app (default 4)")
    serve.add_argument("--smoke", action="store_true",
                       help="self-test: concurrent two-app ingest, compact, "
                            "query, then verify rollups byte-identical to a "
                            "sequential merge; exit 1 on mismatch")
    serve.add_argument("--smoke-blobs", type=int, default=32, metavar="N",
                       help="total blobs the smoke test ingests (default 32)")
    serve.set_defaults(func=cmd_serve)

    query = sub.add_parser(
        "query",
        help="query a running serve instance: topdown/bottomup/variables "
             "views, store status, service metricsz",
    )
    query.add_argument("app", nargs="?", default="",
                       help="app namespace (omit for status/metricsz)")
    query.add_argument("--host", default="127.0.0.1",
                       help="service address (default 127.0.0.1)")
    query.add_argument("--port", type=int, required=True,
                       help="service port")
    query.add_argument("--view", default="status",
                       choices=("topdown", "bottomup", "variables",
                                "status", "metricsz"),
                       help="view to render (default: status)")
    query.add_argument("--metric", default="latency",
                       help="metric for bottomup/variables "
                            "(samples|latency|events|remote|tlb_miss)")
    query.add_argument("-n", type=int, default=10,
                       help="rows for bottomup/variables (default 10)")
    query.add_argument("--compact", action="store_true",
                       help="trigger a compaction for APP instead of a view")
    query.add_argument("--json", action="store_true",
                       help="print the raw JSON payload, not rendered text")
    query.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
