"""Tests for the unified telemetry layer (``repro.obs``).

Covers the span tracer (sim-time and wall-clock domains), the metrics
registry's deterministic exports, the activation seam (zero state when
disabled, read-only observation when enabled — profiles byte-identical
either way), driver/merge/codec instrumentation, the overhead-dilation
accounting, and the ``hpcview trace``/``hpcview metrics`` CLI.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ConfigError, ObsError
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    ObsConfig,
    TraceWriter,
    WallClock,
    active_session,
    observing,
)
from repro.parallel.registry import run_app_rank

from tests.conftest import MiniProgram

REPO = Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_schema = _load_tool("trace_schema")


def spans(trace: TraceWriter, cat: str) -> list[dict]:
    return [e for e in trace.events if e.get("cat") == cat and e.get("ph") == "X"]


# ---------------------------------------------------------------- clocks


class TestClocks:
    def test_manual_clock_advances_by_fixed_step(self):
        clock = ManualClock(start_us=10.0, step_us=2.0)
        assert clock.now_us() == 10.0
        assert clock.now_us() == 12.0
        clock.advance(100.0)
        assert clock.now_us() == 114.0

    def test_wall_clock_is_monotonic(self):
        clock = WallClock()
        a = clock.now_us()
        b = clock.now_us()
        assert b >= a >= 0.0


# ---------------------------------------------------------------- trace writer


class TestTraceWriter:
    def test_complete_event_shape(self):
        trace = TraceWriter()
        trace.complete("work", "phase", 1.5, 2.5, pid=3, tid=4, args={"k": 1})
        (event,) = trace.events
        assert event == {
            "name": "work", "cat": "phase", "ph": "X",
            "ts": 1.5, "dur": 2.5, "pid": 3, "tid": 4, "args": {"k": 1},
        }

    def test_negative_duration_clamped(self):
        trace = TraceWriter()
        trace.complete("x", "c", 5.0, -1.0, pid=0, tid=0)
        assert trace.events[0]["dur"] == 0.0

    def test_bounded_buffer_drops_and_counts(self):
        trace = TraceWriter(max_events=3)
        for i in range(10):
            trace.complete(f"e{i}", "c", i, 1.0, pid=0, tid=0)
        assert len(trace.events) == 3
        assert trace.dropped_events == 7
        payload = json.loads(trace.to_json())
        assert payload["otherData"]["dropped_events"] == 7

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            TraceWriter(max_events=0)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        trace = TraceWriter()
        trace.process_name(1, "p")
        trace.complete("x", "c", 0.0, 1.0, pid=1, tid=0)
        out = trace.write(tmp_path / "sub" / "trace.json")
        assert out.is_file()
        assert list(out.parent.glob("*.tmp.*")) == []
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == 2

    def test_output_passes_schema_check(self):
        trace = TraceWriter()
        trace.process_name(0, "host")
        trace.thread_name(0, 1, "driver")
        trace.complete("x", "driver", 0.0, 1.0, pid=0, tid=1)
        trace.instant("mark", "driver", 0.5, pid=0, tid=1)
        payload = json.loads(trace.to_json())
        assert trace_schema.validate_trace(payload) == []
        assert trace_schema.validate_trace(
            payload, require_cats={"driver"}
        ) == []
        errors = trace_schema.validate_trace(payload, require_cats={"merge"})
        assert any("merge" in e for e in errors)

    def test_schema_flags_malformed_events(self):
        errors = trace_schema.validate_trace(
            {"traceEvents": [{"ph": "X", "name": "x"}, {"ph": "?"}]}
        )
        assert errors


class TestTraceWriterConcurrency:
    """Emission under contention: exact drop accounting, no torn output."""

    def test_concurrent_emission_exact_drop_count(self):
        trace = TraceWriter(max_events=50)
        n_threads, per_thread = 8, 100
        barrier = threading.Barrier(n_threads)

        def emit(tid: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                trace.complete(f"t{tid}.{i}", "c", i, 1.0, pid=0, tid=tid)

        threads = [
            threading.Thread(target=emit, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # The lock makes bound-check + append + drop-count atomic: the
        # buffer never overshoots and every rejected event is counted.
        assert len(trace.events) == 50
        assert trace.dropped_events == n_threads * per_thread - 50

    def test_to_json_during_concurrent_emission(self):
        trace = TraceWriter(max_events=10_000)
        stop = threading.Event()

        def emit() -> None:
            i = 0
            while not stop.is_set():
                trace.complete(f"e{i}", "c", i, 1.0, pid=0, tid=1)
                i += 1

        worker = threading.Thread(target=emit)
        worker.start()
        try:
            for _ in range(20):
                payload = json.loads(trace.to_json())  # must not tear
                assert isinstance(payload["traceEvents"], list)
        finally:
            stop.set()
            worker.join()

    def test_atomic_write_under_full_buffer_and_contention(self, tmp_path):
        trace = TraceWriter(max_events=5)
        done = threading.Event()

        def emit() -> None:
            i = 0
            while not done.is_set():
                trace.complete(f"e{i}", "c", i, 1.0, pid=0, tid=1)
                i += 1

        worker = threading.Thread(target=emit)
        worker.start()
        try:
            for round_ in range(5):
                out = trace.write(tmp_path / f"trace{round_}.json")
                payload = json.loads(out.read_text())  # complete file
                assert len(payload["traceEvents"]) == 5
                assert payload["otherData"]["dropped_events"] >= 0
        finally:
            done.set()
            worker.join()
        assert list(tmp_path.glob("*.tmp.*")) == []  # rename happened


# ---------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2, {"app": "nw"})
        reg.inc("hits", 3, {"app": "nw"})
        reg.inc("hits", 7, {"app": "lulesh"})
        assert reg.value("hits", {"app": "nw"}) == 5
        assert reg.value("hits", {"app": "lulesh"}) == 7

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 4)
        reg.set_gauge("depth", 9)
        assert reg.value("depth") == 9

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        for v in (0.0005, 0.5, 0.6, 50.0, 1e9):
            reg.observe("lat", v)
        prom = reg.to_prometheus()
        assert 'lat_bucket{le="0.001"} 1' in prom
        assert 'lat_bucket{le="1"} 3' in prom
        assert 'lat_bucket{le="100"} 4' in prom
        assert 'lat_bucket{le="+Inf"} 5' in prom
        assert "lat_count 5" in prom

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError):
            reg.set_gauge("x", 1.0)

    def test_serialization_independent_of_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("m", 1, {"x": "1", "y": "2"})
        a.set_gauge("a_first", 3)
        b.set_gauge("a_first", 3)
        b.set_gauge("m", 1, {"y": "2", "x": "1"})
        assert a.to_json() == b.to_json()
        assert a.to_prometheus() == b.to_prometheus()

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.set_gauge("m", 1, {"p": 'a"b\\c\nd'})
        line = [
            l for l in reg.to_prometheus().splitlines()
            if not l.startswith("#")
        ][0]
        assert line == 'm{p="a\\"b\\\\c\\nd"} 1'
        errors, samples = trace_schema.validate_prometheus(reg.to_prometheus())
        assert errors == [] and samples == 1

    def test_prometheus_output_validates(self):
        reg = MetricsRegistry()
        reg.inc("c_total", 3, {"app": "nw"}, help_text="a counter")
        reg.set_gauge("g", 1.25)
        reg.observe("h", 0.05, {"app": "nw"})
        errors, samples = trace_schema.validate_prometheus(reg.to_prometheus())
        assert errors == []
        # histogram: len(buckets) + _bucket{+Inf} + _sum + _count + p50/95/99
        assert samples == 2 + (len(reg._series[("h", (("app", "nw"),))].buckets) + 6)

    def test_json_export_shape(self):
        reg = MetricsRegistry()
        reg.inc("c", 1, {"app": "nw"})
        payload = json.loads(reg.to_json())
        (series,) = payload["series"]
        assert series == {
            "kind": "counter", "labels": {"app": "nw"}, "name": "c", "value": 1.0,
        }

    def test_series_count_and_names(self):
        reg = MetricsRegistry()
        reg.inc("c", 1, {"a": "1"})
        reg.inc("c", 1, {"a": "2"})
        reg.set_gauge("g", 0)
        assert reg.series_count() == 3
        assert reg.metric_names() == ["c", "g"]


class TestHistogramQuantiles:
    def test_summary_lines_in_prometheus_export(self):
        reg = MetricsRegistry()
        for v in (0.005, 0.005, 0.05, 0.5, 5.0):
            reg.observe("lat", v, {"op": "q"})
        prom = reg.to_prometheus()
        for suffix in ("_p50", "_p95", "_p99"):
            assert f'lat{suffix}{{op="q"}}' in prom
        errors, _ = trace_schema.validate_prometheus(prom)
        assert errors == []

    def test_summary_fields_in_json_export(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.05)
        (series,) = json.loads(reg.to_json())["series"]
        assert {"p50", "p95", "p99"} <= set(series)

    def test_quantiles_interpolate_within_buckets(self):
        # 100 observations uniform in (0, 1]: every one lands in the
        # (0.1, 1.0] bucket except the ten <= 0.1.  The interpolated p50
        # sits mid-bucket; estimates are monotone in q and bounded by
        # the bucket that contains the rank.
        reg = MetricsRegistry()
        for i in range(1, 101):
            reg.observe("u", i / 100.0)
        hist = reg._series[("u", ())]
        p50, p95, p99 = (
            hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99)
        )
        assert 0.1 < p50 <= 1.0
        assert p50 <= p95 <= p99 <= 1.0
        assert p50 == pytest.approx(0.5, abs=0.06)

    def test_overflow_observations_clamp_to_last_bucket(self):
        reg = MetricsRegistry()
        for _ in range(10):
            reg.observe("big", 1e6)  # beyond every finite bucket
        hist = reg._series[("big", ())]
        assert hist.quantile(0.99) == hist.buckets[-1]

    def test_empty_histogram_quantile_is_zero(self):
        from repro.obs.metrics import _Histogram

        hist = _Histogram((1.0, 2.0))
        assert hist.quantile(0.99) == 0.0


class TestLabelKeyConsistency:
    """One metric name must keep one label-key set (ObsError otherwise)."""

    def test_counter_label_key_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.inc("reqs", 1, {"app": "nw"})
        with pytest.raises(ObsError, match="label keys"):
            reg.inc("reqs", 1, {"job": "merge"})

    def test_error_at_observation_time_names_both_key_sets(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1, {"op": "ingest"})
        with pytest.raises(ObsError) as exc:
            reg.observe("lat", 0.1, {"op": "ingest", "shard": "0"})
        assert "('op',)" in str(exc.value)
        assert "('op', 'shard')" in str(exc.value)

    def test_same_keys_different_values_fine(self):
        reg = MetricsRegistry()
        reg.inc("reqs", 1, {"app": "nw"})
        reg.inc("reqs", 1, {"app": "lulesh"})
        assert reg.value("reqs", {"app": "nw"}) == 1

    def test_unlabelled_then_labelled_raises(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 1)
        with pytest.raises(ObsError):
            reg.set_gauge("depth", 2, {"queue": "a"})

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.inc("m", 1, {"a": "1", "b": "2"})
        reg.inc("m", 1, {"b": "3", "a": "4"})  # same key set, reordered
        assert reg.value("m", {"a": "4", "b": "3"}) == 1

    def test_rejected_observation_leaves_no_series_behind(self):
        reg = MetricsRegistry()
        reg.inc("reqs", 1, {"app": "nw"})
        with pytest.raises(ObsError):
            reg.inc("reqs", 1, {"zone": "x"})
        assert reg.series_count() == 1
        errors, samples = trace_schema.validate_prometheus(reg.to_prometheus())
        assert errors == [] and samples == 1


# ---------------------------------------------------------------- activation


class TestActivationSeam:
    def test_no_session_no_agent(self):
        prog = MiniProgram()
        assert prog.process.obs is None
        assert prog.process.hooks == []
        assert active_session() is None

    def test_session_attaches_agent_to_every_process(self):
        with observing() as session:
            a, b = MiniProgram(pid=0), MiniProgram(pid=1)
        assert a.process.obs is not None
        assert b.process.obs is not None
        assert session.agents == [a.process.obs, b.process.obs]
        assert a.process.obs in a.process.hooks

    def test_sessions_do_not_nest(self):
        with observing():
            with pytest.raises(ConfigError):
                with observing():
                    pass

    def test_session_scope_ends_attachment(self):
        with observing():
            pass
        assert active_session() is None
        assert MiniProgram().process.obs is None

    def test_profiles_byte_identical_with_subsystem_importable(self):
        # Mirror of the sanitizer's acceptance bar: a subprocess that never
        # imported repro.obs produces the baseline; importing the package
        # (without a session) must leave profile bytes unchanged — and so
        # must an *active* session, since agents never mutate sim state.
        code = (
            "from repro.parallel.registry import run_app_rank\n"
            "import sys\n"
            "assert 'repro.obs' not in sys.modules\n"
            "baseline = run_app_rank('nw', 0, 2).canonical_bytes()\n"
            "import repro.obs\n"
            "from repro.obs import observing\n"
            "again = run_app_rank('nw', 0, 2).canonical_bytes()\n"
            "assert again == baseline, 'profile bytes changed by import'\n"
            "with observing():\n"
            "    active = run_app_rank('nw', 0, 2).canonical_bytes()\n"
            "assert active == baseline, 'profile bytes changed by session'\n"
            "sys.stdout.write('IDENTICAL %d' % len(baseline))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("IDENTICAL")


# ---------------------------------------------------------------- sim spans


class TestSimTimeSpans:
    def test_phase_span_matches_phase_cycles(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            prog = MiniProgram()
            ctx = prog.master_ctx()
            addr = ctx.malloc(8192, line=20, var="buf")
            with prog.process.phase("init"):
                for i in range(16):
                    ctx.load(addr + 8 * i, line=10)
            ctx.free(addr, line=20)
        session.finalize()
        (phase,) = spans(session.trace, "phase")
        assert phase["name"] == "phase:init"
        assert phase["args"]["cycles"] == prog.process.phase_cycles["init"]
        us = prog.machine.cycles_to_seconds(phase["args"]["cycles"]) * 1e6
        assert phase["dur"] == pytest.approx(us, abs=0.002)

    def test_malloc_lifetime_span(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            prog = MiniProgram()
            ctx = prog.master_ctx()
            addr = ctx.malloc(4096, line=20, var="buf")
            for i in range(8):
                ctx.store(addr + 8 * i, line=10)
            ctx.free(addr, line=20)
        session.finalize()
        (span,) = spans(session.trace, "malloc")
        assert span["name"] == "malloc:buf"
        assert span["args"]["addr"] == addr
        assert span["args"]["bytes"] == 4096
        assert span["dur"] > 0

    def test_leaked_alloc_closed_at_finalize(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            prog = MiniProgram()
            ctx = prog.master_ctx()
            addr = ctx.malloc(4096, line=20, var="leaked")
            for i in range(4):
                ctx.load(addr + 8 * i, line=10)
        assert spans(session.trace, "malloc") == []
        session.finalize()
        (span,) = spans(session.trace, "malloc")
        assert span["name"] == "malloc:leaked"

    def test_malloc_spans_disabled_by_config(self):
        with observing(
            ObsConfig(wall_clock=ManualClock(), trace_malloc=False)
        ) as session:
            prog = MiniProgram()
            ctx = prog.master_ctx()
            addr = ctx.malloc(4096, line=20)
            ctx.free(addr, line=20)
        session.finalize()
        assert spans(session.trace, "malloc") == []

    def test_rank_span_covers_whole_run(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            prog = MiniProgram()
            ctx = prog.master_ctx()
            addr = ctx.malloc(8192, line=20)
            for i in range(32):
                ctx.load(addr + 8 * i, line=10)
            ctx.free(addr, line=20)
        session.finalize()
        (rank,) = spans(session.trace, "rank")
        assert rank["ts"] == 0.0
        assert rank["args"]["cycles"] == prog.process.master.clock

    def test_app_covers_all_sim_categories(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            db = run_app_rank("nw", 0, 2)
            db.to_bytes()
        session.finalize()
        cats = session.trace.categories()
        assert {"phase", "parallel", "rank", "malloc", "codec"} <= cats
        parallel = spans(session.trace, "parallel")
        assert parallel and all(p["args"]["n_threads"] >= 1 for p in parallel)
        payload = json.loads(session.trace.to_json())
        assert trace_schema.validate_trace(payload) == []


# ---------------------------------------------------------------- wall spans


class TestWallDomain:
    def test_wall_span_records_duration(self):
        with observing(ObsConfig(wall_clock=ManualClock(step_us=5.0))) as session:
            with session.wall_span("task", "merge", tid=2, args={"n": 1}):
                pass
        (span,) = spans(session.trace, "merge")
        assert span["pid"] == 0 and span["tid"] == 2
        assert span["dur"] == 5.0  # one clock step between enter and exit

    def test_driver_emits_spans_and_metrics(self, tmp_path):
        from repro.parallel import profile_ranks

        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            report = profile_ranks(
                "streamcluster", 2, tmp_path, jobs=1, timeout=120.0
            )
        session.finalize()
        assert report.ok
        driver = spans(session.trace, "driver")
        names = {s["name"] for s in driver}
        assert {"rank0#try1", "rank1#try1", "profile_ranks:streamcluster"} <= names
        m = session.metrics
        labels = {"app": "streamcluster"}
        assert m.value("repro_driver_attempts_total", labels) == 2
        assert m.value("repro_driver_ranks", labels) == 2
        assert m.value("repro_driver_ranks_failed", labels) == 0
        assert m.value("repro_driver_retries_total", labels) == 0

    def test_merge_emits_spans_and_metrics(self):
        from repro.parallel.merge import parallel_reduction_merge

        blobs = [
            run_app_rank("streamcluster", r, 4).to_bytes() for r in range(4)
        ]
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            _db, _stats, report = parallel_reduction_merge(
                blobs, "job", jobs=1, arity=2
            )
        session.finalize()
        merge = spans(session.trace, "merge")
        names = {s["name"] for s in merge}
        assert "parallel_reduction_merge:job" in names
        assert any(n.startswith("merge-round1[") for n in names)
        m = session.metrics
        labels = {"job": "job"}
        assert m.value("repro_merge_inputs", labels) == 4
        assert m.value("repro_merge_rounds", labels) == report.rounds
        assert m.value("repro_merge_tasks", labels) == report.tasks_dispatched
        assert m.value("repro_merge_dropped", labels) == 0

    def test_codec_spans_and_counters(self):
        from repro.core.profiledb import ProfileDB

        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            db = run_app_rank("streamcluster", 0, 2)
            data = db.to_bytes()
            ProfileDB.from_bytes(data)
        session.finalize()
        codec = spans(session.trace, "codec")
        names = {s["name"] for s in codec}
        assert {"codec:encode", "codec:decode"} <= names
        assert session.metrics.value("repro_codec_encodes_total") == 1
        assert session.metrics.value("repro_codec_decodes_total") == 1
        assert session.metrics.value("repro_codec_encoded_bytes_total") == len(data)
        assert session.metrics.value("repro_codec_decoded_bytes_total") == len(data)


# ---------------------------------------------------------------- metrics layers


class TestMetricsLayers:
    def test_machine_and_profiler_layers_populated(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            run_app_rank("nw", 0, 2)
        session.finalize()
        names = set(session.metrics.metric_names())
        assert {
            "repro_machine_loads",
            "repro_machine_level_counts",
            "repro_machine_tlb_misses",
            "repro_machine_contention_queue_cycles",
            "repro_sim_elapsed_cycles",
            "repro_sim_phase_cycles",
            "repro_profiler_samples",
            "repro_profiler_overhead_cycles",
            "repro_profiler_dilation_percent",
            "repro_sanitizer_quarantine_bytes",
        } <= names

    def test_dilation_accounting_consistent(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            run_app_rank("nw", 0, 2)
        session.finalize()
        m = session.metrics
        labels = {"process": "nw"}
        overhead = m.value("repro_profiler_overhead_cycles", labels)
        elapsed = m.value("repro_sim_elapsed_cycles", labels)
        dilation = m.value("repro_profiler_dilation_percent", labels)
        assert overhead > 0 and elapsed > 0
        assert dilation == pytest.approx(100.0 * overhead / elapsed)
        assert session.max_dilation_percent() == pytest.approx(dilation)

    def test_sanitizer_layer_populated_under_sanitize_session(self):
        from repro.sanitize import sanitizing

        with sanitizing() as san, observing(
            ObsConfig(wall_clock=ManualClock())
        ) as session:
            run_app_rank("streamcluster", 0, 2)
            san.report()
        session.finalize()
        names = set(session.metrics.metric_names())
        assert "repro_sanitizer_allocs" in names
        assert "repro_sanitizer_findings" in names
        labels = {"process": "streamcluster"}
        assert session.metrics.value("repro_sanitizer_findings", labels) == 0


# ---------------------------------------------------------------- determinism


class TestDeterminism:
    def _one_run(self):
        with observing(ObsConfig(wall_clock=ManualClock())) as session:
            db = run_app_rank("nw", 0, 2)
            db.to_bytes()
        session.finalize()
        return (
            session.trace.to_json(),
            session.metrics.to_json(),
            session.metrics.to_prometheus(),
        )

    def test_same_seed_byte_identical_trace_and_metrics(self):
        assert self._one_run() == self._one_run()

    def test_cli_trace_byte_identical_across_processes(self, tmp_path):
        outs = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        for i in range(2):
            out = tmp_path / f"trace{i}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.tools.hpcview", "trace",
                    "--app", "streamcluster", "--ranks", "2", "--jobs", "1",
                    "--deterministic", "--out", str(out),
                ],
                capture_output=True, text=True, env=env, timeout=600,
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# ---------------------------------------------------------------- CLI


class TestCLI:
    def test_trace_command(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--app", "streamcluster", "--ranks", "2",
            "--jobs", "1", "--deterministic", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert trace_schema.validate_trace(
            payload,
            require_cats={"phase", "parallel", "driver", "merge", "rank", "codec"},
        ) == []
        stdout = capsys.readouterr().out
        assert "span categories" in stdout

    def test_metrics_command_prom_and_json(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        out = tmp_path / "metrics.prom"
        rc = main([
            "metrics", "--app", "streamcluster", "--ranks", "2",
            "--jobs", "1", "--format", "prom", "--out", str(out),
        ])
        assert rc == 0
        errors, samples = trace_schema.validate_prometheus(out.read_text())
        assert errors == []
        assert samples >= 12
        prefixes = {"repro_machine", "repro_driver", "repro_merge", "repro_sanitizer"}
        text = out.read_text()
        assert all(p in text for p in prefixes)

        out_json = tmp_path / "metrics.json"
        rc = main([
            "metrics", "--app", "streamcluster", "--ranks", "2",
            "--jobs", "1", "--format", "json", "--no-sanitize",
            "--out", str(out_json),
        ])
        assert rc == 0
        payload = json.loads(out_json.read_text())
        names = {s["name"] for s in payload["series"]}
        assert len(names) >= 12
        assert not any(n.startswith("repro_sanitizer_alloc") for n in names)
        capsys.readouterr()
