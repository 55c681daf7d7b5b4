"""§7 extensions: stack attribution, PEBS, Ivy Bridge preset, derived
metrics, and the hpcview CLI."""

from __future__ import annotations

import pytest

from repro import (
    Analyzer,
    DataCentricProfiler,
    IBSEngine,
    MetricKind,
    PEBSEngine,
    ProfilerConfig,
    StorageClass,
    intel_ivybridge,
)
from repro.core.derived import derive_from_machine, derive_from_profile
from repro.core.stackmap import StackDataMap, StackVariable
from repro.errors import ConfigError, ProfileError
from repro.machine.hierarchy import LVL_L1, LVL_LMEM
from repro.sim.hook import Hook
from tests.conftest import MiniProgram


# ------------------------------------------------------------- stack tracking


class TestStackMap:
    def _var(self, name="buf", thread="t0", fn="work", addr=0x1000, size=256):
        return StackVariable(name, thread, fn, addr, size)

    def test_register_and_lookup(self, mini):
        m = StackDataMap()
        var = m.register(self._var(thread=mini.process.master.name))
        assert m.lookup(mini.process.master, 0x1000) is var
        assert m.lookup(mini.process.master, 0x10FF) is var
        assert m.lookup(mini.process.master, 0x1100) is None

    def test_thread_privacy(self, mini):
        m = StackDataMap()
        m.register(self._var(thread="someone-else"))
        assert m.lookup(mini.process.master, 0x1000) is None

    def test_release(self, mini):
        m = StackDataMap()
        m.register(self._var(thread=mini.process.master.name))
        m.release(mini.process.master.name, 0x1000)
        assert m.lookup(mini.process.master, 0x1000) is None
        assert m.live == 0

    def test_release_unknown_thread_raises(self):
        with pytest.raises(ProfileError):
            StackDataMap().release("nope", 0x1000)

    def test_release_all(self, mini):
        m = StackDataMap()
        name = mini.process.master.name
        m.register(self._var(thread=name, addr=0x1000))
        m.register(self._var(thread=name, addr=0x2000))
        m.release_all(name)
        assert m.live == 0
        assert m.released == 2


class TestStackAttribution:
    def _run(self, track_stack: bool):
        mini = MiniProgram()
        profiler = DataCentricProfiler(
            mini.process, ProfilerConfig(track_stack=track_stack)
        ).attach()
        mini.process.pmu = IBSEngine(period=8, seed=5)
        ctx = mini.master_ctx()
        buf = ctx.declare_stack_var("phi_local", 8192, line=10)
        ip = ctx.ip(10)

        def kern():
            for i in range(3000):
                ctx.load_ip(buf + (i * 8) % 8192, ip)
                if i % 32 == 0:
                    yield

        mini.process.run_serial(kern())
        ctx.leave()
        return profiler, Analyzer("t").add(profiler.finalize()).analyze()

    def test_disabled_by_default_goes_to_unknown(self):
        profiler, exp = self._run(track_stack=False)
        assert profiler.stats.stack_samples == 0
        assert profiler.stats.unknown_samples > 0
        assert exp.storage_share(StorageClass.UNKNOWN, MetricKind.SAMPLES) == 1.0

    def test_enabled_attributes_named_variable(self):
        profiler, exp = self._run(track_stack=True)
        assert profiler.stats.stack_samples > 0
        assert profiler.stats.unknown_samples == 0
        view = exp.top_down(MetricKind.SAMPLES)
        assert view.storage_share(StorageClass.STACK) == 1.0
        var = view.variables[0]
        assert var.storage is StorageClass.STACK
        assert var.name == "phi_local"
        assert var.accesses  # access call paths under the variable node

    def test_release_stops_attribution(self):
        mini = MiniProgram()
        profiler = DataCentricProfiler(
            mini.process, ProfilerConfig(track_stack=True)
        ).attach()
        mini.process.pmu = IBSEngine(period=4, seed=6)
        ctx = mini.master_ctx()
        buf = ctx.declare_stack_var("tmp", 4096, line=10)
        ctx.release_stack_var(buf)
        ip = ctx.ip(10)

        def kern():
            for i in range(1000):
                ctx.load_ip(buf + (i * 8) % 4096, ip)
                if i % 32 == 0:
                    yield

        mini.process.run_serial(kern())
        assert profiler.stats.stack_samples == 0
        assert profiler.stats.unknown_samples > 0

    def test_stack_vars_coalesce_across_threads_by_function_and_name(self):
        """Same local in the same function merges across threads (like
        statics merge by symbol name)."""
        from repro.core.stackmap import KIND_STACK_VAR, stack_var_entry

        a = stack_var_entry(StackVariable("phi", "t0", "work", 0x1000, 64))
        b = stack_var_entry(StackVariable("phi", "t1", "work", 0x9000, 64))
        assert a[0] == b[0] == (KIND_STACK_VAR, "work", "phi")


# ----------------------------------------------------------------------- PEBS


class _Recorder(Hook):
    def __init__(self):
        self.samples = []

    def on_sample(self, process, thread, sample):
        self.samples.append(sample)


class _FakeThread:
    def __init__(self):
        self.pmu_countdown = 0
        self.pmu_pending = None
        self.frames = []
        self.name = "fake"


class _FakeProcess:
    def __init__(self):
        self.hooks = (_Recorder(),)


class TestPEBS:
    def _feed(self, engine, p, t, n, latency, is_store=False, level=LVL_LMEM):
        for i in range(n):
            engine.note_mem(p, t, 0x100 + i, 0x9000 + 8 * i, latency, level,
                            False, is_store)

    def test_latency_threshold_filters(self):
        engine = PEBSEngine(period=4, latency_threshold=100, seed=1)
        p, t = _FakeProcess(), _FakeThread()
        self._feed(engine, p, t, 200, latency=50)   # too fast to count
        assert engine.events_counted == 0
        assert not p.hooks[0].samples
        self._feed(engine, p, t, 200, latency=150)
        assert engine.events_counted == 200
        assert p.hooks[0].samples

    def test_samples_are_precise(self):
        engine = PEBSEngine(period=2, latency_threshold=0, seed=2)
        p, t = _FakeProcess(), _FakeThread()
        self._feed(engine, p, t, 50, latency=80)
        for s in p.hooks[0].samples:
            assert s.precise_ip == s.interrupt_ip
            assert s.ea is not None
            assert "LOAD_LATENCY" in s.event

    def test_stores_ignored_by_default(self):
        engine = PEBSEngine(period=1, latency_threshold=0, seed=3)
        p, t = _FakeProcess(), _FakeThread()
        self._feed(engine, p, t, 20, latency=80, is_store=True)
        assert not p.hooks[0].samples
        engine2 = PEBSEngine(period=1, latency_threshold=0, seed=3, sample_stores=True)
        self._feed(engine2, p, t, 20, latency=80, is_store=True)
        assert p.hooks[0].samples

    def test_compute_never_fires(self):
        engine = PEBSEngine(period=1, seed=4)
        p, t = _FakeProcess(), _FakeThread()
        for _ in range(100):
            engine.note_compute(p, t, 50)
        assert not p.hooks[0].samples

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            PEBSEngine(period=0)
        with pytest.raises(ConfigError):
            PEBSEngine(latency_threshold=-1)


class TestIvyBridgePreset:
    def test_shape(self):
        m = intel_ivybridge()
        assert m.topology.sockets == 2
        assert m.n_threads == 48
        assert m.n_numa_nodes == 2

    def test_usable_end_to_end_with_pebs(self):
        from repro import Ctx, SimProcess
        from tests.conftest import MiniProgram

        mini = MiniProgram(machine=intel_ivybridge())
        profiler = DataCentricProfiler(mini.process).attach()
        mini.process.pmu = PEBSEngine(period=4, latency_threshold=30, seed=9)
        ctx = mini.master_ctx()
        arr = ctx.alloc_array("hot", (8192,), line=20)
        ip = ctx.ip(10)

        def kern():
            for i in range(4000):
                ctx.load_ip(arr.flat_addr((i * 64) % arr.size), ip)
                if i % 32 == 0:
                    yield

        mini.process.run_serial(kern())
        exp = Analyzer("ivb").add(profiler.finalize()).analyze()
        tops = exp.top_variables(MetricKind.LATENCY, 1)
        assert tops and tops[0].name == "hot"
        # Threshold sampling only records slow accesses.
        view = exp.top_down(MetricKind.LATENCY)
        assert all(a.value > 0 for v in view.variables for a in v.accesses)


# ------------------------------------------------------------ derived metrics


class TestDerivedMetrics:
    def _profiled_run(self, compute_per_access: int):
        mini = MiniProgram()
        profiler = DataCentricProfiler(mini.process).attach()
        mini.process.pmu = IBSEngine(period=16, seed=13)
        ctx = mini.master_ctx()
        arr = ctx.alloc_array("data", (16384,), line=20)
        ip = ctx.ip(10)

        def kern():
            for i in range(4000):
                ctx.load_ip(arr.flat_addr((i * 128) % arr.size), ip)
                ctx.compute(compute_per_access)
                if i % 32 == 0:
                    yield

        mini.process.run_serial(kern())
        exp = Analyzer("d").add(profiler.finalize()).analyze()
        return mini, exp

    def test_memory_bound_detected(self):
        _, exp = self._profiled_run(compute_per_access=2)
        rep = derive_from_profile(exp)
        assert rep.memory_bound
        assert rep.samples > 0
        assert "bound" in rep.verdict()

    def test_compute_bound_detected(self):
        _, exp = self._profiled_run(compute_per_access=3000)
        rep = derive_from_profile(exp)
        assert not rep.memory_bound
        assert "compute-bound" in rep.verdict()

    def test_machine_counters_agree_with_profile(self):
        mini, exp = self._profiled_run(compute_per_access=2)
        rep_prof = derive_from_profile(exp)
        rep_mach = derive_from_machine(mini.machine, mini.process.elapsed_cycles)
        assert rep_prof.memory_bound == rep_mach.memory_bound
        # Both should agree there's no NUMA issue (single-thread, local).
        assert not rep_prof.numa_bound
        assert not rep_mach.numa_bound

    def test_fractions_bounded(self):
        mini, exp = self._profiled_run(compute_per_access=10)
        for rep in (derive_from_profile(exp),
                    derive_from_machine(mini.machine, mini.process.elapsed_cycles)):
            assert 0.0 <= rep.memory_cycle_fraction <= 1.0
            assert 0.0 <= rep.dram_intensity <= 1.0
            assert 0.0 <= rep.remote_intensity <= 1.0
            assert 0.0 <= rep.tlb_intensity <= 1.0


# -------------------------------------------------------------------- hpcview


class TestHpcviewCLI:
    @pytest.fixture()
    def saved_profile(self, tmp_path):
        mini = MiniProgram()
        profiler = DataCentricProfiler(mini.process).attach()
        mini.process.pmu = IBSEngine(period=8, seed=17)
        ctx = mini.master_ctx()
        arr = ctx.alloc_array("payload", (8192,), line=20)
        ip = ctx.ip(10)

        def kern():
            for i in range(3000):
                ctx.load_ip(arr.flat_addr((i * 64) % arr.size), ip)
                if i % 32 == 0:
                    yield

        mini.process.run_serial(kern())
        from repro.tools.hpcview import save_profile

        path = tmp_path / "rank0.rpdb"
        save_profile(profiler.finalize(), path)
        return str(path)

    def test_info(self, saved_profile, capsys):
        from repro.tools.hpcview import main

        assert main(["info", saved_profile]) == 0
        out = capsys.readouterr().out
        assert "cct nodes" in out

    def test_top_and_table(self, saved_profile, capsys):
        from repro.tools.hpcview import main

        main(["top", saved_profile, "--metric", "latency", "-n", "3"])
        out = capsys.readouterr().out
        assert "payload" in out
        main(["table", saved_profile, "--metric", "samples"])
        assert "payload" in capsys.readouterr().out

    def test_bottom(self, saved_profile, capsys):
        from repro.tools.hpcview import main

        main(["bottom", saved_profile, "--metric", "samples"])
        assert "alloc site" in capsys.readouterr().out

    def test_advise(self, saved_profile, capsys):
        from repro.tools.hpcview import main

        main(["advise", saved_profile, "--metric", "latency"])
        out = capsys.readouterr().out
        assert "triage:" in out

    def test_merge_roundtrip(self, saved_profile, tmp_path, capsys):
        from repro.tools.hpcview import main

        out_path = tmp_path / "job.rpdb"
        main(["merge", saved_profile, saved_profile_copy(saved_profile, tmp_path),
              "-o", str(out_path)])
        assert out_path.exists()
        main(["table", str(out_path), "--metric", "samples"])
        assert "payload" in capsys.readouterr().out

    def test_unknown_metric_rejected(self, saved_profile):
        from repro.tools.hpcview import main

        with pytest.raises(SystemExit):
            main(["top", saved_profile, "--metric", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["info", "{p}", "--metric", "latency"],
        ["info", "{p}", "-n", "3"],
        ["merge", "{p}", "-o", "{out}", "--metric", "latency"],
        ["merge", "{p}", "-o", "{out}", "-n", "3"],
    ])
    def test_unranked_views_reject_ranking_flags(self, saved_profile, tmp_path, capsys, argv):
        from repro.tools.hpcview import main

        args = [a.format(p=saved_profile, out=tmp_path / "job.rpdb") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "job.rpdb").exists()

    @pytest.mark.parametrize("view", ["info", "top", "table", "bottom", "advise", "topdown"])
    @pytest.mark.parametrize("defect", ["missing", "corrupt"])
    def test_bad_input_is_one_line_not_a_traceback(self, saved_profile, tmp_path, view, defect):
        from repro.tools.hpcview import main

        bad = tmp_path / "bad.rpdb"
        if defect == "corrupt":
            bad.write_bytes(b"RPDB\x02\x00garbage")
        with pytest.raises(SystemExit) as exc:
            main([view, saved_profile, str(bad)])
        message = str(exc.value.code)
        assert message.startswith(f"{bad}: ") and "\n" not in message
        assert ("No such file" in message) if defect == "missing" else ("profile" in message)


def saved_profile_copy(path: str, tmp_path) -> str:
    import shutil

    copy = tmp_path / "rank1.rpdb"
    shutil.copy(path, copy)
    # Rename the process inside so the merge sees two distinct ranks.
    from repro.core.profiledb import ProfileDB

    db = ProfileDB.from_bytes(copy.read_bytes())
    renamed = ProfileDB("rank1")
    for profile in db.all_profiles():
        clone = profile.clone()
        clone.thread_name = f"rank1.{profile.thread_name}"
        renamed.add_thread(clone)
    copy.write_bytes(renamed.to_bytes())
    return str(copy)
