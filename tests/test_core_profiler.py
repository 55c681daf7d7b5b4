"""DataCentricProfiler: attribution, thresholds, trampoline, overhead."""

from __future__ import annotations

import pytest

from repro.core.cct import HEAP_MARKER_KEY, KIND_STATIC_VAR
from repro.core.metrics import MetricKind
from repro.core.profiler import DataCentricProfiler, ProfilerConfig
from repro.core.storage import StorageClass
from repro.core.trampoline import TrampolineUnwinder
from repro.errors import ProfileError
from repro.pmu.ibs import IBSEngine
from tests.conftest import MiniProgram


def _run_loads(mini, addrs, line=10, yield_every=32):
    ctx = mini.master_ctx()
    ip = ctx.ip(line)

    def kern():
        for i, a in enumerate(addrs):
            ctx.load_ip(a, ip)
            if i % yield_every == 0:
                yield

    mini.process.run_serial(kern())
    return ctx


class TestAttribution:
    def test_heap_sample_under_alloc_path_and_marker(self, profiled_mini):
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=1)
        ctx = mini.master_ctx()
        arr = ctx.alloc_array("buf", (8192,), line=20, elem=8)
        _run_loads(mini, [arr.flat_addr(i % arr.size) for i in range(2000)])
        db = profiler.finalize()
        heap = db.threads[mini.process.master.name].cct(StorageClass.HEAP)
        markers = heap.root.find(lambda n: n.key == HEAP_MARKER_KEY)
        assert len(markers) == 1
        assert markers[0].inclusive().samples > 0
        assert profiler.stats.heap_samples > 0

    def test_static_sample_under_variable_dummy_node(self, profiled_mini):
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=2)
        base = mini.bss.address
        _run_loads(mini, [base + (i * 8) % mini.bss.size for i in range(2000)])
        db = profiler.finalize()
        static = db.threads[mini.process.master.name].cct(StorageClass.STATIC)
        var_nodes = static.root.find(lambda n: n.key[0] == KIND_STATIC_VAR)
        assert [n.key[2] for n in var_nodes] == ["g_table"]
        assert var_nodes[0].inclusive().samples == profiler.stats.static_samples > 0

    def test_stack_data_is_unknown(self, profiled_mini):
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=3)
        sp = mini.process.master.stack_alloc(1 << 14)
        _run_loads(mini, [sp + (i * 8) % (1 << 14) for i in range(2000)])
        assert profiler.stats.unknown_samples > 0
        assert profiler.stats.heap_samples == 0

    def test_small_alloc_samples_fall_to_unknown(self, profiled_mini):
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=4)
        ctx = mini.master_ctx()
        addr = ctx.malloc(512, line=20)  # below 4K threshold
        _run_loads(mini, [addr + (i * 8) % 512 for i in range(2000)])
        assert profiler.stats.allocs_skipped_small == 1
        assert profiler.stats.heap_samples == 0
        assert profiler.stats.unknown_samples > 0

    def test_threshold_zero_tracks_small_allocs(self):
        mini = MiniProgram()
        profiler = DataCentricProfiler(
            mini.process, ProfilerConfig(track_threshold=0)
        ).attach()
        mini.process.pmu = IBSEngine(period=8, seed=5)
        ctx = mini.master_ctx()
        addr = ctx.malloc(512, line=20)
        _run_loads(mini, [addr + (i * 8) % 512 for i in range(1000)])
        assert profiler.stats.allocs_tracked == 1
        assert profiler.stats.heap_samples > 0

    def test_free_then_realloc_not_misattributed(self, profiled_mini):
        """Address reuse after free must attribute to the new variable."""
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=6)
        ctx = mini.master_ctx()
        a = ctx.alloc_array("first", (8192,), line=20)
        ctx.free(a.base, line=21)
        b = ctx.alloc_array("second", (8192,), line=22)
        assert b.base == a.base  # first-fit reuse
        _run_loads(mini, [b.flat_addr(i % b.size) for i in range(2000)])
        view_vars = {
            v.site_label
            for v in [profiler.heap_map.lookup(b.base)]
        }
        assert view_vars == {"second"}

    def test_small_alloc_free_does_not_leak_map(self, profiled_mini):
        mini, profiler = profiled_mini
        ctx = mini.master_ctx()
        addr = ctx.malloc(256, line=20)
        ctx.free(addr, line=21)
        # A tracked allocation can now reuse the address cleanly.
        big = ctx.malloc(8192, line=22)
        assert profiler.heap_map.lookup(big) is not None

    def test_free_of_untracked_raises(self, profiled_mini):
        mini, profiler = profiled_mini
        with pytest.raises(ProfileError):
            profiler.heap_map.untrack(0x123456)

    def test_nonmem_samples_in_own_cct(self, profiled_mini):
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=16, seed=7)
        ctx = mini.master_ctx()

        def kern():
            for _ in range(100):
                ctx.compute(10)
                yield

        mini.process.run_serial(kern())
        db = profiler.finalize()
        profile = db.threads[mini.process.master.name]
        assert profile.has_cct(StorageClass.NONMEM)
        assert profile.cct(StorageClass.NONMEM).total(MetricKind.SAMPLES) > 0

    def test_alloc_var_hint_recorded(self, profiled_mini):
        mini, profiler = profiled_mini
        ctx = mini.master_ctx()
        arr = ctx.alloc_array("S_diag_j", (8192,), line=20, kind="calloc")
        var = profiler.heap_map.lookup(arr.base)
        assert var.site_label == "S_diag_j"
        leaf_key, leaf_info = var.alloc_path[-1]
        assert leaf_info["var"] == "S_diag_j"
        assert leaf_info["alloc_kind"] == "calloc"

    def test_alloc_path_contains_call_chain(self, profiled_mini):
        mini, profiler = profiled_mini
        ctx = mini.master_ctx()

        def shim(c, n):
            return c.malloc(n, line=210)

        addr = ctx.call_sync(mini.alloc_shim, 20, shim, 8192)
        var = profiler.heap_map.lookup(addr)
        names = [key[1] for key, _ in var.alloc_path if key[0] == "frame"]
        assert names == ["main", "alloc_shim"]


class TestAllocMerging:
    def test_same_callsite_allocations_merge_into_one_variable(self, profiled_mini):
        """Paper Figure 2: 100 allocations in a loop = one logical variable."""
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=8)
        ctx = mini.master_ctx()
        arrays = [ctx.alloc_array("v", (1024,), line=20) for _ in range(20)]
        addrs = []
        for i in range(4000):
            arr = arrays[i % len(arrays)]
            addrs.append(arr.flat_addr(i % arr.size))
        _run_loads(mini, addrs)
        db = profiler.finalize()
        heap = db.threads[mini.process.master.name].cct(StorageClass.HEAP)
        markers = heap.root.find(lambda n: n.key == HEAP_MARKER_KEY)
        assert len(markers) == 1  # coalesced online by allocation path

    def test_different_callsites_stay_separate(self, profiled_mini):
        mini, profiler = profiled_mini
        mini.process.pmu = IBSEngine(period=8, seed=9)
        ctx = mini.master_ctx()
        a = ctx.alloc_array("a", (2048,), line=20)
        b = ctx.alloc_array("b", (2048,), line=21)
        addrs = []
        for i in range(4000):
            arr = a if i % 2 else b
            addrs.append(arr.flat_addr(i % arr.size))
        _run_loads(mini, addrs)
        db = profiler.finalize()
        heap = db.threads[mini.process.master.name].cct(StorageClass.HEAP)
        markers = heap.root.find(lambda n: n.key == HEAP_MARKER_KEY)
        assert len(markers) == 2


class TestTrampoline:
    def test_adjacent_allocs_reuse_prefix(self, mini):
        tramp = TrampolineUnwinder()
        ctx = mini.master_ctx()
        th = ctx.thread
        th.push_frame(mini.work, mini.main.ip(10))
        entries1, unwound1 = tramp.unwind(th)
        assert unwound1 == 2
        entries2, unwound2 = tramp.unwind(th)
        assert unwound2 == 0
        assert entries2 == entries1

    def test_lca_after_partial_pop(self, mini):
        tramp = TrampolineUnwinder()
        ctx = mini.master_ctx()
        th = ctx.thread
        th.push_frame(mini.work, mini.main.ip(10))
        tramp.unwind(th)
        th.pop_frame()
        th.push_frame(mini.work, mini.main.ip(11))
        _, unwound = tramp.unwind(th)
        assert unwound == 1  # only the new frame above the common 'main'

    def test_reentered_same_function_is_new_frame(self, mini):
        tramp = TrampolineUnwinder()
        ctx = mini.master_ctx()
        th = ctx.thread
        th.push_frame(mini.work, mini.main.ip(10))
        tramp.unwind(th)
        th.pop_frame()
        th.push_frame(mini.work, mini.main.ip(10))  # same site, new frame
        _, unwound = tramp.unwind(th)
        assert unwound == 1

    def test_invalidate(self, mini):
        tramp = TrampolineUnwinder()
        ctx = mini.master_ctx()
        tramp.unwind(ctx.thread)
        tramp.invalidate()
        _, unwound = tramp.unwind(ctx.thread)
        assert unwound == 1


class TestOverhead:
    def _alloc_heavy(self, config):
        mini = MiniProgram()
        profiler = DataCentricProfiler(mini.process, config).attach()
        ctx = mini.master_ctx()

        def kern():
            blocks = []
            for i in range(300):
                blocks.append(ctx.malloc(8192, line=20))
                if len(blocks) > 8:
                    ctx.free(blocks.pop(0), line=21)
                yield

        mini.process.run_serial(kern())
        return profiler.stats.overhead_cycles

    def test_threshold_reduces_overhead(self):
        tracked = self._alloc_heavy(ProfilerConfig(track_threshold=0))
        skipped = self._alloc_heavy(ProfilerConfig(track_threshold=16384))
        assert skipped < tracked

    def test_fast_context_reduces_overhead(self):
        slow = self._alloc_heavy(ProfilerConfig(fast_context=False, use_trampoline=False))
        fast = self._alloc_heavy(ProfilerConfig(fast_context=True, use_trampoline=False))
        assert fast < slow

    def test_trampoline_reduces_overhead(self):
        off = self._alloc_heavy(ProfilerConfig(use_trampoline=False))
        on = self._alloc_heavy(ProfilerConfig(use_trampoline=True))
        assert on < off

    def test_charge_overhead_flag(self):
        mini_on = MiniProgram()
        prof_on = DataCentricProfiler(
            mini_on.process, ProfilerConfig(charge_overhead=True)
        ).attach()
        mini_off = MiniProgram()
        prof_off = DataCentricProfiler(
            mini_off.process, ProfilerConfig(charge_overhead=False)
        ).attach()
        for m in (mini_on, mini_off):
            ctx = m.master_ctx()
            ctx.malloc(8192, line=20)
        assert prof_on.stats.overhead_cycles == prof_off.stats.overhead_cycles
        assert mini_on.process.master.clock > mini_off.process.master.clock


class TestLifecycle:
    def test_attach_idempotent(self, mini):
        profiler = DataCentricProfiler(mini.process)
        profiler.attach()
        profiler.attach()
        assert mini.process.hooks.count(profiler) == 1

    def test_detach_stops_observation(self, mini):
        profiler = DataCentricProfiler(mini.process).attach()
        profiler.detach()
        ctx = mini.master_ctx()
        ctx.malloc(8192, line=20)
        assert profiler.stats.allocs_seen == 0

    def test_module_loaded_after_attach_is_tracked(self, mini):
        from repro.sim.loader import LoadModule
        from repro.sim.source import SourceFile

        profiler = DataCentricProfiler(mini.process).attach()
        lib = LoadModule("liblate.so")
        src = SourceFile("late.c")
        var = lib.add_static("late_var", 4096, src, 1)
        mini.process.load_module(lib)
        assert profiler.static_map.lookup(var.address) is var

    def test_module_unload_removes_statics(self, mini):
        profiler = DataCentricProfiler(mini.process).attach()
        addr = mini.bss.address
        assert profiler.static_map.lookup(addr) is mini.bss
        mini.process.unload_module(mini.exe)
        assert profiler.static_map.lookup(addr) is None

    def test_reattach_maps_modules_changed_while_detached(self, mini):
        from repro.pmu.sample import Sample
        from repro.sim.loader import LoadModule
        from repro.sim.source import SourceFile

        gone = LoadModule("libgone.so")
        gone_var = gone.add_static("gone_var", 4096, SourceFile("gone.c"), 1)
        gone_fn = gone.add_function("gone_kernel", SourceFile("gone.c"), 10, 20)
        mini.process.load_module(gone)
        profiler = DataCentricProfiler(mini.process).attach()
        thread = mini.process.master
        mini.master_ctx()   # enter main: samples need a call stack
        gone_ip = gone_fn.ip(12)
        gone_addr = gone_var.address
        sample = Sample("T", gone_ip, gone_ip, 0x10, 10, 3, False, False, 1)
        profiler.on_sample(mini.process, thread, sample)   # memoizes the leaf
        profiler.detach()

        late = LoadModule("liblate.so")
        late_var = late.add_static("late_var", 4096, SourceFile("late.c"), 1)
        mini.process.load_module(late)   # loaded while detached
        mini.process.unload_module(gone)   # unloaded while detached
        profiler.attach()

        assert profiler.static_map.n_modules == 2
        assert profiler.static_map.lookup(mini.bss.address) is mini.bss
        assert profiler.static_map.lookup(late_var.address) is late_var
        assert profiler.static_map.lookup(gone_addr) is None
        with pytest.raises(ProfileError):   # the stale leaf memo is gone
            profiler.on_sample(mini.process, thread, sample)
