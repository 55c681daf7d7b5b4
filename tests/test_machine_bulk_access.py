"""Differential harness: the batched access path vs. the scalar path.

``MemoryHierarchy.access_run`` / ``Ctx.load_run`` / ``Ctx.store_run``
claim *bit-identical* results to the equivalent sequence of scalar
``access`` / ``load_ip`` / ``store_ip`` calls: same per-access
``(latency, level, tlb_miss)`` stream, same final level counts and
hit/miss counters, same contention charges, same PMU sample streams.
These tests run both paths on twin machines/processes built identically
and compare everything observable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Ctx, DataCentricProfiler, SimProcess, tiny_machine
from repro.util.rng import DeterministicRNG
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.presets import Machine, amd_magnycours_spec, tiny_spec
from repro.machine.policies import Interleave
from repro.pmu.ebs import EBSEngine
from repro.pmu.ibs import IBSEngine
from repro.sim.hook import Hook
from tests.conftest import MiniProgram

# ---------------------------------------------------------------------------
# state comparison


def hierarchy_state(h: MemoryHierarchy) -> dict:
    """Everything observable about a hierarchy's accumulated state."""
    return {
        "level_counts": list(h.level_counts),
        "loads": h.load_count,
        "stores": h.store_count,
        "prefetch_hits": h.prefetch_hits,
        "tlb": [(t.hits, t.misses) for t in h.tlb],
        "l1": [(c.hits, c.misses, c.resident_lines()) for c in h.l1],
        "l2": [(c.hits, c.misses, c.resident_lines()) for c in h.l2],
        "l3": [(c.hits, c.misses, c.resident_lines()) for c in h.l3],
        "streams": [list(s) for s in h._streams],
        "stream_rr": list(h._stream_rr),
        "dram": list(h.memmgr.dram_accesses),
        "remote_dram": list(h.memmgr.remote_dram_accesses),
        "queue_cycles": h.contention.total_queue_cycles,
        "window_counts": [h.contention.window_load(n) for n in range(h.contention.n_nodes)],
        "stats": h.stats(),
    }


def scalar_replay(h: MemoryHierarchy, runs) -> list:
    """Drive each run through the scalar path; return the result stream."""
    out = []
    for hw_tid, base, stride, count, home, is_store in runs:
        vaddr = base
        for _ in range(count):
            out.append(h.access(hw_tid, vaddr, home, is_store))
            vaddr += stride
    return out


def batched_replay(h: MemoryHierarchy, runs) -> list:
    out: list = []
    for hw_tid, base, stride, count, home, is_store in runs:
        h.access_run(hw_tid, base, stride, count, home, is_store, record=out)
    return out


def assert_equivalent(runs, prefetch: bool, preset=tiny_spec) -> None:
    spec = replace(preset(), prefetch=prefetch)
    a = Machine(spec).hierarchy
    stream_a = scalar_replay(a, runs)
    b = Machine(spec).hierarchy
    stream_b = batched_replay(b, runs)
    assert stream_a == stream_b
    assert hierarchy_state(a) == hierarchy_state(b)
    # access_run's return value is the run-total latency.
    c = Machine(spec).hierarchy
    total = sum(lat for lat, _, _ in stream_a)
    assert sum(c.access_run(*run[:5], run[5]) for run in runs) == total


# ---------------------------------------------------------------------------
# hierarchy-level equivalence

run_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),                    # hw_tid (tiny: 4)
    st.integers(min_value=-5000, max_value=1 << 20),          # base (incl. page -1)
    st.sampled_from([0, 1, 3, 4, 8, 16, 64, 100, 256, 4096, 4104,
                     -1, -3, -8, -64, -100, -4096, -4104]),
    st.integers(min_value=0, max_value=200),                  # count
    st.integers(min_value=0, max_value=1),                    # home node
    st.booleans(),                                            # is_store
)

PAGE = 4096


@st.composite
def run_program(draw):
    """Runs that re-sweep a few shared regions from page-straddling bases.

    ``run_strategy`` draws independent random bases, so it rarely sweeps
    a region that is still resident; re-sweeping one is what drives the
    all-hit (hot) regime and LRU promotion order.
    """
    regions = draw(
        st.lists(
            st.integers(min_value=-PAGE, max_value=1 << 18),
            min_size=1, max_size=3,
        )
    )
    n_runs = draw(st.integers(min_value=1, max_value=6))
    runs = []
    for _ in range(n_runs):
        region = draw(st.sampled_from(regions))
        offset = draw(st.sampled_from([0, 1, 7, PAGE - 1, PAGE - 8, PAGE + 3]))
        stride = draw(
            st.sampled_from(
                [1, 3, 4, 8, 16, 64, 100, 256, 640, PAGE, PAGE + 8,
                 -1, -3, -8, -64, -100, -PAGE, -(PAGE + 8)]
            )
        )
        count = draw(st.integers(min_value=1, max_value=400))
        base = region + offset
        if stride < 0:
            base += count * -stride  # walk down through the region
        runs.append(
            (
                draw(st.integers(min_value=0, max_value=3)),  # hw_tid
                base,
                stride,
                count,
                draw(st.integers(min_value=0, max_value=1)),  # home
                draw(st.booleans()),                          # is_store
            )
        )
    return runs


# Adversarial run lists: cache/TLB/prefetcher states a random base
# rarely reaches.  Each entry is (hw_tid, base, stride, count, home, is_store).
REGIME_EDGES = {
    # Re-sweeps of an L1-resident region (8 lines fit the tiny L1): all
    # hits, LRU promotion order must match per-access promotes.
    "hot_resweep": [
        (0, 0x10000, 8, 64, 0, False),
        (0, 0x10000, 8, 64, 0, False),
        (0, 0x10000, 8, 64, 0, True),
    ],
    # A unit-line sweep seeds a stream at expected-next-miss; the second
    # sweep's range contains that stream value mid-run.
    "pf_chain": [
        (0, 0x40000, 64, 10, 0, False),
        (0, 0x40000 + 64 * 5, 64, 20, 0, False),
    ],
    # Page transitions walk downward: TLB install order and walk charges.
    "desc_tlb": [(0, 6 * PAGE + 11, -8, 5 * PAGE // 8, 0, False)],
    # stride % page == 0: every access is a page transition.
    "page_mult": [
        (0, 0x100000, PAGE, 120, 0, False),
        (0, 0x100000 + 64, 2 * PAGE, 60, 0, True),
        (0, 0x100000 + 120 * PAGE, -PAGE, 120, 0, False),
    ],
    # 12 lines: larger than the tiny L1 (8), L2-resident (16), so the
    # re-sweep mixes L1 misses with L2 hits.
    "l2_resweep": [
        (0, 0x20000, 64, 12, 0, False),
        (0, 0x20000, 64, 12, 0, False),
    ],
    # Sub-line strides repeat each line; one run straddles a page start,
    # the other begins on page -1.
    "subline_pm1": [
        (0, PAGE - 9, 3, 500, 0, False),
        (1, -7, 5, 300, 1, True),
    ],
    # A second core sweeps the region the first left in the shared L3.
    "threads_l3": [
        (0, 0x80000, 64, 100, 0, False),
        (2, 0x80000, 64, 100, 0, False),
        (0, 0x80000, 64, 100, 0, False),
    ],
}


class TestHierarchyDifferential:
    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(run_strategy, min_size=1, max_size=8), prefetch=st.booleans())
    def test_random_runs_bit_identical(self, runs, prefetch):
        assert_equivalent(runs, prefetch)

    @settings(max_examples=80, deadline=None)
    @given(runs=run_program(), prefetch=st.booleans())
    def test_region_reuse_stats_and_cycles_bit_identical(self, runs, prefetch):
        # No record list: the run-total latencies and final state alone.
        spec = replace(tiny_spec(), prefetch=prefetch)
        a = Machine(spec).hierarchy
        b = Machine(spec).hierarchy
        total_a = sum(lat for lat, _, _ in scalar_replay(a, runs))
        total_b = sum(b.access_run(*run[:5], run[5]) for run in runs)
        assert total_a == total_b
        assert a.stats() == b.stats()
        assert hierarchy_state(a) == hierarchy_state(b)

    @settings(max_examples=40, deadline=None)
    @given(runs=run_program())
    def test_region_reuse_records_bit_identical(self, runs):
        assert_equivalent(runs, True)

    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("case", sorted(REGIME_EDGES))
    def test_regime_edges(self, case, prefetch):
        assert_equivalent(REGIME_EDGES[case], prefetch)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_magnycours_preset_parity(self, prefetch):
        # The bench machine (48 cores, 8 NUMA nodes), mid-size runs.
        runs = [
            (0, 1 << 30, 8, 3000, 0, False),
            (1, (1 << 30) + 64, 64, 1500, 1, True),
            (0, 1 << 30, 8, 3000, 0, False),
            (3, (1 << 30) + 9 * PAGE, -8, 2000, 0, False),
        ]
        assert_equivalent(runs, prefetch, preset=amd_magnycours_spec)

    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("stride", [1, 8, 64, 72, 1024, 4096, 4100, -8, -4096])
    def test_strides_crossing_pages(self, stride, prefetch):
        # 600 accesses at |stride| up to a page: crosses many pages and
        # wraps cache sets several times.
        base = 1 << 21 if stride > 0 else (1 << 21) + 600 * -stride
        assert_equivalent([(0, base, stride, 600, 0, False)], prefetch)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_load_store_mix_remote_home(self, prefetch):
        runs = [
            (0, 0x40000, 8, 300, 1, False),   # remote home for hw_tid 0
            (1, 0x40000, 8, 300, 0, True),
            (2, 0x80000, 64, 150, 1, True),
            (0, 0x40000, 16, 150, 1, False),  # partial reuse of warm lines
        ]
        assert_equivalent(runs, prefetch)

    def test_same_line_short_circuit_heavy(self):
        # stride 0 and sub-line strides maximize the repeat fast path.
        runs = [
            (0, 0x12345, 0, 400, 0, False),
            (0, 0x12345, 4, 400, 0, True),
            (1, 0x54321, 1, 300, 1, False),
        ]
        assert_equivalent(runs, True)

    def test_interleaved_with_scalar_calls(self):
        # Mixing scalar and batched calls on the same hierarchy keeps the
        # combined state identical to all-scalar.
        a = tiny_machine().hierarchy
        b = tiny_machine().hierarchy
        rng = DeterministicRNG(7)
        ops = []
        for _ in range(50):
            ops.append(
                (
                    rng.randint(0, 3),
                    rng.randint(0, (1 << 20) - 1),
                    (8, 64, 4096)[rng.randint(0, 2)],
                    rng.randint(1, 39),
                    rng.randint(0, 1),
                    rng.random() < 0.3,
                )
            )
        stream_a = scalar_replay(a, ops)
        stream_b: list = []
        for i, (hw_tid, base, stride, count, home, is_store) in enumerate(ops):
            if i % 2:
                b.access_run(hw_tid, base, stride, count, home, is_store, record=stream_b)
            else:
                vaddr = base
                for _ in range(count):
                    stream_b.append(b.access(hw_tid, vaddr, home, is_store))
                    vaddr += stride
        assert stream_a == stream_b
        assert hierarchy_state(a) == hierarchy_state(b)

    def test_contention_windows_rotate_identically(self):
        # With window rotation interleaved between runs, queue charges in
        # later windows depend on earlier traffic — still identical.
        a = tiny_machine().hierarchy
        b = tiny_machine().hierarchy
        runs = [(t, 0x100000 + t * 0x40000, 64, 200, 0, False) for t in range(4)]
        stream_a: list = []
        stream_b: list = []
        for run in runs:
            hw_tid, base, stride, count, home, is_store = run
            vaddr = base
            for _ in range(count):
                stream_a.append(a.access(hw_tid, vaddr, home, is_store))
                vaddr += stride
            a.new_window()
        for run in runs:
            b.access_run(*run[:5], run[5], record=stream_b)
            b.new_window()
        assert stream_a == stream_b
        assert hierarchy_state(a) == hierarchy_state(b)

    def test_zero_count_is_noop(self):
        h = tiny_machine().hierarchy
        before = hierarchy_state(h)
        assert h.access_run(0, 0x1000, 8, 0, 0) == 0
        assert hierarchy_state(h) == before


class TestDegenerateStrides:
    """Pinned divergences between the batched loop and the scalar oracle.

    The batched loop's same-page repeat skip used ``cur_page = -1`` as
    its "no page yet" sentinel, so a run whose *first* access really
    lives on page -1 (base in [-page_size, -1]) skipped the initial TLB
    lookup and probed the wrong line-residency state.  Fixed by a None
    sentinel (see ``MemoryHierarchy.access_run``); these tests
    keep it fixed, alongside the other degenerate shapes the audit
    covered (stride 0, negative strides, backwards page re-crossing).
    """

    @pytest.mark.parametrize("base", [-4096, -2048, -64, -1])
    @pytest.mark.parametrize("stride", [0, 1, 8])
    def test_first_access_on_page_minus_one(self, base, stride):
        # Page -1 is a real page: its first touch must miss the TLB and
        # install, exactly as the scalar loop does.
        assert_equivalent([(0, base, stride, 40, 0, False)], True)

    @pytest.mark.parametrize("stride", [-1, -3, -8, -64, -100, -4096, -4104])
    def test_negative_strides_cross_pages_backwards(self, stride):
        # Walk downward across several page boundaries, ending below 0.
        assert_equivalent([(0, 2 * 4096 + 17, stride, 150, 0, False)], True)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_backwards_page_recrossing(self, prefetch):
        # Forward over a page boundary, then back over the same boundary:
        # the repeat-skip must re-probe the TLB on each re-crossing, and
        # the prefetch streams seeded by the forward pass must interact
        # with the backward pass identically on both paths.
        runs = [
            (0, 4096 - 8 * 10, 8, 30, 0, False),    # cross page 0 -> 1
            (0, 4096 + 8 * 19, -8, 30, 0, False),   # re-cross 1 -> 0
            (0, 4096 - 64 * 3, 64, 9, 0, True),     # cross again, line stride
            (0, 4096 + 64 * 5, -64, 9, 0, True),
        ]
        assert_equivalent(runs, prefetch)

    def test_stride_zero_repeats_one_address(self):
        # stride 0 is one line, one page: a single lookup then repeat
        # credits, even at a negative base.
        runs = [
            (0, 0x3456, 0, 100, 0, False),
            (1, -100, 0, 100, 1, True),
            (0, 0x3456, 0, 50, 0, True),
        ]
        assert_equivalent(runs, True)


# ---------------------------------------------------------------------------
# Ctx-level equivalence (page chunking, first touch, PMU delivery)


class _SampleRecorder(Hook):
    """Hook capturing the full delivered sample stream."""

    def __init__(self):
        self.samples = []

    def on_sample(self, process, thread, sample):
        self.samples.append(
            (
                thread.name,
                sample.interrupt_ip,
                sample.precise_ip,
                sample.ea,
                sample.latency,
                sample.level,
                sample.tlb_miss,
                sample.is_store,
                sample.is_memory,
            )
        )


def _twin(pmu_factory=None, interleave=False):
    prog = MiniProgram()
    if interleave:
        nodes = list(range(prog.machine.n_numa_nodes))
        prog.process.aspace.set_default_policy(Interleave(nodes))
    rec = _SampleRecorder()
    prog.process.attach(rec)
    if pmu_factory is not None:
        prog.process.pmu = pmu_factory()
    ctx = prog.master_ctx()
    return prog, ctx, rec


def _thread_state(prog: MiniProgram) -> tuple:
    t = prog.process.master
    return (t.clock, t.inst_count, t.mem_count, t.pmu_countdown)


def _compare_ctx(scalar_ops, bulk_ops, pmu_factory=None, interleave=False):
    """Run two op scripts on twin processes and compare everything."""
    pa, ca, ra = _twin(pmu_factory, interleave)
    pb, cb, rb = _twin(pmu_factory, interleave)
    scalar_ops(ca)
    bulk_ops(cb)
    assert ra.samples == rb.samples
    assert _thread_state(pa) == _thread_state(pb)
    assert hierarchy_state(pa.machine.hierarchy) == hierarchy_state(pb.machine.hierarchy)
    assert pa.process.aspace.pages_by_node(
        pa.machine.n_numa_nodes
    ) == pb.process.aspace.pages_by_node(pb.machine.n_numa_nodes)


PMU_FACTORIES = {
    "none": None,
    "ibs": lambda: IBSEngine(period=16, seed=11),
    "ebs": lambda: EBSEngine(period=16, skid=4, seed=12),
}


class TestCtxDifferential:
    @pytest.mark.parametrize("pmu", sorted(PMU_FACTORIES))
    @pytest.mark.parametrize("interleave", [False, True])
    def test_load_run_page_crossing(self, pmu, interleave):
        # 3000 unit-stride loads cross ~6 pages; under Interleave each
        # page has a different home node, exercising per-page chunking
        # (and the same-home merge when placement is first-touch).
        def scalar(ctx: Ctx):
            a = ctx.alloc_array("A", (3000,), line=20)
            ip = ctx.ip(10)
            for i in range(3000):
                ctx.load_ip(a.flat_addr(i), ip)

        def bulk(ctx: Ctx):
            a = ctx.alloc_array("A", (3000,), line=20)
            ctx.load_run(*a.flat_run(), ctx.ip(10))

        _compare_ctx(scalar, bulk, PMU_FACTORIES[pmu], interleave)

    @pytest.mark.parametrize("pmu", sorted(PMU_FACTORIES))
    def test_store_run_strided(self, pmu):
        def scalar(ctx: Ctx):
            a = ctx.alloc_array("A", (256, 64), line=20)
            ip = ctx.ip(10)
            base, count, stride = a.axis_run(0, 0, 3)
            for k in range(count):
                ctx.store_ip(base + k * stride, ip)

        def bulk(ctx: Ctx):
            a = ctx.alloc_array("A", (256, 64), line=20)
            ctx.store_run(*a.axis_run(0, 0, 3), ctx.ip(10))

        _compare_ctx(scalar, bulk, PMU_FACTORIES[pmu])

    def test_mixed_loads_stores_with_profiler(self):
        # Full stack: profiler attached, EBS skid, heap + static accesses.
        def body(ctx: Ctx, bulk: bool):
            a = ctx.alloc_array("A", (1200,), line=20, kind="calloc")
            g = ctx.static_array(ctx.process.modules[0].statics[0], (512,))
            ip = ctx.ip(10)
            if bulk:
                ctx.load_run(*a.flat_run(), ip)
                ctx.store_run(*g.flat_run(0, 512), ip)
                ctx.load_run(*a.flat_run(100, 800), ip)
            else:
                for i in range(1200):
                    ctx.load_ip(a.flat_addr(i), ip)
                for i in range(512):
                    ctx.store_ip(g.flat_addr(i), ip)
                for i in range(100, 900):
                    ctx.load_ip(a.flat_addr(i), ip)

        def run(bulk: bool):
            prog = MiniProgram()
            profiler = DataCentricProfiler(prog.process).attach()
            rec = _SampleRecorder()
            prog.process.attach(rec)
            prog.process.pmu = EBSEngine(period=8, skid=3, seed=5)
            body(prog.master_ctx(), bulk)
            return rec.samples, _thread_state(prog), hierarchy_state(
                prog.machine.hierarchy
            ), profiler.stats.heap_samples, profiler.stats.static_samples

        assert run(False) == run(True)

    def test_stride_runs_delegate_to_bulk_path(self):
        # load_stride/store_stride keep their old scalar semantics.
        def scalar(ctx: Ctx):
            a = ctx.alloc_array("A", (2000,), line=20)
            ip = ctx.ip(10)
            for k in range(500):
                ctx.load_ip(a.base + k * 16, ip)
            for k in range(500):
                ctx.store_ip(a.base + k * 32, ip)

        def bulk(ctx: Ctx):
            a = ctx.alloc_array("A", (2000,), line=20)
            ip = ctx.ip(10)
            ctx.load_stride(a.base, 500, 16, ip)
            ctx.store_stride(a.base, 500, 32, ip)

        _compare_ctx(scalar, bulk, PMU_FACTORIES["ebs"])

    @pytest.mark.parametrize("nbytes", [1, 100, 4096, 4097, 50_000])
    def test_touch_range_matches_scalar_reference(self, nbytes):
        # touch_range now rides store_run; its store sequence must equal
        # the historical scalar loop (start, then each page boundary).
        def scalar(ctx: Ctx):
            addr = ctx.malloc(nbytes, 20)
            page = 1 << ctx.process.machine.spec.page_bits
            ip = ctx.ip(10)
            p = addr & ~(page - 1)
            end = addr + nbytes
            while p < end:
                ctx.store_ip(max(p, addr), ip)
                p += page

        def bulk(ctx: Ctx):
            addr = ctx.malloc(nbytes, 20)
            # touch_range computes the ip from a line; use line 10 to
            # match the reference loop's ip.
            ctx.touch_range(addr, nbytes, 10)

        _compare_ctx(scalar, bulk, PMU_FACTORIES["ebs"])

    def test_calloc_matches_scalar_reference(self):
        from repro.sim.runtime import CALLOC_LINE_COST

        def scalar(ctx: Ctx):
            addr = ctx.malloc(30_000, 20, kind="calloc")
            page = 1 << ctx.process.machine.spec.page_bits
            lines_per_page = page >> ctx.process.machine.hierarchy.line_bits
            ip = ctx.ip(20)
            p = addr & ~(page - 1)
            end = addr + 30_000
            while p < end:
                ctx.store_ip(max(p, addr), ip)
                ctx.thread.clock += (lines_per_page - 1) * CALLOC_LINE_COST
                p += page

        def bulk(ctx: Ctx):
            ctx.calloc(30_000, 20)

        _compare_ctx(scalar, bulk, PMU_FACTORIES["ebs"])

    def test_run_return_value_is_total_latency(self, mini):
        ctx = mini.master_ctx()
        a = ctx.alloc_array("A", (800,), line=20)
        before = ctx.thread.clock
        total = ctx.load_run(*a.flat_run(), ctx.ip(10))
        assert ctx.thread.clock - before == total
        assert total > 0

    def test_negative_count_is_noop(self, mini):
        ctx = mini.master_ctx()
        state = _thread_state(mini)
        assert ctx.load_run(0x5000, -3, 8, ctx.ip(10)) == 0
        assert ctx.store_run(0x5000, 0, 8, ctx.ip(10)) == 0
        assert _thread_state(mini) == state


# ---------------------------------------------------------------------------
# MachineStats / phase attribution parity (telemetry reads these snapshots)


class TestMachineStatsParity:
    """The batched path must leave every MachineStats field — including
    the per-phase attributed deltas that ``SimProcess.phase`` buckets and
    ``repro.obs`` exports as metrics — bit-identical to the scalar path."""

    def _run(self, bulk: bool):
        prog = MiniProgram()
        ctx = prog.master_ctx()
        with prog.process.phase("init"):
            a = ctx.alloc_array("A", (2048,), line=20)
            if bulk:
                ctx.store_run(*a.flat_run(), ctx.ip(10))
            else:
                ip = ctx.ip(10)
                for i in range(2048):
                    ctx.store_ip(a.flat_addr(i), ip)
        with prog.process.phase("solve"):
            if bulk:
                ctx.load_run(*a.flat_run(), ctx.ip(10))
                ctx.load_run(a.base, 512, 64, ctx.ip(10))
            else:
                ip = ctx.ip(10)
                for i in range(2048):
                    ctx.load_ip(a.flat_addr(i), ip)
                for k in range(512):
                    ctx.load_ip(a.base + k * 64, ip)
        return prog

    def test_snapshot_and_phase_stats_identical(self):
        scalar = self._run(bulk=False)
        batched = self._run(bulk=True)
        # Whole-run snapshot: every dataclass field, tuples included.
        assert (
            scalar.machine.hierarchy.stats() == batched.machine.hierarchy.stats()
        )
        assert (
            scalar.machine.hierarchy.stats().to_dict()
            == batched.machine.hierarchy.stats().to_dict()
        )
        # Per-phase attribution: same phases, same cycle and stats deltas.
        assert scalar.process.phase_cycles == batched.process.phase_cycles
        assert set(scalar.process.phase_stats) == {"init", "solve"}
        for name in scalar.process.phase_stats:
            assert (
                scalar.process.phase_stats[name]
                == batched.process.phase_stats[name]
            ), f"phase {name!r} stats diverge between scalar and batched paths"
        assert scalar.process.phase_access_rates() == pytest.approx(
            batched.process.phase_access_rates()
        )

    def test_phase_delta_sums_to_whole_run(self):
        prog = self._run(bulk=True)
        total = prog.machine.hierarchy.stats()
        summed = None
        for stats in prog.process.phase_stats.values():
            summed = stats if summed is None else summed + stats
        # Everything happened inside a phase, so the attributed deltas
        # must reconstruct the whole-run snapshot exactly.
        assert summed == total
