"""PMU engines: IBS, marked events, EBS skid."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.machine.hierarchy import LVL_L1, LVL_LMEM, LVL_RMEM
from repro.pmu.ebs import EBSEngine
from repro.pmu.events import (
    EVENT_PREDICATES,
    PM_MRK_DATA_FROM_L3,
    PM_MRK_DATA_FROM_RMEM,
    PM_MRK_DTLB_MISS,
)
from repro.pmu.ibs import IBSEngine
from repro.pmu.marked import MarkedEventEngine
from repro.pmu.sample import Sample
from repro.sim.hook import Hook


class _Recorder(Hook):
    """Minimal profiler hook capturing delivered samples."""

    def __init__(self):
        self.samples: list[Sample] = []

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

    @property
    def recorder(self):
        return self.hooks[0]


def _feed_mem(engine, process, thread, n, level=LVL_LMEM, latency=100, tlb=False):
    for i in range(n):
        engine.note_mem(process, thread, ip=0x1000 + i, ea=0x8000 + 8 * i,
                        latency=latency, level=level, tlb_miss=tlb, is_store=False)


class TestIBS:
    def test_sampling_rate_close_to_period(self):
        engine = IBSEngine(period=64, seed=1)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 6400)
        taken = len(p.recorder.samples)
        assert 70 <= taken <= 130  # ~100 expected

    def test_sample_fields_precise(self):
        engine = IBSEngine(period=8, seed=2)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 100, level=LVL_RMEM, latency=321, tlb=True)
        s = p.recorder.samples[0]
        assert s.ea is not None
        assert s.precise_ip == s.interrupt_ip
        assert s.latency == 321
        assert s.level == LVL_RMEM
        assert s.tlb_miss
        assert s.is_memory
        assert s.period == 8
        assert s.level_name == "RMEM"

    def test_compute_only_yields_nonmem_samples(self, mini):
        engine = IBSEngine(period=16, seed=3)
        p = mini.process
        rec = _Recorder()
        p.attach(rec)
        assert p.hooks == (rec,)
        ctx = mini.master_ctx()
        for _ in range(40):
            engine.note_compute(p, ctx.thread, 10)
        assert rec.samples
        assert all(not s.is_memory for s in rec.samples)
        assert all(s.level_name == "NONE" for s in rec.samples)

    def test_jitter_varies_gaps(self):
        engine = IBSEngine(period=64, seed=4, jitter=0.25)
        p, t = _FakeProcess(), _FakeThread()
        positions = []

        class Pos(Hook):
            def on_sample(self, process, thread, sample):
                positions.append(sample.precise_ip)

        p.hooks = (Pos(),)
        _feed_mem(engine, p, t, 10_000)
        gaps = {b - a for a, b in zip(positions, positions[1:])}
        assert len(gaps) > 3  # not a fixed stride

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigError):
            IBSEngine(period=0)

    def test_counts(self):
        engine = IBSEngine(period=4, seed=5)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 100)
        assert engine.samples_taken == len(p.recorder.samples)
        assert engine.mem_samples == engine.samples_taken


class TestMarked:
    def test_only_matching_events_counted(self):
        engine = MarkedEventEngine(PM_MRK_DATA_FROM_RMEM, period=4, seed=1)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 1000, level=LVL_L1)
        assert p.recorder.samples == []
        assert engine.events_counted == 0
        _feed_mem(engine, p, t, 100, level=LVL_RMEM)
        assert engine.events_counted == 100
        assert len(p.recorder.samples) >= 15

    def test_sampled_access_matches_event(self):
        engine = MarkedEventEngine(PM_MRK_DATA_FROM_L3, period=2, seed=2)
        p, t = _FakeProcess(), _FakeThread()
        from repro.machine.hierarchy import LVL_L3

        _feed_mem(engine, p, t, 50, level=LVL_L3)
        assert p.recorder.samples
        assert all(s.level_name == "L3" for s in p.recorder.samples)
        assert all(s.event == PM_MRK_DATA_FROM_L3 for s in p.recorder.samples)

    def test_tlb_event(self):
        engine = MarkedEventEngine(PM_MRK_DTLB_MISS, period=2, seed=3)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 50, tlb=False)
        assert not p.recorder.samples
        _feed_mem(engine, p, t, 50, tlb=True)
        assert p.recorder.samples

    def test_compute_never_triggers(self):
        engine = MarkedEventEngine(PM_MRK_DATA_FROM_RMEM, period=1, seed=4)
        p, t = _FakeProcess(), _FakeThread()
        for _ in range(100):
            engine.note_compute(p, t, 50)
        assert not p.recorder.samples

    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigError):
            MarkedEventEngine("PM_MRK_NO_SUCH_EVENT")

    def test_predicates_table(self):
        pred = EVENT_PREDICATES[PM_MRK_DATA_FROM_RMEM]
        assert pred(LVL_RMEM, 0, False)
        assert not pred(LVL_LMEM, 0, False)


class TestEBSSkid:
    def test_interrupt_ip_skids_downstream(self):
        engine = EBSEngine(period=10, skid=3, seed=1)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 200)
        assert p.recorder.samples
        for s in p.recorder.samples:
            # Interrupt lands `skid` memory ops later: IPs step by 1 here.
            assert s.interrupt_ip == s.precise_ip + 3

    def test_precise_fields_describe_triggering_op(self):
        engine = EBSEngine(period=5, skid=2, seed=2)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 100, level=LVL_RMEM, latency=777)
        s = p.recorder.samples[0]
        assert s.latency == 777
        assert s.level == LVL_RMEM
        # EA corresponds to the precise op, not the interrupt op.
        assert s.ea == 0x8000 + 8 * (s.precise_ip - 0x1000)

    def test_zero_skid_equals_precise(self):
        engine = EBSEngine(period=7, skid=0, seed=3)
        p, t = _FakeProcess(), _FakeThread()
        _feed_mem(engine, p, t, 100)
        assert p.recorder.samples
        assert all(s.interrupt_ip == s.precise_ip for s in p.recorder.samples)

    def test_pending_sample_not_lost_with_compute_ops(self, mini):
        engine = EBSEngine(period=4, skid=5, seed=4)
        p = mini.process
        rec = _Recorder()
        p.attach(rec)
        assert p.hooks == (rec,)
        ctx = mini.master_ctx()
        t = ctx.thread
        # Trigger on memory ops, then only compute ops retire.
        for i in range(8):
            engine.note_mem(p, t, 0x1000 + i, 0x8000, 100, LVL_LMEM, False, False)
        engine.note_compute(p, t, 50)
        assert rec.samples  # delivered despite no further memory ops

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            EBSEngine(period=0)
        with pytest.raises(ConfigError):
            EBSEngine(skid=-1)
