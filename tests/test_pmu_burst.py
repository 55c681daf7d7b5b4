"""IBS burst delivery: one weighted hook call per compute block.

``IBSEngine.note_compute`` draws every period a compute block crosses,
then hands the block's k identical non-memory samples to each hook at
once, in one ``on_samples(process, thread, sample, k)`` call; a hook
that overrides only ``on_sample`` inherits the ``Hook`` default, k
``on_sample`` calls.  Two halves pin it:

- every built-in hook's ``on_samples(k)`` leaves exactly the state k
  ``on_sample`` calls leave;
- the engine, differentially against the one-sample-at-a-time copy in
  ``tests/ibs_oracle.py``, on random mixed ``note_mem``/``note_compute``
  streams: same RNG state, countdowns and counters, the same sample
  sequence at a hook that overrides only ``on_sample``, and the same
  profile bytes, profiler stats and thread clocks with
  ``DataCentricProfiler`` attached.

Only non-raising hooks are covered: a hook that raises mid-burst leaves
the countdown past the whole block, where the oracle stops at the
failing sample (the exception ends the rank either way).
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataCentricProfiler
from repro.core.baselines import CodeCentricProfiler, TracingProfiler
from repro.core.profiler import ProfilerConfig
from repro.core.storage import StorageClass
from repro.machine.hierarchy import LVL_L3, LVL_RMEM
from repro.obs import ObsSession
from repro.pmu.events import IBS_EVENT
from repro.pmu.ibs import IBSEngine
from repro.pmu.sample import Sample
from repro.sanitize.sanitizer import Sanitizer, SanitizerConfig
from repro.sim.hook import Hook
from tests.conftest import MiniProgram
from tests.ibs_oracle import oracle_note_compute

# ------------------------------------------------------------ hook parity


def _deep_stack(prog: MiniProgram):
    """main -> work -> alloc_shim on the master thread."""
    thread = prog.process.master
    thread.push_frame(prog.main, 0)
    thread.push_frame(prog.work, prog.main.ip(10))
    thread.push_frame(prog.alloc_shim, prog.work.ip(110))
    return thread


def _data_centric(charge: bool):
    def make(prog):
        config = ProfilerConfig(charge_overhead=charge)
        profiler = DataCentricProfiler(prog.process, config).attach()
        return profiler, lambda: (profiler.finalize().canonical_bytes(), asdict(profiler.stats))
    return make


def _code_centric(prog):
    profiler = CodeCentricProfiler(prog.process).attach()
    return profiler, lambda: (profiler.cct.to_dict(), profiler.samples)


def _tracing(record_call_paths: bool):
    def make(prog):
        tracer = TracingProfiler(prog.process, record_call_paths).attach()
        return tracer, lambda: (
            tracer.alloc_records, tracer.free_records,
            tracer.sample_records, tracer.frame_records,
        )
    return make


def _obs_agent(prog):
    agent = ObsSession().attach(prog.process)
    return agent, lambda: agent.samples_seen


def _sanitizer(prog):
    sanitizer = Sanitizer(prog.process, SanitizerConfig()).install()
    return sanitizer, lambda: (dict(sanitizer.stats), sanitizer.findings)


HOOKS = {
    "data-centric": _data_centric(charge=True),
    "data-centric-uncharged": _data_centric(charge=False),
    "code-centric": _code_centric,
    "tracing": _tracing(record_call_paths=True),
    "tracing-no-paths": _tracing(record_call_paths=False),
    "obs-agent": _obs_agent,
    "sanitizer": _sanitizer,
}

SAMPLES = {
    # What IBS delivers for a compute block: the function's entry IP.
    "nonmem": lambda prog: Sample(
        IBS_EVENT, prog.alloc_shim.text_base, prog.alloc_shim.text_base,
        None, 0, -1, False, False, 64,
    ),
    # A memory sample into the static table: bursts must handle it too.
    "static": lambda prog: Sample(
        IBS_EVENT, prog.work.ip(110), prog.work.ip(110),
        prog.bss.address + 72, 180, LVL_RMEM, True, True, 64,
    ),
}


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("kind", sorted(SAMPLES))
@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_on_samples_equals_repeated_on_sample(hook, kind, count):
    states = []
    for burst in (False, True):
        prog = MiniProgram()
        observer, state = HOOKS[hook](prog)
        thread = _deep_stack(prog)
        sample = SAMPLES[kind](prog)
        if burst:
            observer.on_samples(prog.process, thread, sample, count)
        else:
            for _ in range(count):
                observer.on_sample(prog.process, thread, sample)
        states.append((state(), thread.clock))
    assert states[0] == states[1]


def test_data_centric_burst_weights_one_path():
    prog = MiniProgram()
    profiler = DataCentricProfiler(prog.process).attach()
    thread = _deep_stack(prog)
    profiler.on_samples(prog.process, thread, SAMPLES["nonmem"](prog), 5)
    assert profiler.stats.samples == 5 and profiler.stats.mem_samples == 0
    cost = profiler.config.sample_handler_cost
    assert profiler.stats.overhead_cycles > 5 * cost
    assert thread.clock == profiler.stats.overhead_cycles
    cct = profiler.profile_for(thread).cct(StorageClass.NONMEM)
    leaves = [node for node in cct.root.walk() if node.metrics.samples]
    assert len(leaves) == 1
    assert (leaves[0].metrics.samples, leaves[0].metrics.events) == (5, 5 * 64)


# ------------------------------------------------------- engine vs oracle


class _Recorder(Hook):
    """A hook overriding only ``on_sample``: every sample arrives there."""

    def __init__(self):
        self.samples: list = []

    def on_sample(self, process, thread, sample):
        self.samples.append((thread.name, len(thread.frames), sample))


class _BurstSpy(Hook):
    """A hook overriding ``on_samples``: records each call's weight."""

    def __init__(self):
        self.bursts: list[int] = []

    def on_samples(self, process, thread, sample, count):
        self.bursts.append(count)


@st.composite
def ibs_program(draw):
    """An engine configuration and a mixed stream over two threads.

    Compute blocks run from 0 to many periods (a block crossing k
    periods is a burst of k), memory ops land in the static table, the
    heap-free zone or nowhere known, and the call stack moves between
    blocks so burst IPs and paths change.
    """
    period = draw(st.integers(min_value=1, max_value=40) | st.sampled_from([64, 512]))
    jitter = draw(st.sampled_from([0.0, 0.125, 0.45, 0.9]))
    seed = draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
    max_block = 16 * period + 3
    op = st.one_of(
        st.tuples(st.just("compute"), st.integers(0, 1), st.integers(0, max_block)),
        st.tuples(st.just("compute"), st.integers(0, 1), st.integers(0, 2)),
        st.tuples(st.just("mem"), st.integers(0, 1), st.integers(0, 2)),
        st.tuples(st.just("enter"), st.integers(0, 1), st.just(0)),
        st.tuples(st.just("leave"), st.integers(0, 1), st.just(0)),
    )
    ops = draw(st.lists(op, max_size=50))
    return period, jitter, seed, ops


def _replay(program, burst: bool, with_profiler: bool) -> dict:
    period, jitter, seed, ops = program
    prog = MiniProgram()
    process = prog.process
    engine = IBSEngine(period=period, seed=seed, jitter=jitter)
    master = process.master
    master.push_frame(prog.main, 0)
    worker = process.omp_thread(1)
    worker.push_frame(prog.work, prog.main.ip(10))
    profiler = DataCentricProfiler(process).attach() if with_profiler else None
    recorder = _Recorder()
    process.attach(recorder)
    threads = (master, worker)
    eas = (prog.bss.address + 8, prog.bss.address + (1 << 20), 0x40)
    for kind, which, arg in ops:
        thread = threads[which]
        if kind == "compute":
            if burst:
                engine.note_compute(process, thread, arg)
            else:
                oracle_note_compute(engine, process, thread, arg)
        elif kind == "mem":
            ip = thread.frames[-1].function.ip(thread.frames[-1].function.start_line)
            engine.note_mem(process, thread, ip, eas[arg], 40 + arg, LVL_L3, arg == 1, arg == 2)
        elif kind == "enter" and len(thread.frames) < 4:
            thread.push_frame(prog.alloc_shim if len(thread.frames) % 2 else prog.work,
                              thread.frames[-1].function.ip(thread.frames[-1].function.start_line))
        elif kind == "leave" and len(thread.frames) > 1:
            thread.pop_frame()
    state = {
        "rng": engine.rng._state,
        "countdowns": [t.pmu_countdown for t in threads],
        "samples_taken": engine.samples_taken,
        "mem_samples": engine.mem_samples,
        "recorded": recorder.samples,
        "clocks": [t.clock for t in threads],
    }
    if profiler is not None:
        state["profile"] = profiler.finalize().canonical_bytes()
        state["stats"] = asdict(profiler.stats)
    return state


@pytest.mark.parametrize("with_profiler", [False, True], ids=["recorder", "profiler"])
@settings(max_examples=150, deadline=None)
@given(program=ibs_program())
def test_burst_engine_matches_oracle(with_profiler, program):
    burst = _replay(program, burst=True, with_profiler=with_profiler)
    oracle = _replay(program, burst=False, with_profiler=with_profiler)
    assert burst == oracle


class TestDirected:
    def test_one_weighted_call_per_block(self, mini):
        # Period 8 without jitter: a 30-instruction block crosses 3
        # periods from a fresh countdown (8, 16, 24) and carries 6.
        engine = IBSEngine(period=8, seed=1, jitter=0.0)
        spy = _BurstSpy()
        mini.process.attach(spy)
        thread = mini.master_ctx().thread
        engine.note_compute(mini.process, thread, 30)
        assert spy.bursts == [3]
        assert (engine.samples_taken, thread.pmu_countdown) == (3, 2)
        engine.note_compute(mini.process, thread, 2)     # exactly one period
        assert spy.bursts == [3, 1]
        engine.note_compute(mini.process, thread, 7)     # no period crossed
        assert spy.bursts == [3, 1]
        assert (engine.samples_taken, thread.pmu_countdown) == (4, 1)

    def test_hook_without_on_samples_sees_each_sample(self, mini):
        engine = IBSEngine(period=4, seed=9, jitter=0.0)
        recorder = _Recorder()
        mini.process.attach(recorder)
        thread = mini.master_ctx().thread
        engine.note_compute(mini.process, thread, 4 * 6)
        assert len(recorder.samples) == 6 == engine.samples_taken
        assert all(s is recorder.samples[0][2] for _, _, s in recorder.samples)

    def test_zero_block_still_draws_a_fresh_countdown(self, mini):
        engine = IBSEngine(period=16, seed=3, jitter=0.45)
        thread = mini.master_ctx().thread
        before = engine.rng._state
        engine.note_compute(mini.process, thread, 0)
        assert engine.rng._state != before and thread.pmu_countdown > 0
