"""The hook protocol: one ``Hook`` base class, events called directly.

Every observer of a ``SimProcess`` subclasses ``repro.sim.Hook``, which
has a no-op default for every event any emitter sends, and attaches
through ``SimProcess.attach``.  Pinned here: the attach rules, that every
emitter reaches every event on a hook that overrides all of them, that a
hook overriding only ``on_sample`` runs every app with the profile bytes
unchanged, and the shape the layer tracer relies on.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass

import pytest

from repro import DataCentricProfiler, Hook
from repro.core.baselines import CodeCentricProfiler, TracingProfiler
from repro.errors import ConfigError
from repro.machine.presets import tiny_machine
from repro.obs.agent import ObsAgent
from repro.parallel.registry import run_app_rank
from repro.pmu import EBSEngine, IBSEngine, MarkedEventEngine, PEBSEngine, SamplingEngine
from repro.pmu.events import PM_MRK_DATA_FROM_RMEM
from repro.sanitize.sanitizer import Sanitizer
from repro.sim import Ctx, LoadModule, MPIJob, SourceFile
from repro.sim.openmp import outlined_name
from tests.test_rank_digests import SMOKE, _digest

EVENTS = (
    "on_module_load", "on_module_unload", "on_thread_create",
    "on_alloc", "on_free", "on_stack_alloc", "on_stack_free",
    "on_parallel_begin", "on_parallel_end",
    "on_sample", "on_samples", "on_phase", "on_rank_complete",
)

BUILT_IN_HOOKS = (DataCentricProfiler, CodeCentricProfiler, TracingProfiler, Sanitizer, ObsAgent)


class _SampleCounter(Hook):
    """Overrides only ``on_sample``: bursts arrive through the default."""

    def __init__(self):
        self.samples = 0

    def on_sample(self, process, thread, sample):
        self.samples += 1


def _recording(name):
    def record(self, process, *args):
        self.events.append(name)
    return record


class _EventLog(Hook):
    """Overrides every event and logs its name."""

    def __init__(self):
        self.events: list[str] = []


for _name in EVENTS:
    setattr(_EventLog, _name, _recording(_name))


def test_hook_defines_exactly_the_protocol_events():
    assert sorted(name for name in vars(Hook) if name.startswith("on_")) == sorted(EVENTS)


def test_default_on_samples_is_count_on_sample_calls(mini):
    counter = _SampleCounter()
    counter.on_samples(mini.process, mini.process.master, None, 5)
    assert counter.samples == 5


class TestAttach:
    def test_rejects_objects_that_are_not_hooks(self, mini):
        class DuckTyped:
            def on_sample(self, process, thread, sample):
                pass

        for obj in (object(), DuckTyped(), Hook):
            with pytest.raises(ConfigError, match="not a repro.sim.Hook"):
                mini.process.attach(obj)
        assert mini.process.hooks == ()

    def test_idempotent_and_ordered(self, mini):
        first, second = _SampleCounter(), _SampleCounter()
        assert mini.process.attach(first) is True
        assert mini.process.attach(second) is True
        assert mini.process.attach(first) is False
        assert mini.process.hooks == (first, second)

    def test_hooks_are_told_apart_by_identity(self, mini):
        @dataclass
        class Tagged(Hook):
            tag: str = "same"

        first, second = Tagged(), Tagged()
        assert first == second
        assert mini.process.attach(first) and mini.process.attach(second)
        mini.process.detach(first)
        assert len(mini.process.hooks) == 1 and mini.process.hooks[0] is second

    def test_hooks_is_a_tuple_only_attach_and_detach_change(self, mini):
        counter = _SampleCounter()
        mini.process.attach(counter)
        with pytest.raises(AttributeError):
            mini.process.hooks.append(_SampleCounter())
        mini.process.detach(counter)
        assert mini.process.hooks == ()
        mini.process.detach(counter)   # detaching twice is a no-op
        assert mini.process.hooks == ()

    def test_no_side_channel_to_the_obs_agent(self, mini):
        assert not hasattr(mini.process, "obs")


def test_every_emitter_calls_every_event_directly():
    log = _EventLog()
    source = SourceFile("proto.c", {})
    lib = LoadModule("libproto.so")

    def attach(process):
        process.attach(log)
        process.pmu = IBSEngine(period=4, seed=1)

    def rank_main(process, rank, n_ranks):
        exe = LoadModule("proto.exe", is_executable=True)
        main = exe.add_function("main", source, 1, 60)
        process.load_module(exe)
        region = lib.add_function(outlined_name("main"), source, 30, 10)
        process.load_module(lib)
        ctx = Ctx(process, process.master)
        ctx.enter(main)
        with process.phase("solve"):
            addr = ctx.malloc(8192, line=20, var="buf")
            for i in range(16):
                ctx.load_ip(addr + 64 * i, ctx.ip(21))
            ctx.compute(64)                  # crosses IBS periods: a burst
            local = ctx.declare_stack_var("tmp", 64, line=22)
            ctx.release_stack_var(local)
            ctx.free(addr, line=23)

            def worker(wctx, tid):
                wctx.compute(4)
                yield

            ctx.parallel(region, worker, n_threads=2, line=30)
        process.unload_module(lib)

    MPIJob(tiny_machine, n_ranks=1, threads_per_rank=2).run_one(0, rank_main, attach=attach)
    assert set(log.events) == set(EVENTS)
    assert log.events[0] == "on_module_load" and log.events[-1] == "on_rank_complete"
    assert log.events.count("on_thread_create") == 2


@pytest.mark.parametrize("app", sorted(SMOKE))
def test_sample_only_hook_runs_every_app(app, monkeypatch):
    attached = []
    attach = DataCentricProfiler.attach

    def attach_with_counter(self):
        attach(self)
        counter = _SampleCounter()
        assert self.process.attach(counter)
        attached.append((self.process, counter))
        return self

    monkeypatch.setattr(DataCentricProfiler, "attach", attach_with_counter)
    assert _digest(run_app_rank(app, 0, 2, preset="smoke")) == SMOKE[app]
    assert attached
    for process, counter in attached:
        assert counter.samples == process.pmu.samples_taken > 0


def test_engines_share_one_core_and_keep_their_own_note_methods():
    for engine in (IBSEngine, EBSEngine, MarkedEventEngine, PEBSEngine):
        assert issubclass(engine, SamplingEngine)
        # The layer tracer wraps these through each class's own __dict__.
        assert {"note_mem", "note_compute"} <= set(vars(engine))
    assert {"on_sample", "on_alloc", "on_free"} <= set(vars(DataCentricProfiler))
    for make in (
        lambda: IBSEngine(period=0),
        lambda: EBSEngine(period=0),
        lambda: MarkedEventEngine(PM_MRK_DATA_FROM_RMEM, period=0),
        lambda: PEBSEngine(period=0),
    ):
        with pytest.raises(ConfigError, match="period must be >= 1"):
            make()
    assert PEBSEngine(latency_threshold=64).event == "MEM_TRANS_RETIRED.LOAD_LATENCY_GT_64"


@pytest.mark.parametrize("cls", BUILT_IN_HOOKS, ids=lambda cls: cls.__name__)
def test_built_in_hooks_carry_no_stub_events(cls):
    assert issubclass(cls, Hook)
    for name, method in vars(cls).items():
        if name not in EVENTS:
            continue
        body = ast.parse(textwrap.dedent(inspect.getsource(method))).body[0].body
        stub = len(body) == 1 and (
            isinstance(body[0], ast.Pass)
            or (isinstance(body[0], ast.Return) and body[0].value is None)
            or (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant))
        )
        assert not stub, f"{cls.__name__}.{name} is a stub; inherit Hook's no-op"


def test_obs_agent_hears_phases_and_rank_completion_as_a_hook():
    from repro.obs import observing

    def rank_main(process, rank, n_ranks):
        with process.phase("init"):
            process.master.clock += 10

    with observing() as session:
        result = MPIJob(tiny_machine, n_ranks=1).run_one(0, rank_main)
    (agent,) = session.agents
    assert result.process.hooks == (agent,)
    spans = [e["name"] for e in session.trace.events if e.get("ph") == "X"]
    assert spans == ["phase:init", "rank:rank0"]
