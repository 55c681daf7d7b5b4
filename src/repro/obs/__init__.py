"""Unified telemetry layer (``repro.obs``): spans, metrics, timelines.

Opt-in observability across the whole stack — simulator phases and
parallel regions, MPI ranks, malloc lifetimes (sim-time domain), the
multiprocess driver, rank-file merge and profile codec (wall-clock domain) —
plus a labelled metrics registry every subsystem folds its end-of-run
counters into.  Traces load directly in https://ui.perfetto.dev or
``chrome://tracing``; metrics export as JSON or Prometheus text.

Activation mirrors ``repro.sanitize`` exactly::

    from repro.obs import observing

    with observing() as session:
        run_app_rank("nw", 0, 2)          # every SimProcess built in
    session.finalize()                     # scope is auto-instrumented
    session.trace.write("trace.json")
    print(session.metrics.to_prometheus())

:class:`repro.sim.SimProcess` consults ``sys.modules`` for this package
at construction; if it was never imported no observability code runs at
all, and importing without entering :func:`observing` is equally inert
(profiles stay byte-identical — pinned by a subprocess differential
test).  Even with a session active, agents never mutate simulation
state, so profile bytes are identical with tracing on or off.

Clock discipline: sim-time spans derive from simulated cycles; wall
spans read the session's injected :class:`~repro.obs.clock.Clock`.
Nothing else in this package may touch ``time`` (reprolint R005) —
pass :class:`~repro.obs.clock.ManualClock` for deterministic traces.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigError
from repro.obs.agent import ObsAgent
from repro.obs.clock import Clock, ManualClock, WallClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_MAX_EVENTS, TraceWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess

__all__ = [
    "Clock",
    "ManualClock",
    "MetricsRegistry",
    "ObsAgent",
    "ObsConfig",
    "ObsSession",
    "TraceWriter",
    "WallClock",
    "active_session",
    "maybe_attach",
    "observing",
]

# pid 0 of the trace holds all wall-domain lanes; sim processes start at 1.
WALL_PID = 0
WALL_TID_DRIVER = 1
WALL_TID_MERGE = 2
WALL_TID_CODEC = 3
WALL_TID_SERVE = 4

_WALL_TID_NAMES = {
    WALL_TID_DRIVER: "driver",
    WALL_TID_MERGE: "merge",
    WALL_TID_CODEC: "codec",
    WALL_TID_SERVE: "serve",
}


class ObsConfig:
    """Session knobs.  ``wall_clock=None`` means a real monotonic clock."""

    def __init__(
        self,
        wall_clock: Clock | None = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        trace_malloc: bool = True,
    ) -> None:
        self.wall_clock = wall_clock
        self.max_events = max_events
        self.trace_malloc = trace_malloc


class ObsSession:
    """One tracing+metrics scope; collects an agent per SimProcess."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.clock: Clock = self.config.wall_clock or WallClock()
        self.trace = TraceWriter(max_events=self.config.max_events)
        self.metrics = MetricsRegistry()
        self.agents: list[ObsAgent] = []
        self.dilation_percents: dict[str, float] = {}
        self._finalized = False
        self.trace.process_name(WALL_PID, "host")
        for tid, name in sorted(_WALL_TID_NAMES.items()):
            self.trace.thread_name(WALL_PID, tid, name)

    # -- sim-domain attachment ----------------------------------------------

    def attach(self, process: "SimProcess") -> ObsAgent:
        agent = ObsAgent(self, process)
        process.attach(agent)
        self.agents.append(agent)
        return agent

    # -- wall-domain spans ---------------------------------------------------

    @contextmanager
    def wall_span(
        self,
        name: str,
        cat: str,
        tid: int = WALL_TID_DRIVER,
        args: dict | None = None,
    ) -> Iterator[None]:
        """Record a wall-clock span around the enclosed work (pid 0)."""
        start = self.clock.now_us()
        try:
            yield
        finally:
            self.trace.complete(
                name=name,
                cat=cat,
                ts_us=start,
                dur_us=self.clock.now_us() - start,
                pid=WALL_PID,
                tid=tid,
                args=args,
            )

    # -- wrap-up -------------------------------------------------------------

    def finalize(self) -> None:
        """Finalize all agents and fold session-level metrics in (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for agent in self.agents:
            agent.finalize()
        self.metrics.inc(
            "repro_obs_trace_events_total",
            len(self.trace.events),
            help_text="trace events recorded this session",
        )
        self.metrics.inc(
            "repro_obs_trace_dropped_total",
            self.trace.dropped_events,
            help_text="trace events dropped by the bounded buffer",
        )

    def max_dilation_percent(self) -> float:
        """Worst per-rank measurement dilation seen (EXPERIMENTS <3% band)."""
        return max(self.dilation_percents.values(), default=0.0)


_ACTIVE: ObsSession | None = None


@contextmanager
def observing(config: ObsConfig | None = None) -> Iterator[ObsSession]:
    """Activate observability for every :class:`SimProcess` built in scope."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ConfigError("observing() sessions do not nest")
    session = ObsSession(config)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None


def active_session() -> ObsSession | None:
    """The in-scope session, if any — the seam driver/merge/codec consult."""
    return _ACTIVE


def maybe_attach(process: "SimProcess") -> None:
    """Called by ``SimProcess.__init__``; attaches only inside a session."""
    if _ACTIVE is not None:
        _ACTIVE.attach(process)
