"""Event-based sampling with IP skid.

On out-of-order processors, a plain EBS interrupt lands several
instructions *after* the instruction that caused the event — the "skid"
of §4.1.2.  This engine models that: when the countdown expires at
instruction X, the sample's *precise* fields (SIAR/SDAR analogues) still
describe X, but the *interrupt IP* is the IP of a later instruction
(``skid`` retired ops downstream).  A profiler that unwinds naively from
the signal context attributes the cost to the wrong instruction; the
paper's leaf correction replaces the interrupt IP with the precise IP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.pmu.sample import Sample
from repro.util.rng import DeterministicRNG, jitter_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["EBSEngine"]


class _Pending:
    """A sample waiting out its skid before the interrupt is delivered."""

    __slots__ = ("ip", "ea", "latency", "level", "tlb_miss", "is_store", "remaining")

    def __init__(self, ip, ea, latency, level, tlb_miss, is_store, remaining) -> None:
        self.ip = ip
        self.ea = ea
        self.latency = latency
        self.level = level
        self.tlb_miss = tlb_miss
        self.is_store = is_store
        self.remaining = remaining


class EBSEngine:
    """Event-based sampling of memory ops with modelled interrupt skid."""

    def __init__(
        self,
        period: int = 512,
        skid: int = 6,
        seed: int = 0xEB5,
        jitter: float = 0.125,
    ) -> None:
        if period < 1:
            raise ConfigError("EBS period must be >= 1")
        if skid < 0:
            raise ConfigError("skid must be >= 0")
        self.period = period
        self.skid = skid
        self.jitter = jitter
        self.rng = DeterministicRNG(seed)
        lo, hi = jitter_bounds(period, jitter)
        self._jitter_lo = lo
        self._jitter_span = hi - lo + 1
        self.samples_taken = 0

    def _next_countdown(self) -> int:
        """A fresh jittered period (what ``rng.geometric_jitter`` draws)."""
        return self._jitter_lo + self.rng.next_u64() % self._jitter_span

    def note_mem(
        self,
        process: "SimProcess",
        thread: "SimThread",
        ip: int,
        ea: int,
        latency: int,
        level: int,
        tlb_miss: bool,
        is_store: bool,
    ) -> None:
        pending: _Pending | None = thread.pmu_pending
        if pending is not None:
            pending.remaining -= 1
            if pending.remaining <= 0:
                thread.pmu_pending = None
                self._deliver(process, thread, pending, interrupt_ip=ip)
            return
        countdown = thread.pmu_countdown
        if countdown <= 0:
            countdown = self._next_countdown()
        countdown -= 1
        if countdown > 0:
            thread.pmu_countdown = countdown
            return
        thread.pmu_countdown = self._next_countdown()
        if self.skid == 0:
            self._deliver(
                process,
                thread,
                _Pending(ip, ea, latency, level, tlb_miss, is_store, 0),
                interrupt_ip=ip,
            )
        else:
            thread.pmu_pending = _Pending(
                ip, ea, latency, level, tlb_miss, is_store, self.skid
            )

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        # Compute ops retire too: they advance a pending skid but (in this
        # memory-event engine) do not advance the event counter.
        pending: _Pending | None = thread.pmu_pending
        if pending is not None:
            pending.remaining -= n
            if pending.remaining <= 0:
                thread.pmu_pending = None
                frames = thread.frames
                # Interrupt lands at the current function's entry IP.
                here = frames[-1].function.text_base if frames else pending.ip
                self._deliver(process, thread, pending, interrupt_ip=here)

    def _deliver(
        self,
        process: "SimProcess",
        thread: "SimThread",
        pending: _Pending,
        interrupt_ip: int,
    ) -> None:
        self.samples_taken += 1
        sample = Sample(
            "EBS", pending.ip, interrupt_ip, pending.ea, pending.latency,
            pending.level, pending.tlb_miss, pending.is_store, self.period,
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)
