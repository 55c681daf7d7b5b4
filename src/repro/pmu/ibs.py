"""AMD-style instruction-based sampling (IBS).

The engine decrements a per-thread countdown on every retired
instruction.  When it reaches zero, the *current* instruction is the
monitored one: if it is a memory operation, the sample carries the
precise IP, effective address, measured latency, and data source; if
not, a non-memory sample is delivered (HPCToolkit keeps a separate CCT
for those, §4.1.2).  Periods are jittered to avoid lockstep aliasing
with loop structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.pmu.events import IBS_EVENT
from repro.pmu.sample import Sample
from repro.util.rng import DeterministicRNG, jitter_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["IBSEngine"]


class IBSEngine:
    """Instruction-based sampling with a jittered period."""

    def __init__(self, period: int = 512, seed: int = 0x1B5, jitter: float = 0.45) -> None:
        if period < 1:
            raise ConfigError("IBS period must be >= 1")
        self.period = period
        self.jitter = jitter
        self.rng = DeterministicRNG(seed)
        lo, hi = jitter_bounds(period, jitter)
        self._jitter_lo = lo
        self._jitter_span = hi - lo + 1
        self.samples_taken = 0
        self.mem_samples = 0

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
        countdown = thread.pmu_countdown
        if countdown <= 0:
            countdown = self._next_countdown()
        countdown -= 1
        if countdown > 0:
            thread.pmu_countdown = countdown
            return
        thread.pmu_countdown = self._next_countdown()
        self.samples_taken += 1
        self.mem_samples += 1
        sample = Sample(
            IBS_EVENT, ip, ip, ea, latency, level, tlb_miss, is_store, self.period
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        # A block of n instructions may straddle several sampling periods;
        # fire one sample per period crossed and carry the remainder, so a
        # large compute block neither swallows the countdown (starving the
        # interleaved memory ops) nor under-reports non-memory samples.
        remaining = n
        countdown = thread.pmu_countdown
        if countdown <= 0:
            countdown = self._next_countdown()
        while remaining >= countdown:
            remaining -= countdown
            self._deliver_nonmem(process, thread)
            countdown = thread.pmu_countdown
        thread.pmu_countdown = countdown - remaining

    def _deliver_nonmem(self, process: "SimProcess", thread: "SimThread") -> None:
        thread.pmu_countdown = self._next_countdown()
        self.samples_taken += 1
        # Non-memory instruction sampled: no EA, no latency; the profiler
        # files it in the "no memory access" CCT.  The IP is the current
        # function's entry (its first line's first slot, ``text_base``).
        frames = thread.frames
        ip = frames[-1].function.text_base if frames else 0
        sample = Sample(IBS_EVENT, ip, ip, None, 0, -1, False, False, self.period)
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)
