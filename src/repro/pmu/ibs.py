"""AMD-style instruction-based sampling (IBS).

The engine decrements a per-thread countdown on every retired
instruction.  When it reaches zero, the *current* instruction is the
monitored one: if it is a memory operation, the sample carries the
precise IP, effective address, measured latency, and data source; if
not, a non-memory sample is delivered (HPCToolkit keeps a separate CCT
for those, §4.1.2).  Periods are jittered to avoid lockstep aliasing
with loop structure.

A compute block that crosses k periods yields k identical non-memory
samples; they reach each hook as one burst, one
``on_samples(process, thread, sample, k)`` call (which a hook that
overrides only ``on_sample`` sees as k ``on_sample`` calls).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.pmu.engine import SamplingEngine
from repro.pmu.events import IBS_EVENT
from repro.pmu.sample import Sample

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["IBSEngine"]


class IBSEngine(SamplingEngine):
    """Instruction-based sampling with a jittered period."""

    def __init__(self, period: int = 512, seed: int = 0x1B5, jitter: float = 0.45) -> None:
        super().__init__(IBS_EVENT, period, seed, jitter)
        self.mem_samples = 0

    def note_mem(
        self, process: "SimProcess", thread: "SimThread", ip: int, ea: int, latency: int,
        level: int, tlb_miss: bool, is_store: bool,
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
            self.event, ip, ip, ea, latency, level, tlb_miss, is_store, self.period
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        # A block of n instructions may straddle several sampling periods;
        # fire one sample per period crossed and carry the remainder, so a
        # large compute block neither swallows the countdown (starving the
        # interleaved memory ops) nor under-reports non-memory samples.
        countdown = thread.pmu_countdown
        if countdown <= 0:
            countdown = self._next_countdown()
        if n < countdown:
            thread.pmu_countdown = countdown - n
            return
        # Draw every period the block crosses first (the same draws, in
        # the same order, as delivering one sample per period), then hand
        # the identical samples to each hook as one burst.
        count = 0
        while n >= countdown:
            n -= countdown
            count += 1
            countdown = self._next_countdown()
        thread.pmu_countdown = countdown - n
        self.samples_taken += count
        # Non-memory instruction sampled: no EA, no latency; the profiler
        # files it in the "no memory access" CCT.  The IP is the current
        # function's entry (its first line's first slot, ``text_base``).
        frames = thread.frames
        ip = frames[-1].function.text_base if frames else 0
        sample = Sample(self.event, ip, ip, None, 0, -1, False, False, self.period)
        for hook in process.hooks:
            hook.on_samples(process, thread, sample, count)
