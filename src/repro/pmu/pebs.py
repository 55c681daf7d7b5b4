"""Intel-style precise event-based sampling (PEBS).

The paper's §7 notes that after the reported experiments HPCToolkit was
extended to Intel Ivy Bridge (PEBS) and Itanium (EAR).  Both mechanisms
deliver a *precise* record like IBS does; PEBS additionally filters by
a latency threshold ("load latency" events: only loads slower than N
cycles are eligible).  This engine models that: it samples memory loads
whose measured latency meets the threshold, with precise IP and EA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.pmu.sample import Sample
from repro.util.rng import DeterministicRNG, jitter_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["PEBSEngine"]


class PEBSEngine:
    """Precise load-latency sampling with a minimum-latency filter."""

    def __init__(
        self,
        period: int = 256,
        latency_threshold: int = 32,
        seed: int = 0x9EB5,
        jitter: float = 0.45,
        sample_stores: bool = False,
    ) -> None:
        if period < 1:
            raise ConfigError("PEBS period must be >= 1")
        if latency_threshold < 0:
            raise ConfigError("latency threshold must be >= 0")
        self.period = period
        self.latency_threshold = latency_threshold
        self.jitter = jitter
        self.sample_stores = sample_stores
        self.rng = DeterministicRNG(seed)
        lo, hi = jitter_bounds(period, jitter)
        self._jitter_lo = lo
        self._jitter_span = hi - lo + 1
        self.samples_taken = 0
        self.events_counted = 0

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
        if is_store and not self.sample_stores:
            return
        if latency < self.latency_threshold:
            return
        self.events_counted += 1
        countdown = thread.pmu_countdown
        if countdown <= 0:
            countdown = self._next_countdown()
        countdown -= 1
        if countdown > 0:
            thread.pmu_countdown = countdown
            return
        thread.pmu_countdown = self._next_countdown()
        self.samples_taken += 1
        # PEBS records are precise: the interrupt IP is the sampled IP.
        sample = Sample(
            f"MEM_TRANS_RETIRED.LOAD_LATENCY_GT_{self.latency_threshold}",
            ip, ip, ea, latency, level, tlb_miss, is_store, self.period,
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        # Load-latency events never fire on non-memory instructions.
        return
