"""POWER-style marked-event sampling (SIAR/SDAR).

The PMU counts occurrences of one marked event (e.g.
``PM_MRK_DATA_FROM_RMEM`` — data sourced from remote memory).  When the
count reaches the configured threshold, an interrupt fires and the
sampled instruction's address (SIAR) and effective data address (SDAR)
are available — always precise.  Non-matching accesses and non-memory
instructions do not advance the counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.pmu.engine import SamplingEngine
from repro.pmu.events import EVENT_PREDICATES
from repro.pmu.sample import Sample

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["MarkedEventEngine"]


class MarkedEventEngine(SamplingEngine):
    """Marked-event sampling for one event with a count threshold."""

    def __init__(self, event: str, period: int = 64, seed: int = 0x5EED, jitter: float = 0.45) -> None:
        predicate = EVENT_PREDICATES.get(event)
        if predicate is None:
            raise ConfigError(
                f"unknown marked event {event!r}; known: {sorted(EVENT_PREDICATES)}"
            )
        super().__init__(event, period, seed, jitter)
        self._predicate = predicate
        self.events_counted = 0

    def note_mem(
        self, process: "SimProcess", thread: "SimThread", ip: int, ea: int, latency: int,
        level: int, tlb_miss: bool, is_store: bool,
    ) -> None:
        if not self._predicate(level, latency, tlb_miss):
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
        # Precise IP (SIAR) doubles as the interrupt IP; ``ea`` is SDAR.
        sample = Sample(
            self.event, ip, ip, ea, latency, level, tlb_miss, is_store, self.period
        )
        for hook in process.hooks:
            hook.on_sample(process, thread, sample)

    def note_compute(self, process: "SimProcess", thread: "SimThread", n: int) -> None:
        """Marked data-source events never fire on non-memory instructions."""
