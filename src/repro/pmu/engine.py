"""The construction core the PMU engines share.

``Ctx`` reports retired instructions to an engine through ``note_mem``
(one memory access) and ``note_compute`` (a block of non-memory ones).
Each engine defines both itself, its countdown inline, and hands samples
to ``process.hooks`` (:class:`~repro.sim.hook.Hook`).  This base holds
the rest: the period check, the seeded RNG jittering the period, the
event name samples carry, and the sample count.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.util.rng import DeterministicRNG, jitter_bounds

__all__ = ["SamplingEngine"]


class SamplingEngine:
    """Period, jittered countdown draws and sample count of one engine."""

    def __init__(self, event: str, period: int, seed: int, jitter: float) -> None:
        if period < 1:
            raise ConfigError(f"{type(self).__name__}: period must be >= 1, got {period}")
        self.event = event
        self.period = period
        self.jitter = jitter
        self.rng = DeterministicRNG(seed)
        lo, hi = jitter_bounds(period, jitter)
        self._jitter_lo = lo
        self._jitter_span = hi - lo + 1
        self.samples_taken = 0

    def _next_countdown(self) -> int:
        """A fresh jittered period (what ``rng.geometric_jitter`` draws)."""
        return self._jitter_lo + self.rng.next_u64() % self._jitter_span
