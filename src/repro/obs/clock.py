"""Clock facade for the observability layer.

Every wall-clock read made by ``repro.obs`` lives in this file — the
reprolint rule R005 bans ``time`` usage in the rest of the package so
that the trace/metrics pipeline stays deterministic by construction:
callers inject a :class:`Clock`, and tests (or ``hpcview trace
--deterministic``) inject :class:`ManualClock` to get byte-identical
output across runs.

Two clock *domains* exist in a trace (see DESIGN.md "Observability"):

* **sim-time** — simulated cycles converted to microseconds via the
  machine's clock rate.  These never come from this module; the
  scheduler owns them and they are deterministic already.
* **wall-clock** — host time for the parallel driver, rank-file merge
  and codec spans.  These come from a :class:`Clock` instance.
"""

from __future__ import annotations

import time


class Clock:
    """Monotonic wall-clock source; returns microseconds as a float."""

    def now_us(self) -> float:
        raise NotImplementedError


class WallClock(Clock):
    """Real host clock based on ``time.perf_counter`` (monotonic)."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()

    def now_us(self) -> float:
        return (time.perf_counter() - self._origin) * 1e6


class ManualClock(Clock):
    """Deterministic clock: advances by a fixed step on every read.

    Used by the determinism tests and ``--deterministic`` tracing so
    wall-domain spans get reproducible (if physically meaningless)
    timestamps.  ``advance`` allows explicit jumps in tests.
    """

    def __init__(self, start_us: float = 0.0, step_us: float = 1.0) -> None:
        self._now = float(start_us)
        self._step = float(step_us)

    def now_us(self) -> float:
        current = self._now
        self._now += self._step
        return current

    def advance(self, delta_us: float) -> None:
        self._now += float(delta_us)
