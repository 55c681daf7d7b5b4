"""Frozen reference for IBS non-memory sample delivery.

A verbatim copy of ``IBSEngine.note_compute`` and ``_deliver_nonmem`` as
they were before the engine handed a compute block's samples to its
hooks as one burst: one period draw and one ``on_sample`` call per hook
for every period the block crosses.  It is a test oracle only:
``tests/test_pmu_burst.py`` checks that the production engine leaves the
same RNG state, countdown and counters and delivers the same samples.
Do not optimise or "fix" it — its value is that it does not change.
"""

from __future__ import annotations

from repro.pmu.events import IBS_EVENT
from repro.pmu.ibs import IBSEngine
from repro.pmu.sample import Sample

__all__ = ["oracle_note_compute"]


def oracle_note_compute(self: IBSEngine, process, thread, n: int) -> None:
    """``IBSEngine.note_compute`` on ``self``, one sample at a time."""
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
        _oracle_deliver_nonmem(self, process, thread)
        countdown = thread.pmu_countdown
    thread.pmu_countdown = countdown - remaining


def _oracle_deliver_nonmem(self: IBSEngine, process, thread) -> None:
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
