"""PMU sample records.

One :class:`Sample` carries everything the paper's §3 lists as required
for data-centric measurement: a precise instruction pointer, an effective
data address, and a cost (latency and/or the event the sample counted).
``interrupt_ip`` may differ from ``precise_ip`` when the engine models
skid (EBS); the profiler's leaf correction picks the precise one.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.machine.hierarchy import LEVEL_NAMES

__all__ = ["Sample"]


class Sample(NamedTuple):
    """One PMU sample (a monitored instruction's retirement record).

    An immutable record built once per delivered sample, so it is a
    named tuple: engines construct it positionally, in field order.
    """

    event: str           # event/engine that produced the sample
    precise_ip: int      # IP recorded by the monitoring hardware (SIAR-style)
    interrupt_ip: int    # IP at interrupt delivery (equals precise_ip unless skid)
    ea: int | None       # effective address (SDAR-style); None for non-memory ops
    latency: int         # measured access latency in cycles (0 for non-memory)
    level: int           # data source (LVL_* code); -1 for non-memory
    tlb_miss: bool
    is_store: bool
    period: int          # sampling period: each sample represents ~period events

    @property
    def is_memory(self) -> bool:
        return self.ea is not None

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level] if 0 <= self.level < len(LEVEL_NAMES) else "NONE"
