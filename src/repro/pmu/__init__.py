"""Simulated performance-monitoring units.

Each engine builds on :class:`~repro.pmu.engine.SamplingEngine` and
delivers samples through the :class:`~repro.sim.hook.Hook` events.
Three mirror the hardware mechanisms of paper §3:

- :class:`~repro.pmu.ibs.IBSEngine` — AMD instruction-based sampling:
  every N-th instruction is monitored; memory instructions yield precise
  IP + effective address + latency + data source.
- :class:`~repro.pmu.marked.MarkedEventEngine` — POWER marked events
  (SIAR/SDAR): an event counter (e.g. ``PM_MRK_DATA_FROM_RMEM``) triggers
  a sample when it reaches a threshold.
- :class:`~repro.pmu.ebs.EBSEngine` — plain event-based sampling with
  *IP skid*, to demonstrate why the precise-IP correction of §4.1.2 is
  needed on out-of-order processors.

:class:`~repro.pmu.pebs.PEBSEngine` adds the Intel load-latency port §7
mentions.
"""

from repro.pmu.sample import Sample
from repro.pmu.engine import SamplingEngine
from repro.pmu.events import (
    EVENT_PREDICATES,
    IBS_EVENT,
    PM_MRK_DATA_FROM_RMEM,
    PM_MRK_DATA_FROM_LMEM,
    PM_MRK_DATA_FROM_L3,
    PM_MRK_DATA_FROM_L2,
)
from repro.pmu.ibs import IBSEngine
from repro.pmu.marked import MarkedEventEngine
from repro.pmu.ebs import EBSEngine
from repro.pmu.pebs import PEBSEngine

__all__ = [
    "Sample",
    "SamplingEngine",
    "EVENT_PREDICATES",
    "IBS_EVENT",
    "PM_MRK_DATA_FROM_RMEM",
    "PM_MRK_DATA_FROM_LMEM",
    "PM_MRK_DATA_FROM_L3",
    "PM_MRK_DATA_FROM_L2",
    "IBSEngine",
    "MarkedEventEngine",
    "EBSEngine",
    "PEBSEngine",
]
