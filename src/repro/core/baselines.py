"""The two baselines the paper argues against.

1. :class:`CodeCentricProfiler` (§2.1, Figure 1's foil): a conventional
   profiler that attributes samples to *instructions and calling
   contexts only*.  It sees the same PMU samples as the data-centric
   profiler but discards the effective address, so costs incurred by
   different variables on the same source line are indistinguishable.

2. :class:`TracingProfiler` (§2.2 and §6.2, the MemProf-style foil): a
   data-centric tool that *records a trace* of every allocation and
   every sample instead of folding them into a compact profile.  Its
   measurement data grows with execution length and thread count —
   the property that makes trace-based tools "problematic to scale to a
   cluster with a large number of nodes" (the paper's terabyte-at-Sequoia
   argument), and that the CCT representation avoids.

Both are :class:`~repro.sim.hook.Hook` subclasses like the real
profiler, overriding only the events they record, so they can be
attached to the same runs for side-by-side comparisons.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.cct import CCT
from repro.core.metrics import MetricKind
from repro.core.unwind import unwind_keys
from repro.sim.hook import Hook
from repro.util.fmt import pct

if TYPE_CHECKING:  # pragma: no cover
    from repro.pmu.sample import Sample
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["CodeCentricProfiler", "TracingProfiler", "LineCost"]


# --------------------------------------------------------------- code-centric


@dataclass
class LineCost:
    """Aggregate cost of one source location (all variables conflated)."""

    location: str
    label: str
    samples: int
    latency: int
    share: float


class CodeCentricProfiler(Hook):
    """Instruction/context attribution only — no variable resolution."""

    def __init__(self, process: "SimProcess") -> None:
        self.process = process
        self.cct = CCT("code")
        self.samples = 0

    def attach(self) -> "CodeCentricProfiler":
        self.process.attach(self)
        return self

    def on_sample(self, process: "SimProcess", thread: "SimThread", sample: "Sample") -> None:
        self.on_samples(process, thread, sample, 1)

    def on_samples(
        self, process: "SimProcess", thread: "SimThread", sample: "Sample", count: int
    ) -> None:
        self.samples += count
        path = unwind_keys(process, thread, sample.precise_ip or None)
        self.cct.add_sample_at(path, sample, count)

    # -- the code-centric "view": source lines ranked by cost ---------------

    def line_costs(self, kind: MetricKind = MetricKind.LATENCY) -> list[LineCost]:
        total = self.cct.total(kind)
        by_location: dict[str, LineCost] = {}
        for node in self.cct.root.walk():
            if node.key[0] != "ip" or node.metrics.is_zero():
                continue
            info = node.info or {}
            location = info.get("location", node.label())
            cost = by_location.get(location)
            if cost is None:
                cost = LineCost(location, node.label(), 0, 0, 0.0)
                by_location[location] = cost
            cost.samples += node.metrics.samples
            cost.latency += node.metrics.latency
        out = sorted(by_location.values(), key=lambda c: c.latency, reverse=True)
        for cost in out:
            value = cost.latency if kind is MetricKind.LATENCY else cost.samples
            cost.share = value / total if total else 0.0
        return out

    def render(self, kind: MetricKind = MetricKind.LATENCY, top_n: int = 10) -> str:
        lines = [f"code-centric profile [{kind}]"]
        for cost in self.line_costs(kind)[:top_n]:
            lines.append(
                f"  {cost.location:<20} {cost.latency:>8} ({pct(cost.share, 1.0)})"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------- tracing

# On-disk record sizes of a MemProf-style binary trace (bytes).
_ALLOC_RECORD = struct.calcsize("<QQQIq")   # time, addr, size, thread, callsite
_FREE_RECORD = struct.calcsize("<QQI")      # time, addr, thread
_SAMPLE_RECORD = struct.calcsize("<QQQIIB")  # time, ip, ea, thread, latency, flags
_FRAME_RECORD = struct.calcsize("<Q")       # one call-path frame per record


class TracingProfiler(Hook):
    """MemProf-style data-centric *tracer*: one record per event.

    Attribution quality matches the real profiler (the trace contains
    everything), but the measurement-data volume is proportional to
    events, not contexts — the scalability property the paper's compact
    CCT profiles are designed to avoid.  Records are counted (and sized
    per the struct layouts above) rather than materialized, so the
    baseline itself doesn't exhaust memory in large runs.
    """

    def __init__(self, process: "SimProcess", record_call_paths: bool = True) -> None:
        self.process = process
        self.record_call_paths = record_call_paths
        self.alloc_records = 0
        self.free_records = 0
        self.sample_records = 0
        self.frame_records = 0

    def attach(self) -> "TracingProfiler":
        self.process.attach(self)
        return self

    def on_alloc(self, process, thread, addr, nbytes, callsite_ip, kind, var=None) -> None:
        self.alloc_records += 1
        if self.record_call_paths:
            self.frame_records += len(thread.frames) + 1

    def on_free(self, process, thread, addr) -> None:
        self.free_records += 1

    def on_sample(self, process, thread, sample) -> None:
        self.on_samples(process, thread, sample, 1)

    def on_samples(self, process, thread, sample, count) -> None:
        self.sample_records += count
        if self.record_call_paths:
            self.frame_records += count * (len(thread.frames) + 1)

    def trace_bytes(self) -> int:
        """Size the binary trace would occupy."""
        return (
            self.alloc_records * _ALLOC_RECORD
            + self.free_records * _FREE_RECORD
            + self.sample_records * _SAMPLE_RECORD
            + self.frame_records * _FRAME_RECORD
        )

    @property
    def total_records(self) -> int:
        return self.alloc_records + self.free_records + self.sample_records
