"""Metric vectors attached to CCT nodes.

A sample contributes to several metrics at once: a raw sample count, the
measured latency, a period-scaled event estimate, a per-data-source
histogram, and TLB/store counts.  Different hardware engines emphasize
different columns (IBS -> latency; marked events -> event counts), and
the views choose which column ranks variables — matching how the paper's
case studies read either "% of total latency" (Sweep3D, LULESH) or "% of
remote memory accesses" (AMG, Streamcluster, NW).
"""

from __future__ import annotations

from enum import Enum

from repro.machine.hierarchy import LVL_L1, LVL_L2, LVL_L3, LVL_LMEM, LVL_RMEM
from repro.pmu.sample import Sample

__all__ = ["MetricVector", "MetricKind"]

_N_LEVELS = 5


class MetricKind(str, Enum):
    """Rankable metric columns."""

    SAMPLES = "samples"
    LATENCY = "latency"
    EVENTS = "events"
    REMOTE = "remote"
    TLB_MISS = "tlb_miss"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MetricVector:
    """Additive metrics for one CCT node (exclusive values at leaves)."""

    __slots__ = ("samples", "latency", "events", "levels", "tlb_misses", "stores")

    def __init__(self) -> None:
        self.samples = 0
        self.latency = 0
        self.events = 0        # period-scaled estimate of counted events
        self.levels = [0] * _N_LEVELS
        self.tlb_misses = 0
        self.stores = 0

    def add_sample(self, sample: Sample, count: int = 1) -> None:
        """Add ``count`` identical samples (what ``count`` single adds add)."""
        self.samples += count
        self.latency += sample.latency * count
        self.events += sample.period * count
        if 0 <= sample.level < _N_LEVELS:
            self.levels[sample.level] += count
        if sample.tlb_miss:
            self.tlb_misses += count
        if sample.is_store:
            self.stores += count

    @property
    def remote(self) -> int:
        return self.levels[LVL_RMEM]

    def get(self, kind: MetricKind) -> int:
        if kind is MetricKind.SAMPLES:
            return self.samples
        if kind is MetricKind.LATENCY:
            return self.latency
        if kind is MetricKind.EVENTS:
            return self.events
        if kind is MetricKind.REMOTE:
            return self.remote
        if kind is MetricKind.TLB_MISS:
            return self.tlb_misses
        raise KeyError(kind)

    def merge(self, other: "MetricVector") -> None:
        self.samples += other.samples
        self.latency += other.latency
        self.events += other.events
        mine, theirs = self.levels, other.levels  # unrolled over the levels
        mine[LVL_L1] += theirs[LVL_L1]
        mine[LVL_L2] += theirs[LVL_L2]
        mine[LVL_L3] += theirs[LVL_L3]
        mine[LVL_LMEM] += theirs[LVL_LMEM]
        mine[LVL_RMEM] += theirs[LVL_RMEM]
        self.tlb_misses += other.tlb_misses
        self.stores += other.stores

    def copy(self) -> "MetricVector":
        out = MetricVector.__new__(MetricVector)
        out.samples = self.samples
        out.latency = self.latency
        out.events = self.events
        out.levels = self.levels.copy()
        out.tlb_misses = self.tlb_misses
        out.stores = self.stores
        return out

    def is_zero(self) -> bool:
        return (
            self.samples == 0
            and self.latency == 0
            and self.events == 0
            and self.tlb_misses == 0
            and self.stores == 0
            and not any(self.levels)
        )

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "latency": self.latency,
            "events": self.events,
            "levels": list(self.levels),
            "tlb_misses": self.tlb_misses,
            "stores": self.stores,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricVector":
        out = cls()
        out.samples = d["samples"]
        out.latency = d["latency"]
        out.events = d["events"]
        out.levels = list(d["levels"])
        out.tlb_misses = d["tlb_misses"]
        out.stores = d["stores"]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricVector(samples={self.samples}, latency={self.latency}, "
            f"events={self.events}, remote={self.remote})"
        )
