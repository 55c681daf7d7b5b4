"""Frozen reference for one scalar memory access.

A verbatim copy of the method-call body ``MemoryHierarchy.access`` had
before the hierarchy probed its tag lists directly: every TLB and cache
step goes through ``TLB.access`` / ``SetAssocCache.access`` /
``SetAssocCache.install``.  It is a test oracle only:
``tests/test_machine_access_oracle.py`` checks that the production
``access`` returns the same tuples and leaves the same state.  Do not
optimise or "fix" it — its value is that it does not change.
"""

from __future__ import annotations

from repro.machine.hierarchy import (
    LVL_L1,
    LVL_L2,
    LVL_L3,
    LVL_LMEM,
    LVL_RMEM,
    MemoryHierarchy,
)

__all__ = ["oracle_access"]

_STREAMS_PER_CORE = 4


def oracle_access(
    self: MemoryHierarchy, hw_tid: int, vaddr: int, home_node: int, is_store: bool = False
) -> tuple[int, int, bool]:
    """Perform one memory access on ``self``; returns ``(latency, level, tlb_miss)``."""
    lat = self.latency
    core = self._core_of[hw_tid]
    line = vaddr >> self.line_bits

    if is_store:
        self.store_count += 1
    else:
        self.load_count += 1

    cycles = 0
    if not self.tlb[core].access(vaddr >> self.page_bits):
        cycles += lat.tlb_walk
        tlb_miss = True
    else:
        tlb_miss = False

    if self.l1[core].access(line):
        self.level_counts[LVL_L1] += 1
        return (cycles + lat.l1, LVL_L1, tlb_miss)

    # L1 miss: consult the stream prefetcher before probing deeper.
    prefetched = False
    if self.prefetch_enabled:
        streams = self._streams[core]
        for i in range(_STREAMS_PER_CORE):
            if streams[i] == line:
                prefetched = True
                streams[i] = line + 1
                break
        else:
            # Start/replace a stream at this miss.
            rr = self._stream_rr[core]
            streams[rr] = line + 1
            self._stream_rr[core] = (rr + 1) % _STREAMS_PER_CORE

    # From here on the access missed L1, so a store pays the
    # write-allocate penalty no matter which level services it.
    if is_store:
        cycles += lat.store_extra

    if self.l2[core].access(line):
        self.l1[core].install(line)
        self.level_counts[LVL_L2] += 1
        return (cycles + lat.l2, LVL_L2, tlb_miss)

    socket = self._socket_of[hw_tid]
    if self.l3[socket].access(line):
        self.l1[core].install(line)
        self.l2[core].install(line)
        self.level_counts[LVL_L3] += 1
        return (cycles + lat.l3, LVL_L3, tlb_miss)

    # DRAM access on the page's home node.
    my_node = self._numa_of[hw_tid]
    hops = self.topology.hops(my_node, home_node)
    remote = home_node != my_node
    queue = self.contention.dram_access(home_node, hw_tid)
    self.memmgr.note_dram_access(home_node, remote)
    if prefetched:
        # The prefetcher already brought the line most of the way in:
        # charge near-L3 latency but keep the queueing cost — prefetch
        # hides latency, not bandwidth.
        self.prefetch_hits += 1
        cycles += lat.l3 + queue
    else:
        cycles += lat.dram(hops) + queue
    self.l1[core].install(line)
    self.l2[core].install(line)
    self.l3[socket].install(line)
    level = LVL_RMEM if remote else LVL_LMEM
    self.level_counts[level] += 1
    self.hop_counts[hops] += 1
    return (cycles, level, tlb_miss)
