"""The memory hierarchy: the simulator's hot path.

``MemoryHierarchy.access`` is called for every simulated load/store.  It
models, in order: address translation (per-core TLB), the per-core L1 and
L2, the per-socket shared L3, and finally DRAM on the page's home NUMA
node — local or remote across the interconnect, with bandwidth queueing
at the home controller.

``MemoryHierarchy.access_run`` is the batched fast path: a whole
contiguous/strided run of addresses in one call.  It is state- and
result-identical to the equivalent sequence of ``access`` calls (the
differential harness in ``tests/test_machine_bulk_access.py`` enforces
bit-identical level counts, latencies, contention cycles and PMU sample
streams), but hoists TLB lookups to once per page, short-circuits
repeated same-line L1 hits, and accumulates counters in locals flushed
once per run.

A per-core stream prefetcher hides DRAM *latency* (not controller
traffic) for unit-stride misses: sequential streams are served at near-L3
latency while strided/indirect patterns pay full memory latency.  This is
the mechanism behind the Sweep3D/LULESH layout-transposition wins.

Store cost model: ``LatencyModel.store_extra`` (the write-allocate
penalty) is charged to every store that *misses L1* — whether the line is
then served by L2, L3 or DRAM — because any L1 store miss triggers a line
allocation.  L1 store hits write into the already-present line and pay
nothing extra.  (Historically only DRAM-serviced stores paid it; the
asymmetry was a bug — L2/L3-serviced stores allocate into L1 exactly the
same way.  Pinned by ``tests/test_machine_hierarchy.py::TestStoreExtra``.)

Performance notes (per the hpc-parallel guide): no per-access object
allocation — results are plain tuples, topology lookups are preflattened
lists, and the caches use list-based LRU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.machine.cache import SetAssocCache
from repro.machine.contention import ControllerContention
from repro.machine.latency import LatencyModel
from repro.machine.memory import MemoryManager
from repro.machine.stats import MachineStats
from repro.machine.tlb import TLB
from repro.machine.topology import Topology

__all__ = [
    "MemoryHierarchy",
    "AccessResult",
    "MachineStats",
    "LVL_L1",
    "LVL_L2",
    "LVL_L3",
    "LVL_LMEM",
    "LVL_RMEM",
    "LEVEL_NAMES",
]

# Data-source levels, matching the paper's event vocabulary:
# L1/L2/L3 cache hits, local memory, remote memory.
LVL_L1 = 0
LVL_L2 = 1
LVL_L3 = 2
LVL_LMEM = 3
LVL_RMEM = 4
LEVEL_NAMES = ("L1", "L2", "L3", "LMEM", "RMEM")

_STREAMS_PER_CORE = 4


@dataclass(frozen=True)
class AccessResult:
    """Rich result for one access (built on demand, e.g. for PMU samples)."""

    latency: int
    level: int
    tlb_miss: bool
    home_node: int
    remote: bool

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]


class MemoryHierarchy:
    """Caches + TLBs + NUMA DRAM for one machine."""

    def __init__(
        self,
        topology: Topology,
        latency: LatencyModel,
        *,
        line_bits: int = 6,
        page_bits: int = 12,
        l1_sets: int = 16,
        l1_assoc: int = 4,
        l2_sets: int = 64,
        l2_assoc: int = 8,
        l3_sets: int = 256,
        l3_assoc: int = 8,
        tlb_sets: int = 8,
        tlb_assoc: int = 4,
        contention: ControllerContention | None = None,
        prefetch: bool = True,
    ) -> None:
        if page_bits <= line_bits:
            raise ConfigError("pages must be larger than cache lines")
        self.topology = topology
        self.latency = latency
        self.line_bits = line_bits
        self.page_bits = page_bits
        self.prefetch_enabled = prefetch
        self.memmgr = MemoryManager(topology.n_numa_nodes)
        self.contention = contention or ControllerContention(topology.n_numa_nodes)

        n_cores = topology.n_cores
        n_sockets = topology.sockets
        self.l1 = [SetAssocCache(f"L1.c{c}", l1_sets, l1_assoc) for c in range(n_cores)]
        self.l2 = [SetAssocCache(f"L2.c{c}", l2_sets, l2_assoc) for c in range(n_cores)]
        self.l3 = [SetAssocCache(f"L3.s{s}", l3_sets, l3_assoc) for s in range(n_sockets)]
        self.tlb = [TLB(tlb_sets, tlb_assoc) for _ in range(n_cores)]
        # Per-core stream-prefetcher state: expected next miss line per stream.
        self._streams: list[list[int]] = [
            [-1] * _STREAMS_PER_CORE for _ in range(n_cores)
        ]
        self._stream_rr = [0] * n_cores

        # Flattened topology lookups for the hot path.
        self._core_of = [topology.core_of(t) for t in range(topology.n_threads)]
        self._socket_of = [topology.socket_of(t) for t in range(topology.n_threads)]
        self._numa_of = [topology.numa_of(t) for t in range(topology.n_threads)]
        # The fused scalar path's per-hardware-thread bindings: the TLB
        # and L1 caches with their live per-set tag lists (every access),
        # then L2 and L3 likewise plus the core's stream state (L1 misses).
        # The tag lists are never replaced, only mutated, so binding them
        # once is safe; invalidation clears them in place.
        self._near: list[tuple] = []
        self._far: list[tuple] = []
        for t in range(topology.n_threads):
            core = self._core_of[t]
            tlb_cache = self.tlb[core].cache
            l1, l2 = self.l1[core], self.l2[core]
            l3 = self.l3[self._socket_of[t]]
            self._near.append((core, tlb_cache, tlb_cache.sets, l1, l1.sets))
            self._far.append((l2, l2.sets, l3, l3.sets, self._streams[core]))
        self._tlb_mask = tlb_sets - 1
        self._tlb_assoc = tlb_assoc
        self._l1_mask = l1_sets - 1
        self._l1_assoc = l1_assoc
        self._l2_mask = l2_sets - 1
        self._l2_assoc = l2_assoc
        self._l3_mask = l3_sets - 1
        self._l3_assoc = l3_assoc

        self.level_counts = [0, 0, 0, 0, 0]
        # DRAM accesses by interconnect distance: [same-node, same-socket
        # cross-die, cross-socket].  hop_counts[0] == level_counts[LVL_LMEM]
        # and hop_counts[1] + hop_counts[2] == level_counts[LVL_RMEM];
        # derived metrics price remote DRAM from this observed distribution
        # instead of assuming a fixed 2-hop distance.
        self.hop_counts = [0, 0, 0]
        self.load_count = 0
        self.store_count = 0
        self.prefetch_hits = 0

    # -- hot path ---------------------------------------------------------

    def access(
        self, hw_tid: int, vaddr: int, home_node: int, is_store: bool = False
    ) -> tuple[int, int, bool]:
        """Perform one memory access.

        Returns ``(latency_cycles, level, tlb_miss)`` as a plain tuple.
        ``home_node`` is the NUMA placement of the page containing
        ``vaddr`` (resolved by the process's address space at touch time).

        Fused: the TLB and caches are probed, promoted and filled on
        their per-set MRU-first tag lists directly, with hit/miss counters
        bumped exactly where ``SetAssocCache.access`` bumps them.  A fill
        after a miss skips ``install``'s membership scan: the line (page)
        just missed that level, so it is absent.  State- and
        result-identical to the method-call form frozen in
        ``tests/access_oracle.py`` (differential test
        ``tests/test_machine_access_oracle.py``).
        """
        lat = self.latency
        core, tlb, tlb_sets, l1, l1_sets = self._near[hw_tid]
        if is_store:
            self.store_count += 1
        else:
            self.load_count += 1

        # TLB: a hit is promoted to MRU; a miss walks and fills as MRU.
        page = vaddr >> self.page_bits
        tlb_ways = tlb_sets[page & self._tlb_mask]
        if page in tlb_ways:
            tlb.hits += 1
            if tlb_ways[0] != page:
                tlb_ways.remove(page)
                tlb_ways.insert(0, page)
            cycles = 0
            tlb_miss = False
        else:
            tlb.misses += 1
            tlb_ways.insert(0, page)
            if len(tlb_ways) > self._tlb_assoc:
                tlb_ways.pop()
            cycles = lat.tlb_walk
            tlb_miss = True

        line = vaddr >> self.line_bits
        l1_ways = l1_sets[line & self._l1_mask]
        if line in l1_ways:
            l1.hits += 1
            if l1_ways[0] != line:
                l1_ways.remove(line)
                l1_ways.insert(0, line)
            self.level_counts[LVL_L1] += 1
            return (cycles + lat.l1, LVL_L1, tlb_miss)
        l1.misses += 1
        l2, l2_sets, l3, l3_sets, streams = self._far[hw_tid]

        # L1 miss: consult the stream prefetcher before probing deeper.
        # The first stream expecting this line advances (``index`` finds
        # the first match, as a scan in stream order would).
        prefetched = False
        if self.prefetch_enabled:
            if line in streams:
                prefetched = True
                streams[streams.index(line)] = line + 1
            else:
                # Start/replace a stream at this miss.
                rr = self._stream_rr[core]
                streams[rr] = line + 1
                self._stream_rr[core] = (rr + 1) % _STREAMS_PER_CORE

        # From here on the access missed L1, so a store pays the
        # write-allocate penalty no matter which level services it.
        if is_store:
            cycles += lat.store_extra

        # Every service path below fills L1, so fill it now (the levels
        # are separate lists: filling before probing L2 is unobservable).
        # Each fill is into a level that just missed, so no scan first.
        l1_ways.insert(0, line)
        if len(l1_ways) > self._l1_assoc:
            l1_ways.pop()
        l2_ways = l2_sets[line & self._l2_mask]
        if line in l2_ways:
            l2.hits += 1
            if l2_ways[0] != line:
                l2_ways.remove(line)
                l2_ways.insert(0, line)
            self.level_counts[LVL_L2] += 1
            return (cycles + lat.l2, LVL_L2, tlb_miss)
        l2.misses += 1
        l2_ways.insert(0, line)
        if len(l2_ways) > self._l2_assoc:
            l2_ways.pop()

        l3_ways = l3_sets[line & self._l3_mask]
        if line in l3_ways:
            l3.hits += 1
            if l3_ways[0] != line:
                l3_ways.remove(line)
                l3_ways.insert(0, line)
            self.level_counts[LVL_L3] += 1
            return (cycles + lat.l3, LVL_L3, tlb_miss)
        l3.misses += 1
        l3_ways.insert(0, line)
        if len(l3_ways) > self._l3_assoc:
            l3_ways.pop()

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
        level = LVL_RMEM if remote else LVL_LMEM
        self.level_counts[level] += 1
        self.hop_counts[hops] += 1
        return (cycles, level, tlb_miss)

    def access_run(
        self,
        hw_tid: int,
        base_vaddr: int,
        stride: int,
        count: int,
        home_node: int,
        is_store: bool = False,
        record: list | None = None,
    ) -> int:
        """Batched fast path: ``count`` accesses at ``base_vaddr + k*stride``.

        Equivalent — same final machine state, same per-access results —
        to ``count`` sequential :meth:`access` calls with the same
        arguments, but pays the Python dispatch cost once per *run*:
        topology/latency lookups are hoisted out of the loop, the TLB is
        consulted once per page instead of once per access, repeated
        same-line L1 hits short-circuit the cache probe entirely, and the
        hit/level counters accumulate in locals flushed once at the end.

        All addresses in the run must live on the same home NUMA node;
        callers that can't guarantee that (pages may differ) split the run
        at page boundaries — :meth:`repro.sim.runtime.Ctx.load_run` does.
        DRAM accesses still go through the contention model one by one
        (its window accounting is stateful and order-sensitive).

        Returns the total latency in cycles.  When ``record`` is a list,
        one ``(latency, level, tlb_miss)`` tuple is appended per access in
        order, letting callers replay the exact scalar event stream (PMU
        delivery).  Equivalence is enforced by the differential harness in
        ``tests/test_machine_bulk_access.py``.
        """
        if count <= 0:
            return 0
        if count == 1:
            # A one-access run can't amortize the hoisting prologue below
            # (page-stride callers hit this constantly): take the scalar
            # path, which is definitionally equivalent.
            result = self.access(hw_tid, base_vaddr, home_node, is_store)
            if record is not None:
                record.append(result)
            return result[0]

        lat = self.latency
        core = self._core_of[hw_tid]
        socket = self._socket_of[hw_tid]
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3[socket]
        tlb = self.tlb[core]
        line_bits = self.line_bits
        page_bits = self.page_bits
        lat_l1 = lat.l1
        lat_l2 = lat.l2
        lat_l3 = lat.l3
        tlb_walk = lat.tlb_walk
        store_extra = lat.store_extra if is_store else 0
        my_node = self._numa_of[hw_tid]
        remote = home_node != my_node
        dram_hops = self.topology.hops(my_node, home_node)
        dram_lat = lat.dram(dram_hops)
        dram_level = LVL_RMEM if remote else LVL_LMEM
        dram_access = self.contention.dram_access
        l1_access = l1.access
        l1_install = l1.install
        l2_access = l2.access
        l2_install = l2.install
        l3_access = l3.access
        l3_install = l3.install
        tlb_access = tlb.access
        prefetch_on = self.prefetch_enabled
        streams = self._streams[core]
        rr = self._stream_rr[core]
        rec = record.append if record is not None else None

        if is_store:
            self.store_count += count
        else:
            self.load_count += count

        total = 0
        n1 = n2 = n3 = nd = 0  # accesses served by L1/L2/L3/DRAM
        pf_hits = 0
        tlb_repeats = 0  # TLB lookups skipped (page unchanged since last access)
        l1_repeats = 0  # L1 lookups skipped (line unchanged since last access)
        # The repeat-skip sentinel must not collide with any real page
        # number: page -1 is reachable (negative addresses under negative
        # strides), and an integer sentinel of -1 silently converted the
        # first TLB walk of such a run into a repeat hit.  Pinned by
        # tests/test_machine_bulk_access.py::TestDegenerateStrides.
        cur_page: int | None = None
        vaddr = base_vaddr
        i = 0
        while i < count:
            # Probe the first access touching this cache line in full.
            line = vaddr >> line_bits
            page = vaddr >> page_bits
            if page == cur_page:
                # Page unchanged and nothing else touched this core's TLB
                # mid-run: a guaranteed hit on the scalar path.
                tlb_repeats += 1
                cycles = 0
                tlb_miss = False
            elif tlb_access(page):
                cur_page = page
                cycles = 0
                tlb_miss = False
            else:
                cur_page = page
                cycles = tlb_walk
                tlb_miss = True

            if l1_access(line):
                n1 += 1
                cycles += lat_l1
                level = LVL_L1
            else:
                cycles += store_extra
                prefetched = False
                if prefetch_on:
                    for s in range(_STREAMS_PER_CORE):
                        if streams[s] == line:
                            prefetched = True
                            streams[s] = line + 1
                            break
                    else:
                        streams[rr] = line + 1
                        rr = (rr + 1) % _STREAMS_PER_CORE
                if l2_access(line):
                    l1_install(line)
                    n2 += 1
                    cycles += lat_l2
                    level = LVL_L2
                elif l3_access(line):
                    l1_install(line)
                    l2_install(line)
                    n3 += 1
                    cycles += lat_l3
                    level = LVL_L3
                else:
                    queue = dram_access(home_node, hw_tid)
                    nd += 1
                    if prefetched:
                        pf_hits += 1
                        cycles += lat_l3 + queue
                    else:
                        cycles += dram_lat + queue
                    l1_install(line)
                    l2_install(line)
                    l3_install(line)
                    level = dram_level
            total += cycles
            if rec is not None:
                rec((cycles, level, tlb_miss))
            i += 1
            vaddr += stride

            # Short-circuit every subsequent access that stays on this
            # line: the probe left the line resident and MRU in L1 and
            # its page resident and MRU in the TLB, so each one is
            # exactly a TLB hit + L1 hit on the scalar path with no
            # state change — count them arithmetically instead of
            # looping.
            if stride > 0:
                k = (((line + 1) << line_bits) - vaddr + stride - 1) // stride
            elif stride < 0:
                k = (vaddr - (line << line_bits)) // -stride + 1
                if vaddr < (line << line_bits):
                    k = 0
            else:
                k = count - i
            if k > count - i:
                k = count - i
            if k > 0:
                tlb_repeats += k
                l1_repeats += k
                n1 += k
                total += k * lat_l1
                if rec is not None:
                    record.extend([(lat_l1, LVL_L1, False)] * k)
                i += k
                vaddr += k * stride

        # Flush the locally-accumulated counters in one pass.
        self._stream_rr[core] = rr
        lc = self.level_counts
        lc[LVL_L1] += n1
        lc[LVL_L2] += n2
        lc[LVL_L3] += n3
        if nd:
            lc[dram_level] += nd
            self.hop_counts[dram_hops] += nd
            self.memmgr.note_dram_accesses(home_node, remote, nd)
        if pf_hits:
            self.prefetch_hits += pf_hits
        if tlb_repeats:
            tlb.note_repeat_hits(tlb_repeats)
        if l1_repeats:
            l1.note_repeat_hits(l1_repeats)
        return total

    # -- conveniences -----------------------------------------------------

    def describe(self, hw_tid: int, result: tuple[int, int, bool], home_node: int) -> AccessResult:
        """Expand a hot-path tuple into a rich :class:`AccessResult`."""
        latency, level, tlb_miss = result
        return AccessResult(
            latency=latency,
            level=level,
            tlb_miss=tlb_miss,
            home_node=home_node,
            remote=level == LVL_RMEM,
        )

    def new_window(self) -> None:
        """Rotate the contention window (scheduler calls this per quantum)."""
        self.contention.new_window()

    def total_accesses(self) -> int:
        return self.load_count + self.store_count

    def stats(self) -> MachineStats:
        """One immutable snapshot of the machine's self-instrumentation.

        Snapshots subtract (``after - before`` is the activity in
        between) and add; see :class:`repro.machine.stats.MachineStats`.
        """
        tlb_hits = tlb_misses = 0
        for t in self.tlb:
            tlb_hits += t.hits
            tlb_misses += t.misses
        l1_hits = l1_misses = l2_hits = l2_misses = l3_hits = l3_misses = 0
        for c in self.l1:
            l1_hits += c.hits
            l1_misses += c.misses
        for c in self.l2:
            l2_hits += c.hits
            l2_misses += c.misses
        for c in self.l3:
            l3_hits += c.hits
            l3_misses += c.misses
        return MachineStats(
            level_counts=tuple(self.level_counts),
            hop_counts=tuple(self.hop_counts),
            loads=self.load_count,
            stores=self.store_count,
            prefetch_hits=self.prefetch_hits,
            tlb_hits=tlb_hits,
            tlb_misses=tlb_misses,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l2_hits=l2_hits,
            l2_misses=l2_misses,
            l3_hits=l3_hits,
            l3_misses=l3_misses,
            dram_accesses=tuple(self.memmgr.dram_accesses),
            remote_dram_accesses=tuple(self.memmgr.remote_dram_accesses),
            contention_queue_cycles=self.contention.total_queue_cycles,
            contention_windows=self.contention.windows,
        )

    def flush_all(self) -> None:
        """Invalidate all caches and TLBs (used between benchmark phases)."""
        for c in self.l1:
            c.invalidate_all()
        for c in self.l2:
            c.invalidate_all()
        for c in self.l3:
            c.invalidate_all()
        for t in self.tlb:
            t.flush()
        for streams in self._streams:
            for i in range(_STREAMS_PER_CORE):
                streams[i] = -1
        # Reset the stream-replacement cursors too: otherwise post-flush
        # replacement order depends on pre-flush history and benchmark
        # phases separated by flush_all() are not independent.
        for c in range(len(self._stream_rr)):
            self._stream_rr[c] = 0
