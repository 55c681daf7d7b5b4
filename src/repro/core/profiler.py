"""The online data-centric call path profiler (paper §4.1).

One :class:`DataCentricProfiler` attaches to one process as a
:class:`~repro.sim.hook.Hook` and observes:

- PMU samples (``on_sample``): unwinds the thread's call stack, corrects
  the leaf to the PMU's precise IP, resolves the effective address
  against the heap and static maps, and files the sample into the
  thread's per-storage-class CCT — prepending the allocation call path
  for heap data and a variable dummy node for static data (§4.1.4);
  a burst of identical samples (``on_samples``) is filed once;
- allocator calls (``on_alloc``/``on_free``): maintains the heap map,
  with the three §4.1.3 overhead-reduction strategies independently
  switchable (size threshold, fast context capture, trampoline unwinds);
- module loads/unloads: maintains the static map.

When ``charge_overhead`` is on, every measurement action charges its
cycle cost to the monitored thread's clock — this is how the Table 1
runtime overheads and the §4.1.3 ablation are reproduced rather than
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cct import (
    CCT,
    HEAP_MARKER_INFO,
    HEAP_MARKER_KEY,
    PathEntry,
)
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.stackmap import StackDataMap, StackVariable, stack_var_entry
from repro.core.storage import StorageClass
from repro.core.trampoline import TrampolineUnwinder
from repro.core.unwind import (
    GETCONTEXT_FAST,
    GETCONTEXT_SLOW,
    UNWIND_PER_FRAME,
    frame_entry,
    ip_entry,
)
from repro.core.varmap import (
    HeapDataMap,
    HeapVariable,
    StaticDataMap,
    static_var_entry,
)
from repro.sim.hook import Hook

if TYPE_CHECKING:  # pragma: no cover
    from repro.pmu.sample import Sample
    from repro.sim.loader import LoadModule
    from repro.sim.process import SimProcess
    from repro.sim.program import Function
    from repro.sim.thread import SimThread

__all__ = ["DataCentricProfiler", "ProfilerConfig"]


@dataclass
class ProfilerConfig:
    """Measurement configuration (paper defaults unless noted)."""

    # Strategy 1 (§4.1.3): skip calling-context capture for heap blocks
    # smaller than this; 0 disables the threshold (track everything).
    track_threshold: int = 4096
    # Strategy 2: inline-assembly context capture instead of getcontext.
    fast_context: bool = True
    # Strategy 3: trampoline-based incremental unwinds for allocations.
    use_trampoline: bool = True
    # §4.1.2 leaf correction: attribute to the PMU's precise IP.
    use_precise_ip: bool = True
    # §7 extension: attribute named stack ranges (off in the paper).
    track_stack: bool = False
    # Charge measurement costs to the monitored threads' clocks.
    charge_overhead: bool = True

    # Cycle costs of the measurement machinery.
    sample_handler_cost: int = 250
    alloc_wrap_cost: int = 30
    free_wrap_cost: int = 15
    map_insert_cost: int = 40
    map_lookup_cost: int = 20


@dataclass
class ProfilerStats:
    """Counters describing the measurement activity itself."""

    samples: int = 0
    mem_samples: int = 0
    heap_samples: int = 0
    static_samples: int = 0
    unknown_samples: int = 0
    allocs_seen: int = 0
    allocs_tracked: int = 0
    allocs_skipped_small: int = 0
    frees_seen: int = 0
    stack_samples: int = 0
    overhead_cycles: int = 0
    frames_unwound: int = 0
    frames_reused: int = 0


class DataCentricProfiler(Hook):
    """Per-process online profiler; install with ``attach()``."""

    def __init__(self, process: "SimProcess", config: ProfilerConfig | None = None) -> None:
        self.process = process
        self.config = config or ProfilerConfig()
        self.static_map = StaticDataMap()
        self.heap_map = HeapDataMap()
        self.stack_map = StackDataMap()
        self.stats = ProfilerStats()
        self._thread_profiles: dict[str, ThreadProfile] = {}
        self._trampolines: dict[str, TrampolineUnwinder] = {}
        # Sample-path memo: the entries ``frame_entry`` builds, keyed by
        # (function, call-site IP), and those ``ip_entry`` builds, keyed
        # by leaf IP.  Both depend only on which modules are loaded where,
        # so the module hooks clear them.  Entries (and their ``info``
        # dicts) are shared by every node built from them; nothing may
        # mutate a node's ``info`` in place.
        self._frame_entries: dict[tuple, PathEntry] = {}
        self._leaf_entries: dict[int, PathEntry] = {}

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "DataCentricProfiler":
        """Attach to the process (idempotent).

        Module events do not arrive while detached, so every attach maps
        the modules loaded now afresh and drops the sample-path memo.
        """
        if self.process.attach(self):
            self.static_map = StaticDataMap()
            for module in self.process.modules:
                self.static_map.on_load(module)
            self._clear_path_memo()
        return self

    def detach(self) -> None:
        self.process.detach(self)

    def profile_for(self, thread: "SimThread") -> ThreadProfile:
        profile = self._thread_profiles.get(thread.name)
        if profile is None:
            profile = ThreadProfile(thread.name)
            self._thread_profiles[thread.name] = profile
        return profile

    def finalize(self) -> ProfileDB:
        """Produce this process's (per-thread) profile database."""
        db = ProfileDB(self.process.name)
        for name in sorted(self._thread_profiles):
            db.add_thread(self._thread_profiles[name])
        return db

    # -- overhead charging ----------------------------------------------------

    def _charge(self, thread: "SimThread", cycles: int) -> None:
        self.stats.overhead_cycles += cycles
        if self.config.charge_overhead:
            thread.clock += cycles

    def _context_cost(self) -> int:
        return GETCONTEXT_FAST if self.config.fast_context else GETCONTEXT_SLOW

    # -- hook: modules ----------------------------------------------------------

    def on_module_load(self, process: "SimProcess", module: "LoadModule") -> None:
        self._clear_path_memo()
        self.static_map.on_load(module)

    def on_module_unload(self, process: "SimProcess", module: "LoadModule") -> None:
        self._clear_path_memo()
        self.static_map.on_unload(module)

    # -- hook: allocator ----------------------------------------------------------

    def on_alloc(
        self, process: "SimProcess", thread: "SimThread", addr: int, nbytes: int,
        callsite_ip: int, kind: str, var: str | None = None,
    ) -> None:
        cfg = self.config
        self.stats.allocs_seen += 1
        threshold = cfg.track_threshold
        if threshold and nbytes < threshold:
            # Below-threshold block: remember the address so its free is
            # still processed, but capture no calling context (strategy 1).
            self.heap_map.register_anonymous(addr)
            self.stats.allocs_skipped_small += 1
            self._charge(thread, cfg.alloc_wrap_cost)
            return

        self._charge(thread, cfg.alloc_wrap_cost + self._context_cost())
        if cfg.use_trampoline:
            trampoline = self._trampolines.get(thread.name)
            if trampoline is None:
                trampoline = TrampolineUnwinder()
                self._trampolines[thread.name] = trampoline
            frames, unwound = trampoline.unwind(thread)
            self.stats.frames_unwound += unwound
            self.stats.frames_reused += len(frames) - unwound
            self._charge(thread, unwound * UNWIND_PER_FRAME)
        else:
            frames = [frame_entry(f) for f in thread.frames]
            self.stats.frames_unwound += len(frames)
            self._charge(thread, len(frames) * UNWIND_PER_FRAME)

        leaf = ip_entry(process, callsite_ip)
        key, info = leaf
        info = dict(info or {})
        info["alloc_kind"] = kind
        if var is not None:
            # Source-line annotation: the GUI shows the variable assigned
            # at the allocation call site.
            info["var"] = var
        leaf = (key, info)
        alloc_path = tuple(frames) + (leaf,)
        site_label = var or (leaf[1] or {}).get("label", "heap")
        self.heap_map.track(HeapVariable(addr, nbytes, alloc_path, site_label))
        self.stats.allocs_tracked += 1
        self._charge(thread, cfg.map_insert_cost)

    def on_free(self, process: "SimProcess", thread: "SimThread", addr: int) -> None:
        # All frees are wrapped (no context captured), so stale ranges
        # never survive to misattribute recycled addresses.
        self.stats.frees_seen += 1
        self.heap_map.untrack(addr)
        self._charge(thread, self.config.free_wrap_cost)

    def on_stack_alloc(
        self, process: "SimProcess", thread: "SimThread", name: str, addr: int, nbytes: int,
        fn: "Function", line: int,
    ) -> None:
        if not self.config.track_stack:
            return
        # Registering a compiler-described local costs one map insert.
        self._charge(thread, self.config.map_insert_cost)
        self.stack_map.register(
            StackVariable(
                name=name,
                thread_name=thread.name,
                function_name=fn.name,
                addr=addr,
                size=nbytes,
                decl_location=fn.source.location(line),
            )
        )

    def on_stack_free(self, process: "SimProcess", thread: "SimThread", addr: int) -> None:
        if not self.config.track_stack:
            return
        self.stack_map.release(thread.name, addr)

    # -- hook: PMU samples -----------------------------------------------------------

    def _clear_path_memo(self) -> None:
        self._frame_entries.clear()
        self._leaf_entries.clear()

    def _sample_path(
        self, process: "SimProcess", thread: "SimThread", leaf_ip: int | None
    ) -> list[PathEntry]:
        """``unwind_keys(process, thread, leaf_ip)``, built from the memo."""
        frame_entries = self._frame_entries
        path: list[PathEntry] = []
        for frame in thread.frames:
            key = (frame.function, frame.callsite_ip)
            entry = frame_entries.get(key)
            if entry is None:
                entry = frame_entries[key] = frame_entry(frame)
            path.append(entry)
        if leaf_ip is not None:
            entry = self._leaf_entries.get(leaf_ip)
            if entry is None:
                # ip_entry raises ProfileError for an IP outside every
                # loaded module; failures are not memoized.
                entry = self._leaf_entries[leaf_ip] = ip_entry(process, leaf_ip)
            path.append(entry)
        return path

    def on_sample(self, process: "SimProcess", thread: "SimThread", sample: "Sample") -> None:
        self.on_samples(process, thread, sample, 1)

    def on_samples(
        self, process: "SimProcess", thread: "SimThread", sample: "Sample", count: int
    ) -> None:
        """File ``count`` identical samples at once (an IBS compute-block burst).

        Unwinds and resolves once, and adds exactly what ``count``
        ``on_sample`` calls add: ``count`` samples on one path, ``count x``
        each per-sample overhead charge.
        """
        cfg = self.config
        self.stats.samples += count
        profile = self.profile_for(thread)
        depth = len(thread.frames)
        self._charge(
            thread,
            count * (cfg.sample_handler_cost + self._context_cost() + depth * UNWIND_PER_FRAME),
        )

        ea = sample.ea
        if ea is None:
            path = self._sample_path(process, thread, sample.precise_ip or None)
            profile.cct(StorageClass.NONMEM).add_sample_at(path, sample, count)
            return

        self.stats.mem_samples += count
        leaf_ip = sample.precise_ip if cfg.use_precise_ip else sample.interrupt_ip
        access_path = self._sample_path(process, thread, leaf_ip)

        self._charge(thread, count * cfg.map_lookup_cost)
        heap_var = self.heap_map.lookup(ea)
        if heap_var is not None:
            # Prepend the (possibly cross-thread) allocation call path,
            # then the dummy marker, then the access path (§4.1.4).
            path: list[PathEntry] = list(heap_var.alloc_path)
            path.append((HEAP_MARKER_KEY, HEAP_MARKER_INFO))
            path.extend(access_path)
            profile.cct(StorageClass.HEAP).add_sample_at(path, sample, count)
            self.stats.heap_samples += count
            return

        static_var = self.static_map.lookup(ea)
        if static_var is not None:
            path = [static_var_entry(static_var)]
            path.extend(access_path)
            profile.cct(StorageClass.STATIC).add_sample_at(path, sample, count)
            self.stats.static_samples += count
            return

        if cfg.track_stack:
            stack_var = self.stack_map.lookup(thread, ea)
            if stack_var is not None:
                path = [stack_var_entry(stack_var)]
                path.extend(access_path)
                profile.cct(StorageClass.STACK).add_sample_at(path, sample, count)
                self.stats.stack_samples += count
                return

        profile.cct(StorageClass.UNKNOWN).add_sample_at(access_path, sample, count)
        self.stats.unknown_samples += count
