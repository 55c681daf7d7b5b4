"""The per-process sanitizer: a hook plus access-check fast paths.

One :class:`Sanitizer` attaches to one :class:`repro.sim.SimProcess` as a
:class:`~repro.sim.hook.Hook` for the rare events — alloc, free, module
load, region begin/end — and ignores samples.  Its checks validate
rather than observe, so they stay outside the hook protocol:
:class:`repro.sim.runtime.Ctx` calls ``on_access``/``on_access_run`` on
its memory fast path, and ``check_free`` before any hook hears of a free,
when ``process.sanitizer`` is non-None (one is-None branch per access).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.varmap import StaticDataMap
from repro.sanitize.race import RaceDetector
from repro.sanitize.report import (
    KIND_DOUBLE_FREE,
    KIND_FALSE_SHARING,
    KIND_INVALID_FREE,
    KIND_LEAK,
    KIND_OOB_READ,
    KIND_OOB_WRITE,
    KIND_RACE_RW,
    KIND_RACE_WW,
    KIND_UAF,
    KIND_UNINIT_READ,
    AccessContext,
    Finding,
    VariableRef,
)
from repro.sanitize.shadow import S_FREED, S_LIVE, S_REDZONE, ShadowBlock, ShadowHeap
from repro.sim.hook import Hook

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

__all__ = ["SanitizerConfig", "Sanitizer"]


@dataclass(frozen=True)
class SanitizerConfig:
    """Tuning knobs; the defaults suit the bundled apps and defect corpus."""

    redzone: int = 64             # >= cache line, so neighbours never share one
    quarantine_capacity: int = 1 << 20  # freed bytes parked before reuse
    check_uninit: bool = True
    check_leaks: bool = False     # opt-in: long-lived apps never free at exit
    detect_races: bool = True
    false_sharing_min_alternations: int = 4
    max_region_records: int = 500_000
    max_findings_per_kind: int = 64


class Sanitizer(Hook):
    """Shadow-memory + race checking for one simulated process."""

    def __init__(self, process: "SimProcess", config: SanitizerConfig) -> None:
        self.process = process
        self.config = config
        self._heap = process.aspace.heap
        self._heap_lo = self._heap.base
        self._heap_hi = self._heap.base + self._heap.capacity
        self._page_size = 1 << process.machine.spec.page_bits
        self._shadow = ShadowHeap(process.machine.spec.page_bits)
        self._statics = StaticDataMap()
        if config.detect_races:
            self._races: RaceDetector | None = RaceDetector(
                line_bits=process.machine.hierarchy.line_bits,
                min_alternations=config.false_sharing_min_alternations,
                max_records=config.max_region_records,
            )
        else:
            self._races = None
        self._in_region = False
        self._findings: dict[tuple, Finding] = {}
        self._kind_counts: dict[str, int] = {}
        self._ip_locations: dict[int, str] = {}
        self._path_cache: dict[tuple, tuple[str, ...]] = {}
        self._finalized = False
        self.stats: dict[str, int] = {"allocs": 0, "frees": 0, "suppressed": 0}

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "Sanitizer":
        """Attach to the process: hook, heap redzones/quarantine, fast path."""
        heap = self._heap
        heap.redzone = self.config.redzone
        heap.quarantine_capacity = self.config.quarantine_capacity
        heap.set_evict_hook(self._on_quarantine_evict)
        for module in self.process.modules:
            self._statics.on_load(module)
        self.process.attach(self)
        self.process.sanitizer = self
        return self

    def finalize(self) -> None:
        """End of run: flush the quarantine and report leaks (if enabled)."""
        if self._finalized:
            return
        self._finalized = True
        if self.config.check_leaks:
            for blk in self._shadow.live_blocks():
                ctx = AccessContext(
                    thread="", location=blk.var.alloc_location, path=blk.var.alloc_path
                )
                self._emit(
                    (KIND_LEAK, blk.serial), KIND_LEAK, blk, blk.addr, (ctx,),
                    detail=f"{blk.nbytes}B still live at exit",
                )
        if self._races is not None:
            self.stats["region_epochs"] = self._races.epochs
            self.stats["dropped_race_records"] = self._races.dropped_records

    @property
    def findings(self) -> list[Finding]:
        return list(self._findings.values())

    # -- context helpers ----------------------------------------------------

    def _ip_location(self, ip: int) -> str:
        loc = self._ip_locations.get(ip)
        if loc is None:
            module = self.process.module_of_ip(ip)
            if module is None:
                loc = f"ip {ip:#x}"
            else:
                fn, line, _slot = module.resolve_ip(ip)
                loc = f"{fn.name}:{line} ({fn.source.location(line)})"
            self._ip_locations[ip] = loc
        return loc

    def _path_of(self, thread: "SimThread") -> tuple[str, ...]:
        frames = thread.frames
        if not frames:
            return ()
        key = (thread.name, frames[-1].serial)
        path = self._path_cache.get(key)
        if path is None:
            path = tuple(
                f"{f.function.name} ({f.function.location()})" for f in frames
            )
            self._path_cache[key] = path
        return path

    def _access_context(self, thread: "SimThread", ip: int) -> AccessContext:
        return AccessContext(thread.name, self._ip_location(ip), self._path_of(thread))

    def _variable_for(self, blk: ShadowBlock | None, ea: int) -> tuple[VariableRef, int]:
        if blk is not None:
            return blk.var, ea - blk.addr
        sv = self._statics.lookup(ea)
        if sv is not None:
            location = sv.source.location(sv.decl_line) if sv.source else sv.module.name
            return VariableRef(sv.name, "static", sv.size, location), ea - sv.address
        return VariableRef(f"<unmapped {ea:#x}>", "unknown", 0), 0

    # -- finding emission ----------------------------------------------------

    def _emit(self, key, kind, blk, ea, contexts, detail="") -> None:
        existing = self._findings.get(key)
        if existing is not None:
            existing.count += 1
            return
        if self._kind_counts.get(kind, 0) >= self.config.max_findings_per_kind:
            self.stats["suppressed"] += 1
            return
        var, offset = self._variable_for(blk, ea)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        self._findings[key] = Finding(
            kind=kind, variable=var, address=ea, offset=offset,
            contexts=tuple(contexts), detail=detail,
        )

    def _report(self, kind, blk, ea, thread, ip, extra_contexts=(), detail="") -> None:
        serial = blk.serial if blk is not None else -1
        contexts = (self._access_context(thread, ip),) + tuple(extra_contexts)
        self._emit((kind, serial, ip), kind, blk, ea, contexts, detail)

    # -- access fast paths (called from Ctx) ---------------------------------

    def on_access(self, thread, vaddr: int, ip: int, is_store: bool) -> None:
        if vaddr < self._heap_lo or vaddr >= self._heap_hi:
            return
        state, blk = self._shadow.classify(vaddr)
        if state == S_LIVE:
            if is_store:
                self._shadow.mark_written(vaddr)
            elif self.config.check_uninit and not self._shadow.is_written(vaddr):
                self._report(
                    KIND_UNINIT_READ, blk, vaddr, thread, ip,
                    detail="load from a page never stored to",
                )
        elif state == S_REDZONE:
            self._report(
                KIND_OOB_WRITE if is_store else KIND_OOB_READ, blk, vaddr, thread, ip,
                detail=f"access {vaddr - blk.addr - blk.nbytes}B past the block"
                if vaddr >= blk.addr else f"access {blk.addr - vaddr}B before the block",
            )
        elif state == S_FREED:
            extra = (blk.free_context,) if blk.free_context is not None else ()
            self._report(KIND_UAF, blk, vaddr, thread, ip, extra_contexts=extra)
        else:  # wild heap address: never allocated (or long recycled)
            self._report(
                KIND_OOB_WRITE if is_store else KIND_OOB_READ, None, vaddr, thread, ip,
                detail="heap address outside any allocation",
            )
        if self._in_region and self._races is not None:
            self._races.record(
                thread.thread_index, thread.name, vaddr, 1, 0, ip, is_store,
                self._path_of(thread),
            )

    def on_access_run(self, thread, base, count, stride, ip, is_store) -> None:
        if stride == 0 or count == 1:
            lo, hi = base, base + 1
        elif stride > 0:
            lo, hi = base, base + (count - 1) * stride + 1
        else:
            lo, hi = base + (count - 1) * stride, base + 1
        if hi <= self._heap_lo or lo >= self._heap_hi:
            return
        blk = self._shadow.block_at(lo)
        if (
            blk is not None
            and blk.state == S_LIVE
            and blk.addr <= lo
            and hi <= blk.addr + blk.nbytes
        ):
            # Whole run inside one live block: validate in O(pages), not O(n).
            if is_store:
                self._shadow.mark_written_range(lo, hi)
            elif self.config.check_uninit:
                bad = self._first_unwritten_of_run(lo, hi, base, count, stride)
                if bad is not None:
                    self._report(
                        KIND_UNINIT_READ, blk, bad, thread, ip,
                        detail="load from a page never stored to",
                    )
            if self._in_region and self._races is not None:
                self._races.record(
                    thread.thread_index, thread.name, base, count, stride, ip,
                    is_store, self._path_of(thread),
                )
            return
        # Slow path: the run leaves a live block (or starts outside one) —
        # classify each access individually so the finding is precise.
        addr = base
        for _ in range(count):
            self.on_access(thread, addr, ip, is_store)
            addr += stride

    def _first_unwritten_of_run(self, lo, hi, base, count, stride) -> int | None:
        if abs(stride) <= self._page_size:
            # Dense run: every page in the span is actually touched.
            return self._shadow.first_unwritten(lo, hi)
        addr = base
        for _ in range(count):
            if not self._shadow.is_written(addr):
                return addr
            addr += stride
        return None

    # -- free validation (called from Ctx.free before hooks) -----------------

    def check_free(self, thread, addr: int, ip: int) -> bool:
        """True when ``addr`` is a valid free target; otherwise report and
        return False (the simulated program continues past the bad free)."""
        if self._heap.size_of(addr) is not None:
            return True
        blk = self._shadow.block_at(addr)
        if blk is not None and blk.state == S_FREED and addr == blk.addr:
            extra = (blk.free_context,) if blk.free_context is not None else ()
            self._report(
                KIND_DOUBLE_FREE, blk, addr, thread, ip, extra_contexts=extra,
                detail="block was already freed",
            )
        else:
            detail = (
                f"interior pointer into {blk.var.name}" if blk is not None
                else "address was never returned by malloc"
            )
            self._report(KIND_INVALID_FREE, blk, addr, thread, ip, detail=detail)
        return False

    # -- hook protocol (observer events) -------------------------------------

    def on_alloc(self, process, thread, addr, nbytes, callsite_ip, kind, var=None) -> None:
        usable = self._heap.size_of(addr)
        rz = self._heap.redzone_of(addr)
        location = self._ip_location(callsite_ip)
        name = var if var else f"heap@{location}"
        ref = VariableRef(
            name=name, storage="heap", size=nbytes,
            alloc_location=location, alloc_path=self._path_of(thread),
        )
        self._shadow.add(
            ShadowBlock(addr, nbytes, addr - rz, addr + usable + rz, ref)
        )
        self.stats["allocs"] += 1

    def on_free(self, process, thread, addr) -> None:
        # Only valid frees reach the hooks (Ctx.free validates first).
        blk = self._shadow.block_at(addr)
        if blk is None:
            return
        blk.state = S_FREED
        path = self._path_of(thread)
        location = path[-1] if path else ""
        blk.free_context = AccessContext(thread.name, location, path)
        self.stats["frees"] += 1
        if self._heap.quarantine_capacity == 0:
            # No quarantine: the allocator reuses this range immediately, so
            # the shadow record must go now (no evict event will come).
            self._shadow.remove_outer(blk.outer_addr)

    def _on_quarantine_evict(self, outer_addr: int, outer_size: int) -> None:
        self._shadow.remove_outer(outer_addr)

    def on_parallel_begin(self, process, n_threads) -> None:
        self._in_region = True

    def on_parallel_end(self, process) -> None:
        self._in_region = False
        if self._races is None:
            return
        conflicts, sharing = self._races.end_region()
        for a, b in conflicts:
            kind = KIND_RACE_WW if (a.is_store and b.is_store) else KIND_RACE_RW
            ea = max(a.lo, b.lo)
            blk = self._shadow.block_at(ea)
            serial = blk.serial if blk is not None else -1
            contexts = (
                AccessContext(a.thread_name, self._ip_location(a.ip), a.path),
                AccessContext(b.thread_name, self._ip_location(b.ip), b.path),
            )
            key = (kind, serial, (min(a.ip, b.ip), max(a.ip, b.ip)))
            self._emit(
                key, kind, blk, ea, contexts,
                detail="concurrent conflicting accesses in one region epoch",
            )
        for inc in sharing:
            rep = inc.records[0]
            blk = self._shadow.block_at(rep.lo)
            serial = blk.serial if blk is not None else -1
            contexts = tuple(
                AccessContext(r.thread_name, self._ip_location(r.ip), r.path)
                for r in inc.records[:2]
            )
            ips = tuple(sorted({r.ip for r in inc.records}))
            key = (KIND_FALSE_SHARING, serial, inc.line_addr, ips)
            offsets = ",".join(str(o) for o in inc.offsets[:8])
            self._emit(
                key, KIND_FALSE_SHARING, blk, inc.line_addr, contexts,
                detail=(
                    f"line {inc.line_addr:#x}: {len(inc.records)} threads write "
                    f"offsets [{offsets}], {inc.alternations} alternations"
                ),
            )

    def on_module_load(self, process, module) -> None:
        self._statics.on_load(module)

    def on_module_unload(self, process, module) -> None:
        self._statics.on_unload(module)
