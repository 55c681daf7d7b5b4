"""The kernel-facing runtime API.

Application kernels (the :mod:`repro.apps` benchmarks) are written
against :class:`Ctx`: they declare call frames, allocate memory, and
issue loads/stores.  Every memory operation flows through the machine's
memory hierarchy and — when a PMU engine is attached — may trigger a
sample delivered to the profiler hooks, exactly mirroring the paper's
measurement path (PMU interrupt -> profiler signal handler).

Hot-path discipline: ``load_ip``/``store_ip`` take a *precomputed*
instruction pointer so inner loops pay one dict lookup (page table), a
few list operations (caches) and an integer add (clock) per access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterable

from repro.errors import AllocationError, SimulationError
from repro.sim.arrays import SimArray
from repro.sim.process import SimProcess
from repro.sim.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.loader import StaticVar
    from repro.sim.program import Function

__all__ = ["Ctx", "CALL_COST", "RET_COST", "MALLOC_COST", "FREE_COST"]

CALL_COST = 2        # cycles charged per simulated call
RET_COST = 1
MALLOC_COST = 80     # libc allocator bookkeeping cost
FREE_COST = 40
CALLOC_LINE_COST = 1  # streaming-zero cost per cache line beyond the page touch
COMM_LATENCY = 2000   # MPI message latency in cycles
COMM_CYCLES_PER_BYTE = 0.05


class Ctx:
    """Execution context of one simulated thread."""

    __slots__ = (
        "process", "thread", "_aspace", "_hier", "_compute_cycle",
        "_page_bits", "_san", "_sampler", "_access", "_hw_tid", "_node",
        "_page_home",
    )

    def __init__(self, process: SimProcess, thread: SimThread) -> None:
        self.process = process
        self.thread = thread
        self._aspace = process.aspace
        self._hier = process.machine.hierarchy
        self._compute_cycle = process.machine.spec.latency.compute_cycle
        self._page_bits = process.machine.spec.page_bits
        # Sanitizer fast path: captured once at context creation so the
        # disabled case costs one is-None branch per access (repro.sanitize
        # never imported -> process.sanitizer is always None).
        self._san = process.sanitizer
        # Run sampler, same pattern (repro.sim.sampling session active at
        # process creation -> sampled simulation; otherwise always None).
        self._sampler = process.sampler
        # Scalar access path, bound once: the hierarchy's access method,
        # the thread's placement (fixed for its lifetime) and the live
        # page table, so an already-placed page resolves with one dict
        # lookup and ``home_of`` runs only on first touch.
        self._access = self._hier.access
        self._hw_tid = thread.hw_tid
        self._node = thread.numa_node
        self._page_home = self._aspace.page_table

    # -- call-stack management ------------------------------------------------

    def enter(self, fn: "Function") -> None:
        """Push a root frame (thread start function / main)."""
        self.thread.push_frame(fn, 0)

    def leave(self) -> None:
        self.thread.pop_frame()

    def call(self, fn: "Function", line: int, gen: Generator) -> Generator:
        """Call a child kernel: ``yield from ctx.call(FN, line, kernel(ctx))``."""
        thread = self.thread
        callsite_ip = thread.current_function.ip(line)
        frame = thread.push_frame(fn, callsite_ip)
        thread.clock += CALL_COST
        result = yield from gen
        thread.pop_frame(frame)
        thread.clock += RET_COST
        return result

    def call_sync(self, fn: "Function", line: int, body: Callable, *args):
        """Call a non-yielding child function (e.g. an allocator shim)."""
        thread = self.thread
        callsite_ip = thread.current_function.ip(line)
        frame = thread.push_frame(fn, callsite_ip)
        thread.clock += CALL_COST
        try:
            return body(self, *args)
        finally:
            thread.pop_frame(frame)
            thread.clock += RET_COST

    def ip(self, line: int, slot: int = 0) -> int:
        """Precompute an instruction pointer in the current function."""
        return self.thread.current_function.ip(line, slot)

    # -- memory accesses (hot path) ---------------------------------------------

    def load_ip(self, vaddr: int, ip: int) -> int:
        """One load at a precomputed IP; returns its latency in cycles."""
        thread = self.thread
        san = self._san
        if san is not None:
            san.on_access(thread, vaddr, ip, False)
        home = self._page_home.get(vaddr >> self._page_bits)
        if home is None:
            home = self._aspace.home_of(vaddr, self._node)
        lat, lvl, tlbm = self._access(self._hw_tid, vaddr, home, False)
        thread.clock += lat
        thread.inst_count += 1
        thread.mem_count += 1
        sampler = self._sampler
        if sampler is not None:
            sampler.note_scalar()
        pmu = self.process.pmu
        if pmu is not None:
            pmu.note_mem(self.process, thread, ip, vaddr, lat, lvl, tlbm, False)
        return lat

    def store_ip(self, vaddr: int, ip: int) -> int:
        """One store at a precomputed IP; returns its latency in cycles."""
        thread = self.thread
        san = self._san
        if san is not None:
            san.on_access(thread, vaddr, ip, True)
        home = self._page_home.get(vaddr >> self._page_bits)
        if home is None:
            home = self._aspace.home_of(vaddr, self._node)
        lat, lvl, tlbm = self._access(self._hw_tid, vaddr, home, True)
        thread.clock += lat
        thread.inst_count += 1
        thread.mem_count += 1
        sampler = self._sampler
        if sampler is not None:
            sampler.note_scalar()
        pmu = self.process.pmu
        if pmu is not None:
            pmu.note_mem(self.process, thread, ip, vaddr, lat, lvl, tlbm, True)
        return lat

    def load(self, vaddr: int, line: int, slot: int = 0) -> int:
        return self.load_ip(vaddr, self.thread.current_function.ip(line, slot))

    def store(self, vaddr: int, line: int, slot: int = 0) -> int:
        return self.store_ip(vaddr, self.thread.current_function.ip(line, slot))

    def load_run(self, base: int, count: int, stride: int, ip: int) -> int:
        """``count`` loads at ``base + k*stride`` via the batched fast path.

        Equivalent to ``count`` scalar :meth:`load_ip` calls — same level
        counts, latencies, contention charges and PMU sample stream
        (enforced by ``tests/test_machine_bulk_access.py``) — but pays
        the per-access Python overhead once per *page* instead of once
        per access.  Returns the run's total latency in cycles.
        """
        return self._access_run(base, count, stride, ip, False)

    def store_run(self, base: int, count: int, stride: int, ip: int) -> int:
        """Batched form of ``count`` scalar :meth:`store_ip` calls."""
        return self._access_run(base, count, stride, ip, True)

    def _access_run(self, base: int, count: int, stride: int, ip: int, is_store: bool) -> int:
        if count <= 0:
            return 0
        san = self._san
        if san is not None:
            san.on_access_run(self.thread, base, count, stride, ip, is_store)
        thread = self.thread
        sampler = self._sampler
        if sampler is not None and not sampler.observe_run(count):
            # Sampled-out run: charge the estimated clock cost, touch no
            # machine state, deliver no PMU samples.  The sanitizer above
            # still saw the run — its analysis stays exact.
            est = sampler.estimate_skipped(count)
            thread.clock += est
            thread.inst_count += count
            thread.mem_count += count
            return est
        node = thread.numa_node
        hw_tid = thread.hw_tid
        home_of = self._aspace.home_of
        access_run = self._hier.access_run
        page_bits = self._page_bits
        pmu = self.process.pmu
        # With a PMU attached we must replay per-access results in order
        # (sample pacing is stateful); without one, bulk totals suffice.
        record: list | None = [] if pmu is not None else None

        total = 0
        if stride == 0:
            # Degenerate run: one page, one home.
            total = access_run(hw_tid, base, 0, count, home_of(base, node), is_store, record)
        else:
            # Split the run at page boundaries: each page may have a
            # different home node (first-touch/interleave placement), and
            # home_of itself commits first-touch, so it must be consulted
            # in access order — once per page, not once per access.
            # Consecutive page chunks with the *same* home are merged back
            # into one access_run call (home_of does not depend on access
            # effects, so consulting it a chunk early is unobservable):
            # merging only saves access_run calls, results are unchanged.
            cur = base
            remaining = count
            run_start = base
            run_count = 0
            run_home = 0
            while remaining > 0:
                if stride > 0:
                    boundary = ((cur >> page_bits) + 1) << page_bits
                    n = (boundary - cur + stride - 1) // stride
                else:
                    page_start = cur >> page_bits << page_bits
                    n = (cur - page_start) // -stride + 1
                if n > remaining:
                    n = remaining
                home = home_of(cur, node)
                if run_count and home == run_home:
                    run_count += n
                else:
                    if run_count:
                        total += access_run(
                            hw_tid, run_start, stride, run_count, run_home,
                            is_store, record,
                        )
                    run_start = cur
                    run_count = n
                    run_home = home
                cur += n * stride
                remaining -= n
            if run_count:
                total += access_run(
                    hw_tid, run_start, stride, run_count, run_home, is_store, record
                )

        if sampler is not None:
            sampler.note_simulated(count, total)
        if record is None:
            thread.clock += total
            thread.inst_count += count
            thread.mem_count += count
        else:
            note_mem = pmu.note_mem
            process = self.process
            vaddr = base
            for lat, lvl, tlbm in record:
                thread.clock += lat
                thread.inst_count += 1
                thread.mem_count += 1
                note_mem(process, thread, ip, vaddr, lat, lvl, tlbm, is_store)
                vaddr += stride
        return total

    def load_stride(self, base: int, count: int, stride: int, ip: int) -> None:
        """``count`` loads at ``base + k*stride`` (no scheduler yields inside)."""
        self._access_run(base, count, stride, ip, False)

    def store_stride(self, base: int, count: int, stride: int, ip: int) -> None:
        self._access_run(base, count, stride, ip, True)

    def compute(self, n: int = 1) -> None:
        """Advance the clock by ``n`` abstract ALU operations."""
        thread = self.thread
        thread.clock += n * self._compute_cycle
        thread.inst_count += n
        pmu = self.process.pmu
        if pmu is not None:
            pmu.note_compute(self.process, thread, n)

    # -- allocation ---------------------------------------------------------------

    def malloc(
        self, nbytes: int, line: int, kind: str = "malloc", var: str | None = None
    ) -> int:
        """Allocate heap memory at the current call site (profiler-wrapped).

        ``var`` is a source-level name hint: it models what the paper's
        GUI recovers by displaying the allocation call site's source line
        (e.g. ``S_diag_j = hypre_CTAlloc(...)``).
        """
        thread = self.thread
        addr = self._aspace.heap.malloc(nbytes)
        thread.clock += MALLOC_COST
        callsite_ip = thread.current_function.ip(line)
        for hook in self.process.hooks:
            hook.on_alloc(self.process, thread, addr, nbytes, callsite_ip, kind, var)
        return addr

    def calloc(self, nbytes: int, line: int, var: str | None = None) -> int:
        """malloc + zero-fill.

        Zeroing is performed *by the calling thread*: one store per page
        (this is what commits first-touch placement) plus a streaming cost
        for the remaining lines of each page.  That single behaviour is the
        root of the master-thread NUMA pathologies in the case studies.
        """
        addr = self.malloc(nbytes, line, kind="calloc", var=var)
        page_size = 1 << self._page_bits
        lines_per_page = page_size >> self._hier.line_bits
        first_page = addr & ~(page_size - 1)
        end = addr + nbytes
        n_pages = (end - first_page + page_size - 1) >> self._page_bits
        self.touch_range(addr, nbytes, line)
        # Streaming-zero cost for the rest of each page, in one bulk add
        # (the scalar interleaving of these pure clock advances with the
        # page-touch stores is unobservable — nothing reads the clock
        # between them).
        self.thread.clock += n_pages * (lines_per_page - 1) * CALLOC_LINE_COST
        return addr

    def free(self, addr: int, line: int) -> None:
        thread = self.thread
        san = self._san
        if san is not None and not san.check_free(
            thread, addr, thread.current_function.ip(line)
        ):
            # Double/invalid free: recorded as a finding; the simulated
            # program keeps running (glibc would abort, but aborting would
            # hide every later defect in the same run).  Hooks must NOT
            # fire — the tracked block, if any, is still live.
            thread.clock += FREE_COST
            return
        # Validate liveness BEFORE notifying hooks: a double/invalid free
        # must raise without untracking the still-live variable from the
        # profiler's heap map (hooks are observers, not validators).
        heap = self._aspace.heap
        if heap.size_of(addr) is None:
            raise AllocationError(f"free of non-live address {addr:#x}")
        for hook in self.process.hooks:
            hook.on_free(self.process, thread, addr)
        heap.free(addr)
        thread.clock += FREE_COST

    def alloc_array(
        self,
        name: str,
        shape: Iterable[int],
        line: int,
        elem: int = 8,
        order: str = "C",
        kind: str = "malloc",
    ) -> SimArray:
        """Allocate a heap array (malloc or calloc) and wrap it as a view."""
        shape = tuple(shape)
        nbytes = elem * self._numel(shape)
        if kind == "calloc":
            base = self.calloc(nbytes, line, var=name)
        elif kind == "malloc":
            base = self.malloc(nbytes, line, var=name)
        else:
            raise SimulationError(f"unknown allocation kind {kind!r}")
        return SimArray(name, base, shape, elem=elem, order=order)

    @staticmethod
    def _numel(shape: tuple[int, ...]) -> int:
        n = 1
        for s in shape:
            n *= s
        return n

    def static_array(
        self,
        var: "StaticVar",
        shape: Iterable[int],
        elem: int = 8,
        order: str = "C",
    ) -> SimArray:
        """View a static (.bss) variable as an array."""
        shape = tuple(shape)
        nbytes = elem * self._numel(shape)
        if nbytes > var.size:
            raise SimulationError(
                f"static {var.name}: view of {nbytes}B exceeds symbol size {var.size}B"
            )
        return SimArray(var.name, var.address, shape, elem=elem, order=order)

    def touch_range(self, start: int, nbytes: int, line: int) -> None:
        """Store to one address per page in [start, start+nbytes).

        The parallel-initialization idiom: each thread touching its own
        chunk places those pages locally under first-touch.
        """
        if nbytes <= 0:
            return
        page_size = 1 << self._page_bits
        ip = self.thread.current_function.ip(line)
        end = start + nbytes
        # Scalar order: one store at `start`, then one per page boundary
        # inside the range — expressed as a page-stride run so large
        # ranges take the batched path.
        self.store_ip(start, ip)
        boundary = (start & ~(page_size - 1)) + page_size
        if boundary < end:
            n = (end - boundary + page_size - 1) >> self._page_bits
            self.store_run(boundary, n, page_size, ip)

    def declare_stack_var(self, name: str, nbytes: int, line: int) -> int:
        """Reserve a named stack range in the current frame.

        Models a compiler-described local (what DWARF variable records
        would give a real tool); profilers with stack tracking enabled
        attribute accesses to it (the paper's §7 extension).
        """
        thread = self.thread
        addr = thread.stack_alloc(nbytes)
        fn = thread.current_function
        for hook in self.process.hooks:
            handler = getattr(hook, "on_stack_alloc", None)
            if handler is not None:
                handler(self.process, thread, name, addr, nbytes, fn, line)
        return addr

    def release_stack_var(self, addr: int) -> None:
        """Retire a named stack range (frame exit)."""
        for hook in self.process.hooks:
            handler = getattr(hook, "on_stack_free", None)
            if handler is not None:
                handler(self.process, self.thread, addr)

    # -- OpenMP / MPI -----------------------------------------------------------

    def parallel(
        self,
        outlined_fn: "Function",
        worker_factory: Callable[["Ctx", int], Generator],
        n_threads: int,
        line: int,
    ) -> None:
        """Run an OpenMP-style parallel region (blocks until the barrier)."""
        self.process.run_parallel(self, outlined_fn, worker_factory, n_threads, line)

    def comm(self, nbytes: int) -> None:
        """Charge the cost of sending/receiving an MPI message."""
        self.thread.clock += COMM_LATENCY + int(nbytes * COMM_CYCLES_PER_BYTE)
