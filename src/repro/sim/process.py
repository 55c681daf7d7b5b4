"""A simulated process: address space, load modules, threads, phases.

One :class:`SimProcess` corresponds to one MPI rank (or the single
process of a pure-OpenMP run).  It owns the master thread, a persistent
OpenMP worker pool (workers keep their identity across parallel regions,
like a real runtime's thread pool), the loaded modules, and the attached
measurement hooks (:class:`~repro.sim.hook.Hook`: the profiler, the
sanitizer, the obs agent), which it and its emitters call directly.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import ConfigError, SimulationError
from repro.machine.presets import Machine
from repro.sim.address_space import AddressSpace
from repro.sim.hook import Hook
from repro.sim.loader import LoadModule
from repro.sim.scheduler import drive
from repro.sim.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.stats import MachineStats
    from repro.sim.program import Function
    from repro.sim.runtime import Ctx

__all__ = ["SimProcess"]


class SimProcess:
    """One simulated process pinned to a contiguous block of HW threads."""

    def __init__(
        self,
        machine: Machine,
        pid: int = 0,
        name: str | None = None,
        pin_base: int = 0,
        heap_capacity: int = 1 << 32,
    ) -> None:
        if pin_base < 0 or pin_base >= machine.n_threads:
            raise ConfigError(f"pin_base {pin_base} outside machine")
        self.machine = machine
        self.pid = pid
        self.name = name or f"rank{pid}"
        self.pin_base = pin_base
        self.aspace = AddressSpace(
            asid=pid,
            memmgr=machine.hierarchy.memmgr,
            page_bits=machine.spec.page_bits,
            heap_capacity=heap_capacity,
        )
        self.modules: list[LoadModule] = []
        # Attached observers in attach order; only attach/detach replace it.
        self.hooks: tuple[Hook, ...] = ()
        self.pmu = None  # PMU engine shared by all threads of this process
        self.sanitizer = None  # set by repro.sanitize when a session is active

        topo = machine.topology
        self.master = SimThread(
            name=f"{self.name}.main",
            hw_tid=pin_base,
            numa_node=topo.numa_of(pin_base),
            thread_index=0,
            stack_base=self.aspace.stack_base(0),
        )
        self._omp_pool: dict[int, SimThread] = {}
        self.phase_cycles: dict[str, int] = {}
        self.phase_stats: dict[str, "MachineStats"] = {}
        self._phase: str | None = None
        self.quantum = 2

        # Activation seam of the sanitizer and obs sessions: a package is
        # consulted only once it has been imported, so runs that never touch
        # either pay a dict lookup per process, and nothing per access.
        for package in ("repro.sanitize", "repro.obs"):
            module = sys.modules.get(package)
            if module is not None:
                module.maybe_attach(self)

    # -- hooks --------------------------------------------------------------

    def attach(self, hook: Hook) -> bool:
        """Attach ``hook`` after the others; False if it already is attached."""
        if not isinstance(hook, Hook):
            raise ConfigError(f"cannot attach {type(hook).__name__}: not a repro.sim.Hook")
        if any(h is hook for h in self.hooks):
            return False
        self.hooks += (hook,)
        return True

    def detach(self, hook: Hook) -> None:
        """Detach ``hook``; a no-op when it is not attached."""
        self.hooks = tuple(h for h in self.hooks if h is not hook)

    # -- modules ------------------------------------------------------------

    def load_module(self, module: LoadModule) -> LoadModule:
        text = self.aspace.reserve_text(max(module.text_size, 0x1000))
        static = self.aspace.reserve_static(max(module.static_size, 0x1000))
        module.place(text, static)
        self.modules.append(module)
        for hook in self.hooks:
            hook.on_module_load(self, module)
        return module

    def unload_module(self, module: LoadModule) -> None:
        if module not in self.modules:
            raise SimulationError(f"{module.name} is not loaded in {self.name}")
        for hook in self.hooks:
            hook.on_module_unload(self, module)
        self.modules.remove(module)
        module.unplace()

    def module_of_ip(self, ip: int) -> LoadModule | None:
        for module in self.modules:
            if module.contains_ip(ip):
                return module
        return None

    # -- threads -----------------------------------------------------------

    def omp_thread(self, omp_tid: int) -> SimThread:
        """Worker ``omp_tid`` of the persistent OpenMP pool (created lazily)."""
        thread = self._omp_pool.get(omp_tid)
        if thread is None:
            hw = self.pin_base + omp_tid
            if hw >= self.machine.n_threads:
                raise ConfigError(
                    f"omp thread {omp_tid} exceeds machine HW threads "
                    f"(pin_base={self.pin_base})"
                )
            topo = self.machine.topology
            thread = SimThread(
                name=f"{self.name}.omp{omp_tid}",
                hw_tid=hw,
                numa_node=topo.numa_of(hw),
                thread_index=omp_tid + 1,
                stack_base=self.aspace.stack_base(omp_tid + 1),
            )
            self._omp_pool[omp_tid] = thread
            for hook in self.hooks:
                hook.on_thread_create(self, thread)
        return thread

    def all_threads(self) -> list[SimThread]:
        return [self.master] + [self._omp_pool[k] for k in sorted(self._omp_pool)]

    # -- phases & time -------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Bucket elapsed cycles into a named phase (AMG's init/setup/solve).

        Elapsed time is the master thread's clock: serial work advances it
        directly and parallel regions bump it by the slowest worker's
        delta, so a phase's cost is just the master-clock delta across it.
        Machine self-instrumentation deltas (:class:`MachineStats`) are
        bucketed the same way into ``phase_stats``.
        """
        outer = self._phase
        self._phase = name
        self.phase_cycles.setdefault(name, 0)
        hierarchy = self.machine.hierarchy
        start = self.master.clock
        start_stats = hierarchy.stats()
        try:
            yield
        finally:
            self.phase_cycles[name] += self.master.clock - start
            delta = hierarchy.stats() - start_stats
            prev = self.phase_stats.get(name)
            self.phase_stats[name] = delta if prev is None else prev + delta
            self._phase = outer
            for hook in self.hooks:
                hook.on_phase(self, name, start, self.master.clock)

    @property
    def elapsed_cycles(self) -> int:
        return self.master.clock

    def elapsed_seconds(self) -> float:
        return self.machine.cycles_to_seconds(self.elapsed_cycles)

    def phase_seconds(self) -> dict[str, float]:
        return {
            k: self.machine.cycles_to_seconds(v) for k, v in self.phase_cycles.items()
        }

    def phase_access_rates(self) -> dict[str, float]:
        """Simulated memory accesses per elapsed cycle, per phase.

        Self-instrumentation: phases whose rate collapses relative to
        their siblings are the latency-bound ones (the machine spent its
        cycles waiting, not issuing).
        """
        rates: dict[str, float] = {}
        for name, stats in self.phase_stats.items():
            cycles = self.phase_cycles.get(name, 0)
            rates[name] = stats.accesses / cycles if cycles else 0.0
        return rates

    # -- execution -----------------------------------------------------------

    def run_serial(self, gen: Generator) -> None:
        """Drive a single (master-thread) generator to completion."""
        drive([gen], self.machine.hierarchy, quantum=self.quantum)

    def run_parallel(
        self,
        master_ctx: "Ctx",
        outlined_fn: "Function",
        worker_factory: Callable[["Ctx", int], Generator],
        n_threads: int,
        line: int,
    ) -> None:
        """Execute one OpenMP-style parallel region.

        ``worker_factory(ctx, omp_tid)`` builds each worker's generator.
        Workers' call stacks are rooted at the outlined function whose
        call site is the master's current (function, line) — so profile
        views show `...$$OL$$...` frames called from the region's source
        location, as HPCToolkit does.
        """
        from repro.sim.runtime import Ctx  # local import to avoid a cycle

        if n_threads < 1:
            raise ConfigError("parallel region needs >= 1 thread")
        for hook in self.hooks:
            hook.on_parallel_begin(self, n_threads)
        callsite_ip = master_ctx.thread.current_function.ip(line)
        workers = []
        gens = []
        starts = []
        for omp_tid in range(n_threads):
            thread = self.omp_thread(omp_tid)
            thread.frames.clear()
            thread.push_frame(outlined_fn, callsite_ip)
            ctx = Ctx(self, thread)
            workers.append(thread)
            starts.append(thread.clock)
            gens.append(worker_factory(ctx, omp_tid))
        drive(gens, self.machine.hierarchy, quantum=self.quantum)
        deltas = [t.clock - s for t, s in zip(workers, starts)]
        region_cycles = max(deltas)
        # The master waits at the implicit barrier for the slowest worker;
        # elapsed/phase accounting reads the master clock, so this is the
        # only bookkeeping the region needs.
        self.master.clock += region_cycles
        for thread in workers:
            thread.frames.clear()
        # The implicit barrier above is the happens-before edge the race
        # detector relies on: everything after this point is ordered after
        # every access inside the region.
        for hook in self.hooks:
            hook.on_parallel_end(self)
