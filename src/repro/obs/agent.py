"""Per-process observability agent (the sim-time half of the tracer).

One :class:`ObsAgent` attaches to one :class:`~repro.sim.process.SimProcess`
as an ordinary :class:`~repro.sim.hook.Hook`, next to the profiler.  It
records *sim-time* spans — phases (``on_phase``), ``Ctx.parallel``
regions, MPI ranks (``on_rank_complete``), malloc lifetimes — with
timestamps derived purely from simulated cycles, so traces are as
deterministic as the profiles themselves.

The agent is strictly read-only with respect to simulation state: it
never touches thread clocks, machine counters, or the heap, which is
what keeps profiles byte-identical whether or not a session is active
(pinned by tests/test_obs.py).

At :meth:`finalize` it folds the process's end-of-run state into the
session's metrics registry: every :class:`MachineStats` field, the
contention/DRAM queue model, heap allocator occupancy, sanitizer
counters when one is installed, and the profiler's self-overhead as a
dilation percentage (measurement cycles vs. total simulated cycles —
the paper's <3% claim, checked in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.hook import Hook

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import ObsSession
    from repro.sim.process import SimProcess
    from repro.sim.thread import SimThread

# Wall-domain events (driver, merge, codec) live in pid 0; simulated
# processes get pid = rank + SIM_PID_BASE so the two domains never
# collide in the timeline view.
SIM_PID_BASE = 1


class ObsAgent(Hook):
    """Hook recording sim-time spans and end-of-run metrics for a process."""

    def __init__(self, session: "ObsSession", process: "SimProcess") -> None:
        self.session = session
        self.process = process
        self.pid = SIM_PID_BASE + process.pid
        self.samples_seen = 0
        self._region_stack: list[tuple[int, int]] = []  # (start_cycles, n_threads)
        self._region_count = 0
        self._live_allocs: dict[int, tuple[int, int, int, str | None]] = {}
        self._malloc_spans = 0
        self._rank_span_emitted = False
        self._finalized = False
        trace = session.trace
        trace.process_name(self.pid, f"sim:{process.name}")
        trace.thread_name(self.pid, 0, f"{process.name}.main")

    # -- sim-time helpers ----------------------------------------------------

    def _us(self, cycles: int) -> float:
        return self.process.machine.cycles_to_seconds(cycles) * 1e6

    # -- hook events -----------------------------------------------------------

    def on_thread_create(self, process: "SimProcess", thread: "SimThread") -> None:
        self.session.trace.thread_name(
            self.pid, thread.thread_index, thread.name
        )

    def on_sample(self, process: "SimProcess", thread: "SimThread", sample) -> None:
        self.samples_seen += 1

    def on_alloc(
        self, process: "SimProcess", thread: "SimThread", addr: int, nbytes: int,
        callsite_ip: int, kind: str, var: str | None = None,
    ) -> None:
        if not self.session.config.trace_malloc:
            return
        self._live_allocs[addr] = (thread.clock, thread.thread_index, nbytes, var)

    def on_free(self, process: "SimProcess", thread: "SimThread", addr: int) -> None:
        entry = self._live_allocs.pop(addr, None)
        if entry is None:
            return
        self._emit_malloc_span(addr, entry, end_cycles=thread.clock)

    def on_samples(
        self, process: "SimProcess", thread: "SimThread", sample, count: int
    ) -> None:
        self.samples_seen += count

    def on_parallel_begin(self, process: "SimProcess", n_threads: int) -> None:
        self._region_stack.append((process.master.clock, n_threads))

    def on_parallel_end(self, process: "SimProcess") -> None:
        if not self._region_stack:
            return
        start, n_threads = self._region_stack.pop()
        self._region_count += 1
        end = process.master.clock
        self.session.trace.complete(
            name=f"parallel[{n_threads}t]",
            cat="parallel",
            ts_us=self._us(start),
            dur_us=self._us(end - start),
            pid=self.pid,
            tid=0,
            args={"n_threads": n_threads, "cycles": end - start},
        )

    def on_phase(
        self, process: "SimProcess", name: str, start_cycles: int, end_cycles: int
    ) -> None:
        self.session.trace.complete(
            name=f"phase:{name}",
            cat="phase",
            ts_us=self._us(start_cycles),
            dur_us=self._us(end_cycles - start_cycles),
            pid=self.pid,
            tid=0,
            args={"cycles": end_cycles - start_cycles},
        )

    def on_rank_complete(self, process: "SimProcess") -> None:
        """Emit the whole-rank span (also called from finalize as a backstop)."""
        if self._rank_span_emitted:
            return
        self._rank_span_emitted = True
        end = process.master.clock
        self.session.trace.complete(
            name=f"rank:{process.name}",
            cat="rank",
            ts_us=0.0,
            dur_us=self._us(end),
            pid=self.pid,
            tid=0,
            args={"pid": process.pid, "cycles": end},
        )

    # -- internals -----------------------------------------------------------

    def _emit_malloc_span(
        self, addr: int, entry: tuple[int, int, int, str | None], end_cycles: int
    ) -> None:
        start, tid, nbytes, var = entry
        end = max(end_cycles, start)
        self._malloc_spans += 1
        self.session.trace.complete(
            name=f"malloc:{var}" if var else "malloc",
            cat="malloc",
            ts_us=self._us(start),
            dur_us=self._us(end - start),
            pid=self.pid,
            tid=tid,
            args={"addr": addr, "bytes": nbytes},
        )

    # -- end-of-run metrics ---------------------------------------------------

    def finalize(self) -> None:
        """Close open spans and fold process state into session metrics."""
        if self._finalized:
            return
        self._finalized = True
        process = self.process
        now = process.master.clock
        for addr, entry in sorted(self._live_allocs.items()):
            self._emit_malloc_span(addr, entry, end_cycles=max(now, entry[0]))
        self._live_allocs.clear()
        self.on_rank_complete(process)

        metrics = self.session.metrics
        labels = {"process": process.name}

        # Machine layer: every MachineStats counter plus the queueing model.
        # Tuple-valued fields fan out into labelled series (per data-source
        # level, per NUMA node); scalars map 1:1.
        hierarchy = process.machine.hierarchy
        level_names = ("L1", "L2", "L3", "LMEM", "RMEM")
        for field, value in hierarchy.stats().to_dict().items():
            if isinstance(value, list):
                if "hop" in field:
                    key = "hops"
                elif "dram" in field:
                    key = "node"
                else:
                    key = "level"
                for i, item in enumerate(value):
                    sub = dict(labels)
                    sub[key] = (
                        level_names[i]
                        if key == "level" and i < len(level_names)
                        else str(i)
                    )
                    metrics.set_gauge(
                        f"repro_machine_{field}", item, sub,
                        help_text="end-of-run machine hierarchy counter",
                    )
            else:
                metrics.set_gauge(
                    f"repro_machine_{field}", value, labels,
                    help_text="end-of-run machine hierarchy counter",
                )
        # Derived-metric layer: evaluate the boundness formula DAG over
        # the live machine and fold every node value into the registry —
        # the same engine (and therefore the same numbers) behind
        # ``derive_from_machine`` and ``hpcview topdown``, replacing the
        # hand-rolled gauge arithmetic this block used to do.
        from repro.metrics.boundness import REGISTRY, evaluate_boundness
        from repro.metrics.sources import MachineSource

        result = evaluate_boundness(MachineSource(process.machine, now))
        for name, value in sorted(result.node_values().items()):
            metrics.set_gauge(
                f"repro_derived_{name}", value, labels,
                help_text=REGISTRY.node_doc(name) or "derived metric node",
            )
        metrics.set_gauge(
            "repro_machine_contention_queue_cycles", result["queue_bound"], labels,
            help_text="cycles spent queued on DRAM contention",
        )

        # Heap layer: allocator occupancy and the sanitizer's quarantine.
        heap = process.aspace.heap
        for attr in ("live_bytes", "peak_bytes", "alloc_count", "free_count"):
            metrics.set_gauge(
                f"repro_heap_{attr}", getattr(heap, attr), labels,
                help_text="heap allocator state",
            )
        metrics.set_gauge(
            "repro_sanitizer_quarantine_bytes", heap.quarantine_bytes, labels,
            help_text="bytes held in the sanitizer free-quarantine",
        )

        # Sanitizer layer (only when a sanitize session installed one).
        sanitizer = process.sanitizer
        if sanitizer is not None:
            for key, value in sorted(sanitizer.stats.items()):
                metrics.set_gauge(
                    f"repro_sanitizer_{key}", value, labels,
                    help_text="sanitizer activity counter",
                )
            metrics.set_gauge(
                "repro_sanitizer_findings", len(sanitizer.findings), labels,
                help_text="sanitizer findings for this process",
            )

        # Simulator layer.
        metrics.set_gauge(
            "repro_sim_elapsed_cycles", now, labels,
            help_text="master-clock cycles simulated",
        )
        metrics.set_gauge(
            "repro_sim_parallel_regions", self._region_count, labels,
            help_text="parallel regions executed",
        )
        metrics.set_gauge(
            "repro_sim_malloc_spans", self._malloc_spans, labels,
            help_text="malloc lifetime spans traced",
        )
        for name, cycles in sorted(process.phase_cycles.items()):
            metrics.set_gauge(
                "repro_sim_phase_cycles", cycles,
                {"process": process.name, "phase": name},
                help_text="cycles per named phase",
            )

        # Profiler self-overhead: dilation% vs simulated work (paper <3%).
        overhead = 0
        samples = self.samples_seen
        for hook in process.hooks:
            stats = getattr(hook, "stats", None)
            cycles = getattr(stats, "overhead_cycles", None)
            if cycles is not None:
                overhead += cycles
                samples = max(samples, getattr(stats, "samples", 0))
        if samples or overhead:
            metrics.set_gauge(
                "repro_profiler_samples", samples, labels,
                help_text="PMU samples handled",
            )
            metrics.set_gauge(
                "repro_profiler_overhead_cycles", overhead, labels,
                help_text="cycles charged to measurement machinery",
            )
            dilation = 100.0 * overhead / now if now else 0.0
            metrics.set_gauge(
                "repro_profiler_dilation_percent", dilation, labels,
                help_text="measurement dilation vs simulated work",
            )
            self.session.dilation_percents[process.name] = dilation
