"""The hook protocol: every event a simulated process sends its observers.

The paper's profiler sees a run through two event streams: PMU sample
interrupts and the allocation wrappers (§4.1.2–§4.1.4).  Every observer
of a :class:`~repro.sim.process.SimProcess` — the data-centric profiler,
its two baselines, the sanitizer, the obs agent — is a :class:`Hook`
attached with :meth:`SimProcess.attach`.  Emitters call each event
directly on every attached hook, in attach order; a subclass overrides
the events it needs and inherits a no-op for the rest.  Who emits what:

- ``SimProcess``: module load/unload, ``on_thread_create`` once per
  OpenMP worker, parallel-region begin/end, ``on_phase`` as a phase ends;
- ``Ctx``: heap blocks (``on_alloc``/``on_free``) and named stack ranges;
- the PMU engines (:mod:`repro.pmu`): ``on_sample``, and ``on_samples``
  for the k identical non-memory samples of an IBS compute block;
- ``MPIJob.run_one``: ``on_rank_complete`` once the rank's main returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.pmu.sample import Sample
    from repro.sim.loader import LoadModule
    from repro.sim.process import SimProcess
    from repro.sim.program import Function
    from repro.sim.thread import SimThread

__all__ = ["Hook"]


class Hook:
    """Base class of every process observer: every event defaults to a no-op.

    Delivery contract for samples: when ``on_sample``/``on_samples`` runs,
    ``thread.clock`` stands where it did right after the sampled
    instruction (after the whole block for an IBS burst, after the
    instruction the interrupt lands on under EBS skid), plus the overhead
    hooks charge to it: this hook's own, and that of the hooks attached
    before it, which take the sample first.
    """

    def on_module_load(self, process: SimProcess, module: LoadModule) -> None:
        """``module`` was just placed in the process's address space."""

    def on_module_unload(self, process: SimProcess, module: LoadModule) -> None:
        """``module`` is about to be unmapped; its symbols are still placed."""

    def on_thread_create(self, process: SimProcess, thread: SimThread) -> None:
        """A worker joined the process's OpenMP pool."""

    def on_parallel_begin(self, process: SimProcess, n_threads: int) -> None:
        """A parallel region of ``n_threads`` workers is about to start."""

    def on_parallel_end(self, process: SimProcess) -> None:
        """The region's implicit barrier passed (the master clock includes it)."""

    def on_phase(self, process: SimProcess, name: str, start_cycles: int, end_cycles: int) -> None:
        """Phase ``name`` ended; it spanned these master-clock cycles."""

    def on_rank_complete(self, process: SimProcess) -> None:
        """The rank's main returned."""

    def on_alloc(
        self, process: SimProcess, thread: SimThread, addr: int, nbytes: int,
        callsite_ip: int, kind: str, var: str | None = None,
    ) -> None:
        """A heap block was allocated (``kind`` "malloc"/"calloc", ``var`` its name)."""

    def on_free(self, process: SimProcess, thread: SimThread, addr: int) -> None:
        """A live heap block is about to be freed; invalid frees never arrive."""

    def on_stack_alloc(
        self, process: SimProcess, thread: SimThread, name: str, addr: int, nbytes: int,
        fn: Function, line: int,
    ) -> None:
        """Named stack range ``name`` was declared in ``fn`` at ``line``."""

    def on_stack_free(self, process: SimProcess, thread: SimThread, addr: int) -> None:
        """The named stack range at ``addr`` was retired."""

    def on_sample(self, process: SimProcess, thread: SimThread, sample: Sample) -> None:
        """One PMU sample was taken on ``thread``."""

    def on_samples(
        self, process: SimProcess, thread: SimThread, sample: Sample, count: int
    ) -> None:
        """``count`` identical samples; by default ``count`` ``on_sample`` calls."""
        for _ in range(count):
            self.on_sample(process, thread, sample)
