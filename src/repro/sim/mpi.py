"""Simulated MPI jobs: many ranks, each its own process/address space.

Ranks are executed one after another (their NUMA behaviour is intra-rank
— the paper notes pure-MPI codes have no NUMA problem precisely because
each rank is co-located with its data), but each rank gets a *real*
process: its own address space, allocator, threads, and profile.  Ranks
that share a node share that node's :class:`~repro.machine.presets.Machine`;
ranks on different nodes get separate machines, mirroring the paper's
4-node POWER7 runs with one MPI process per node.

Job wall time is the max over ranks, as for a real bulk-synchronous job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError
from repro.machine.presets import Machine
from repro.sim.process import SimProcess

__all__ = ["MPIJob", "RankResult", "JobResult"]


@dataclass
class RankResult:
    """Outcome of one rank's execution."""

    rank: int
    process: SimProcess
    elapsed_cycles: int
    phase_cycles: dict[str, int]
    attachment: Any = None  # e.g. the rank's profiler


@dataclass
class JobResult:
    """Outcome of the whole job."""

    ranks: list[RankResult] = field(default_factory=list)
    machines: dict[int, Machine] = field(default_factory=dict)

    @property
    def elapsed_cycles(self) -> int:
        return max((r.elapsed_cycles for r in self.ranks), default=0)

    def elapsed_seconds(self) -> float:
        if not self.machines:
            return 0.0
        machine = next(iter(self.machines.values()))
        return machine.cycles_to_seconds(self.elapsed_cycles)

    def phase_cycles(self) -> dict[str, int]:
        """Per-phase job time: max across ranks (bulk-synchronous phases)."""
        merged: dict[str, int] = {}
        for r in self.ranks:
            for name, cycles in r.phase_cycles.items():
                merged[name] = max(merged.get(name, 0), cycles)
        return merged

    def phase_seconds(self) -> dict[str, float]:
        machine = next(iter(self.machines.values()))
        return {k: machine.cycles_to_seconds(v) for k, v in self.phase_cycles().items()}

    def attachments(self) -> list[Any]:
        return [r.attachment for r in self.ranks if r.attachment is not None]


class MPIJob:
    """Launch configuration for a simulated MPI(+OpenMP) job."""

    def __init__(
        self,
        machine_factory: Callable[[], Machine],
        n_ranks: int,
        ranks_per_node: int = 1,
        threads_per_rank: int = 1,
    ) -> None:
        if n_ranks < 1 or ranks_per_node < 1 or threads_per_rank < 1:
            raise ConfigError("n_ranks, ranks_per_node, threads_per_rank must be >= 1")
        self.machine_factory = machine_factory
        self.n_ranks = n_ranks
        self.ranks_per_node = ranks_per_node
        self.threads_per_rank = threads_per_rank

    def node_of(self, rank: int) -> int:
        """Which simulated node hosts this rank."""
        return rank // self.ranks_per_node

    def run_one(
        self,
        rank: int,
        rank_main: Callable[[SimProcess, int, int], None],
        attach: Callable[[SimProcess], Any] | None = None,
        machine: Machine | None = None,
    ) -> RankResult:
        """Execute a single rank on ``machine`` (fresh node if omitted).

        The unit of work the multiprocess driver (:mod:`repro.parallel`)
        ships to a worker OS process: one rank, one simulated process,
        one profile.  Pass ``machine`` to co-locate several ranks on a
        shared node, as :meth:`run` does.
        """
        if not 0 <= rank < self.n_ranks:
            raise ConfigError(f"rank {rank} outside job of {self.n_ranks} ranks")
        if machine is None:
            machine = self.machine_factory()
        pin_base = (rank % self.ranks_per_node) * self.threads_per_rank
        if pin_base + self.threads_per_rank > machine.n_threads:
            raise ConfigError(
                f"rank {rank}: pinning {self.threads_per_rank} threads at "
                f"{pin_base} exceeds the node's {machine.n_threads} HW threads"
            )
        process = SimProcess(machine, pid=rank, pin_base=pin_base)
        attachment = attach(process) if attach is not None else None
        rank_main(process, rank, self.n_ranks)
        for hook in process.hooks:
            hook.on_rank_complete(process)
        return RankResult(
            rank=rank,
            process=process,
            elapsed_cycles=process.elapsed_cycles,
            phase_cycles=dict(process.phase_cycles),
            attachment=attachment,
        )

    def run(
        self,
        rank_main: Callable[[SimProcess, int, int], None],
        attach: Callable[[SimProcess], Any] | None = None,
    ) -> JobResult:
        """Execute ``rank_main(process, rank, n_ranks)`` for every rank.

        ``attach`` (if given) is called on each process before it runs —
        the hook point for installing a profiler — and its return value is
        kept in the rank's :class:`RankResult`.
        """
        result = JobResult()
        for rank in range(self.n_ranks):
            node = self.node_of(rank)
            machine = result.machines.get(node)
            if machine is None:
                machine = self.machine_factory()
                result.machines[node] = machine
            result.ranks.append(self.run_one(rank, rank_main, attach, machine))
        return result
