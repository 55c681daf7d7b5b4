"""Memory-controller bandwidth contention model.

Each NUMA node has one controller with finite bandwidth.  When many
threads funnel their DRAM traffic through a single controller — the
master-thread first-touch pathology of AMG/LULESH/Streamcluster/NW —
requests queue and effective latency grows.  This is the mechanism that
makes the paper's interleave/first-touch fixes deliver their 13-53%
speedups, so the simulator needs *some* model of it.

Model: simulated time is divided into windows (the scheduler rotates
them once per round-robin round).  From each window's measured traffic
the model derives, per node, a flat queueing delay charged to every DRAM
access in the *next* window::

    imbalance(node) = max(0, share(node) - 1/n) / (1 - 1/n)
    concurrency    = clamp((distinct issuing threads - 1) / 15, 0, 1)
    penalty(node)  = max_penalty * imbalance(node) * concurrency

- *Share-based*: a controller is punished for absorbing more than its
  fair share of the machine's DRAM traffic, independent of workload
  scale — all traffic on one of four nodes is full imbalance, perfectly
  interleaved traffic is zero.
- *Concurrency-gated*: a single thread cannot saturate a controller in
  this serialized-access simulator (it has no memory-level parallelism),
  so serial phases and one-rank-at-a-time MPI execution see no queueing.
- *Flat within a window*: charging every access the same delay keeps the
  model fair across threads under a round-robin scheduler; a
  backlog-positional model would bill the whole queue to whichever
  threads run late in the round.
- ``min_traffic`` is a per-window rate threshold: a window with fewer
  DRAM accesses is unloaded and discards its traffic and issuing-thread
  set (pinned by ``tests/test_machine_contention.py::TestUnloadedWindows``).
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["ControllerContention"]

_FULL_CONCURRENCY = 16  # issuing threads at which the concurrency gate saturates


class ControllerContention:
    """Windowed share-based congestion model, one queue per NUMA node."""

    __slots__ = (
        "n_nodes",
        "min_traffic",
        "max_penalty",
        "_counts",
        "_tids",
        "_penalty",
        "windows",
        "total_queue_cycles",
    )

    def __init__(
        self,
        n_nodes: int,
        capacity_per_window: int = 64,
        max_penalty: int = 300,
    ) -> None:
        if n_nodes < 1:
            raise ConfigError("need at least one NUMA node")
        if capacity_per_window < 1:
            raise ConfigError("controller capacity must be >= 1")
        if max_penalty < 0:
            raise ConfigError("max_penalty must be non-negative")
        self.n_nodes = n_nodes
        self.min_traffic = capacity_per_window
        self.max_penalty = max_penalty
        self._counts = [0] * n_nodes
        self._tids: set[int] = set()
        self._penalty = [0] * n_nodes
        self.windows = 0
        self.total_queue_cycles = 0

    def new_window(self) -> None:
        """Advance to the next time window (called by the scheduler)."""
        self.windows += 1
        counts = self._counts
        penalty = self._penalty
        n = self.n_nodes
        total = 0
        for c in counts:
            total += c
        concurrency = (len(self._tids) - 1) / (_FULL_CONCURRENCY - 1)
        if concurrency > 1.0:
            concurrency = 1.0
        if total < self.min_traffic or n < 2 or concurrency <= 0.0:
            for i in range(n):
                penalty[i] = 0
                counts[i] = 0
            self._tids.clear()
            return
        fair = 1.0 / n
        scale = self.max_penalty * concurrency / (1.0 - fair)
        for i in range(n):
            share = counts[i] / total
            excess = share - fair
            penalty[i] = int(scale * excess) if excess > 0.0 else 0
            counts[i] = 0
        self._tids.clear()

    def dram_access(self, node: int, hw_tid: int = 0) -> int:
        """Register one DRAM access to ``node``; return its queueing delay."""
        self._counts[node] += 1
        self._tids.add(hw_tid)
        delay = self._penalty[node]
        if delay:
            self.total_queue_cycles += delay
        return delay

    def window_load(self, node: int) -> int:
        """Accesses absorbed by ``node`` so far in the current window."""
        return self._counts[node]

    def congestion_delay(self, node: int) -> int:
        """The flat delay currently charged for ``node`` (for tests)."""
        return self._penalty[node]
