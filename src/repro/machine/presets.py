"""Machine presets mirroring the paper's two testbeds.

Cache/TLB capacities are *scaled down* relative to the real parts by
roughly the same factor as the benchmark working sets, so that the
simulated workloads (10^5-10^6 accesses) exercise the same hierarchy
levels the real runs did.  Latency ratios follow the real machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.machine.contention import ControllerContention
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.latency import LatencyModel
from repro.machine.topology import Topology

__all__ = [
    "MachineSpec",
    "Machine",
    "power7_spec",
    "power7_node",
    "amd_magnycours_spec",
    "amd_magnycours",
    "intel_ivybridge_spec",
    "intel_ivybridge",
    "tiny_spec",
    "tiny_machine",
    "builtin_specs",
]


@dataclass
class MachineSpec:
    """Everything needed to instantiate a :class:`Machine`."""

    name: str
    sockets: int
    cores_per_socket: int
    smt: int = 1
    numa_per_socket: int = 1
    latency: LatencyModel = field(default_factory=LatencyModel)
    line_bits: int = 6
    page_bits: int = 12
    l1_sets: int = 16
    l1_assoc: int = 4
    l2_sets: int = 64
    l2_assoc: int = 8
    l3_sets: int = 256
    l3_assoc: int = 8
    tlb_sets: int = 8
    tlb_assoc: int = 4
    contention_capacity: int = 64
    contention_max_penalty: int = 400
    prefetch: bool = True
    clock_hz: float = 2.0e9  # converts simulated cycles to reported seconds
    # Optional per-preset boundness-triage thresholds.  None means "use
    # the engine defaults" (0.25 / 0.4 / 0.2 — the paper's §5 gates);
    # a preset modelling a machine with, say, a much flatter remote
    # penalty can loosen the NUMA gate here and the formula registry
    # picks it up as a per-architecture constant override.
    memory_bound_fraction: float | None = None
    numa_bound_remote: float | None = None
    tlb_pressure: float | None = None

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")

    @property
    def n_numa_nodes(self) -> int:
        return self.sockets * self.numa_per_socket

    @property
    def avg_remote_hops(self) -> float:
        """Mean interconnect distance to a *remote* NUMA node, assuming a
        uniform remote-access distribution over the topology.

        ``Topology.hops`` distances: same-socket/different-die nodes are
        1 hop, cross-socket nodes are 2.  From any node there are
        ``numa_per_socket - 1`` one-hop peers and the rest are two hops,
        so symmetric one-node-per-socket machines average exactly 2.0
        while multi-die packages (e.g. Magny-Cours) sit below it.  Used
        as the remote-DRAM pricing fallback when no observed per-hop
        counts are available.
        """
        n = self.n_numa_nodes
        if n <= 1:
            return 0.0
        one_hop = self.numa_per_socket - 1
        two_hop = n - 1 - one_hop
        return (one_hop + 2 * two_hop) / (n - 1)


class Machine:
    """A fully instantiated simulated machine."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self.topology = Topology(
            sockets=spec.sockets,
            cores_per_socket=spec.cores_per_socket,
            smt=spec.smt,
            numa_per_socket=spec.numa_per_socket,
        )
        contention = ControllerContention(
            n_nodes=self.topology.n_numa_nodes,
            capacity_per_window=spec.contention_capacity,
            max_penalty=spec.contention_max_penalty,
        )
        self.hierarchy = MemoryHierarchy(
            self.topology,
            spec.latency,
            line_bits=spec.line_bits,
            page_bits=spec.page_bits,
            l1_sets=spec.l1_sets,
            l1_assoc=spec.l1_assoc,
            l2_sets=spec.l2_sets,
            l2_assoc=spec.l2_assoc,
            l3_sets=spec.l3_sets,
            l3_assoc=spec.l3_assoc,
            tlb_sets=spec.tlb_sets,
            tlb_assoc=spec.tlb_assoc,
            contention=contention,
            prefetch=spec.prefetch,
        )

    @property
    def n_threads(self) -> int:
        return self.topology.n_threads

    @property
    def n_numa_nodes(self) -> int:
        return self.topology.n_numa_nodes

    @property
    def page_size(self) -> int:
        return 1 << self.spec.page_bits

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.spec.clock_hz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.spec.name}, threads={self.n_threads}, numa={self.n_numa_nodes})"


def power7_spec(smt: int = 4) -> MachineSpec:
    """Spec for one node of the paper's POWER7 cluster."""
    return MachineSpec(
        name="power7-node",
        sockets=4,
        cores_per_socket=8,
        smt=smt,
        numa_per_socket=1,
        l3_sets=128,
        latency=LatencyModel(
            l1=2, l2=8, l3=26, local_dram=130, hop=100, tlb_walk=45
        ),
    )


def power7_node(smt: int = 4) -> Machine:
    """One node of the paper's POWER7 cluster: 4 sockets, 32 cores,
    up to 128 hardware threads, 4 NUMA domains."""
    return Machine(power7_spec(smt))


def amd_magnycours_spec() -> MachineSpec:
    """Spec for the paper's AMD Magny-Cours box."""
    return MachineSpec(
        name="amd-magnycours",
        sockets=4,
        cores_per_socket=12,
        smt=1,
        numa_per_socket=2,
        l3_sets=128,
        contention_max_penalty=120,
        latency=LatencyModel(
            l1=3, l2=12, l3=40, local_dram=150, hop=70, tlb_walk=50
        ),
    )


def amd_magnycours() -> Machine:
    """The paper's 48-core AMD Magny-Cours box: 4 packages x 12 cores,
    two dies (NUMA domains) per package = 8 NUMA domains."""
    return Machine(amd_magnycours_spec())


def intel_ivybridge_spec(sockets: int = 2) -> MachineSpec:
    """Spec for a dual-socket Ivy Bridge-EP-style box."""
    return MachineSpec(
        name="intel-ivybridge",
        sockets=sockets,
        cores_per_socket=12,
        smt=2,
        numa_per_socket=1,
        l3_sets=256,
        contention_max_penalty=200,
        latency=LatencyModel(
            l1=4, l2=12, l3=34, local_dram=140, hop=60, tlb_walk=40
        ),
    )


def intel_ivybridge(sockets: int = 2) -> Machine:
    """A dual-socket Ivy Bridge-EP-style box (the paper's §7 mentions the
    post-publication PEBS port): 2 sockets x 12 cores x HT2, 2 NUMA
    domains, flatter remote penalty than POWER7."""
    return Machine(intel_ivybridge_spec(sockets))


def tiny_spec(
    sockets: int = 2,
    cores_per_socket: int = 2,
    smt: int = 1,
    numa_per_socket: int = 1,
    prefetch: bool = True,
) -> MachineSpec:
    """Spec for the small unit-test machine."""
    return MachineSpec(
        name="tiny",
        sockets=sockets,
        cores_per_socket=cores_per_socket,
        smt=smt,
        numa_per_socket=numa_per_socket,
        l1_sets=4,
        l1_assoc=2,
        l2_sets=8,
        l2_assoc=2,
        l3_sets=16,
        l3_assoc=4,
        tlb_sets=4,
        tlb_assoc=2,
        contention_capacity=32,
        prefetch=prefetch,
    )


def tiny_machine(
    sockets: int = 2,
    cores_per_socket: int = 2,
    smt: int = 1,
    numa_per_socket: int = 1,
    prefetch: bool = True,
) -> Machine:
    """A small machine for unit tests: fast to build, easy to reason about."""
    return Machine(
        tiny_spec(sockets, cores_per_socket, smt, numa_per_socket, prefetch)
    )


def builtin_specs() -> tuple[MachineSpec, ...]:
    """Default-configuration specs of every bundled preset, by which the
    formula registry registers its per-architecture constant overrides."""
    return (power7_spec(), amd_magnycours_spec(), intel_ivybridge_spec(), tiny_spec())
