"""repro — a data-centric profiler for parallel programs (SC'13 reproduction).

Reimplementation of Liu & Mellor-Crummey, "A Data-centric Profiler for
Parallel Programs" (SC'13): HPCToolkit-style data-centric profiling —
attributing memory-access costs to *variables* as well as instructions
and full calling contexts — rebuilt on top of a simulated NUMA machine,
program substrate, and PMU (see DESIGN.md for the substitution table).

Typical use::

    from repro import (
        power7_node, SimProcess, DataCentricProfiler, Analyzer, MetricKind,
    )
    from repro.pmu import MarkedEventEngine, PM_MRK_DATA_FROM_RMEM

    machine = power7_node()
    process = SimProcess(machine)
    profiler = DataCentricProfiler(process).attach()
    process.pmu = MarkedEventEngine(PM_MRK_DATA_FROM_RMEM, period=64)
    # ... run an application (see repro.apps or examples/quickstart.py) ...
    exp = Analyzer("run").add(profiler.finalize()).analyze()
    print(exp.top_variables(MetricKind.REMOTE, 5))
"""

from repro.errors import (
    ReproError,
    ConfigError,
    AddressError,
    AllocationError,
    SimulationError,
    ProfileError,
)
from repro.machine import (
    Machine,
    MachineSpec,
    Topology,
    LatencyModel,
    MemoryHierarchy,
    power7_node,
    amd_magnycours,
    intel_ivybridge,
    tiny_machine,
)
from repro.sim import (
    Hook,
    SimProcess,
    SimThread,
    Ctx,
    SimArray,
    LoadModule,
    SourceFile,
    MPIJob,
    omp_chunk,
)
from repro.pmu import (
    IBSEngine,
    MarkedEventEngine,
    EBSEngine,
    PEBSEngine,
    Sample,
    PM_MRK_DATA_FROM_RMEM,
    PM_MRK_DATA_FROM_L3,
)
from repro.core import (
    DataCentricProfiler,
    ProfilerConfig,
    Analyzer,
    ExperimentDB,
    MetricKind,
    StorageClass,
    merge_profiles,
    reduction_tree_merge,
    render_top_down,
    render_bottom_up,
    render_variable_table,
    advise,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigError",
    "AddressError",
    "AllocationError",
    "SimulationError",
    "ProfileError",
    "Machine",
    "MachineSpec",
    "Topology",
    "LatencyModel",
    "MemoryHierarchy",
    "power7_node",
    "amd_magnycours",
    "intel_ivybridge",
    "tiny_machine",
    "Hook",
    "SimProcess",
    "SimThread",
    "Ctx",
    "SimArray",
    "LoadModule",
    "SourceFile",
    "MPIJob",
    "omp_chunk",
    "IBSEngine",
    "MarkedEventEngine",
    "EBSEngine",
    "PEBSEngine",
    "Sample",
    "PM_MRK_DATA_FROM_RMEM",
    "PM_MRK_DATA_FROM_L3",
    "DataCentricProfiler",
    "ProfilerConfig",
    "Analyzer",
    "ExperimentDB",
    "MetricKind",
    "StorageClass",
    "merge_profiles",
    "reduction_tree_merge",
    "render_top_down",
    "render_bottom_up",
    "render_variable_table",
    "advise",
    "__version__",
]
