"""Program-execution substrate.

Simulated "programs" are Python generator kernels written against the
:class:`~repro.sim.runtime.Ctx` API: they declare functions with source
lines, call each other (building real call stacks), allocate static and
heap data, and issue loads/stores that flow through the simulated memory
hierarchy.  The profiler observes this world exactly the way HPCToolkit
observes a native process: PMU samples, malloc/free wrappers, and load
module symbol tables.
"""

from repro.sim.source import SourceFile
from repro.sim.program import Function
from repro.sim.loader import LoadModule, StaticVar
from repro.sim.address_space import AddressSpace
from repro.sim.malloc import HeapAllocator
from repro.sim.arrays import SimArray
from repro.sim.thread import SimThread, Frame
from repro.sim.hook import Hook
from repro.sim.process import SimProcess
from repro.sim.runtime import Ctx
from repro.sim.openmp import omp_chunk, omp_chunks, outlined_name, parse_outlined
from repro.sim.mpi import MPIJob, RankResult

__all__ = [
    "SourceFile",
    "Function",
    "LoadModule",
    "StaticVar",
    "AddressSpace",
    "HeapAllocator",
    "SimArray",
    "SimThread",
    "Frame",
    "Hook",
    "SimProcess",
    "Ctx",
    "omp_chunk",
    "omp_chunks",
    "outlined_name",
    "parse_outlined",
    "MPIJob",
    "RankResult",
]
