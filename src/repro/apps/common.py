"""Shared plumbing for the case-study apps."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.util.rng import derive_rank_seed

from repro.core.analyzer import Analyzer, ExperimentDB
from repro.core.profiledb import ProfileDB
from repro.core.profiler import DataCentricProfiler, ProfilerConfig
from repro.machine.presets import Machine
from repro.sim.process import SimProcess

__all__ = [
    "AppResult",
    "profile_attachment",
    "analyze_profilers",
    "as_rank_db",
    "single_process_rank",
]


@dataclass
class AppResult:
    """Outcome of one app run (one variant, profiled or not)."""

    app: str
    variant: str
    elapsed_cycles: int
    elapsed_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    profilers: list[DataCentricProfiler] = field(default_factory=list)
    experiment: ExperimentDB | None = None
    machines: list[Machine] = field(default_factory=list)
    pmu_engines: list = field(default_factory=list)

    @property
    def profiled(self) -> bool:
        return bool(self.profilers)

    def profile_size_bytes(self) -> int:
        return sum(p.finalize().size_bytes() for p in self.profilers)

    def overhead_vs(self, baseline: "AppResult") -> float:
        """Runtime overhead of this (profiled) run over a baseline run."""
        if baseline.elapsed_cycles == 0:
            return 0.0
        return (
            self.elapsed_cycles - baseline.elapsed_cycles
        ) / baseline.elapsed_cycles

    def speedup_over(self, other: "AppResult") -> float:
        """Wall-clock speedup of *this* run relative to ``other`` (>1 = faster)."""
        if self.elapsed_cycles == 0:
            return 0.0
        return other.elapsed_cycles / self.elapsed_cycles


def profile_attachment(
    pmu_factory: Callable[[], object] | None,
    profiler_config: ProfilerConfig | None = None,
) -> Callable[[SimProcess], DataCentricProfiler]:
    """Build an ``attach`` callback installing a profiler (+PMU) on a process."""

    def attach(process: SimProcess) -> DataCentricProfiler:
        profiler = DataCentricProfiler(process, profiler_config).attach()
        if pmu_factory is not None:
            process.pmu = pmu_factory()
        return profiler

    return attach


def as_rank_db(
    db: ProfileDB,
    app: str,
    rank: int,
    n_ranks: int,
    variant: str,
    seed: int,
    process: SimProcess | None = None,
) -> ProfileDB:
    """Stamp one rank's profile database with its provenance.

    The parallel driver writes this DB to ``measurements/<app>/<rank>.rpdb``;
    the metadata lets the merge (and a human with ``hpcview info``) tell
    which rank of which run a stray file belongs to.  When the simulated
    ``process`` is supplied, its elapsed cycles and machine preset ride
    along too; ``hpcview info`` prints them back.
    """
    db.process_name = f"{app}.rank{rank:04d}"
    db.meta.update(
        app=app,
        rank=str(rank),
        n_ranks=str(n_ranks),
        variant=variant,
        seed=str(seed),
    )
    if process is not None:
        db.meta["elapsed_cycles"] = str(process.elapsed_cycles)
        # The machine preset the rank ran on: the formula registry keys
        # per-architecture constant overrides (latencies, thresholds) on
        # this when deriving metrics from the merged profile.
        db.meta["machine"] = process.machine.spec.name
    return db


def single_process_rank(
    run_fn: Callable, app: str, cfg, rank: int, n_ranks: int
) -> ProfileDB:
    """Run one rank-shard of a single-process app under the parallel driver.

    Shared-memory apps (lulesh, nw, streamcluster) have no MPI ranks of
    their own; the driver treats each rank as an independent replica of
    the whole run, distinguished only by a decorrelated deterministic
    seed — the multi-trial measurement mode the paper uses to average
    sampling noise.
    """
    seed = derive_rank_seed(cfg.seed, rank)
    cfg = replace(cfg, seed=seed, profile=True)
    result = run_fn(cfg)
    profiler = result.profilers[0]
    return as_rank_db(
        profiler.finalize(), app, rank, n_ranks, cfg.variant, seed,
        process=profiler.process,
    )


def analyze_profilers(
    name: str, profilers: list[DataCentricProfiler]
) -> ExperimentDB | None:
    """Merge all profilers' databases into one experiment DB."""
    if not profilers:
        return None
    analyzer = Analyzer(name)
    for profiler in profilers:
        analyzer.add(profiler.finalize())
    return analyzer.analyze()
