"""Shared helpers: run results, statistics, seeded runners, work dirs, provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from importlib import import_module
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from statistics import median, quantiles
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Everything a run writes lives here (removed at exit; ignored by git).
SCRATCH = ROOT / ".perfbench"


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)   # printed, not gated

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[98]


def median_of_apps(per_app: dict[str, list[float]]) -> float:
    """Median over apps of each app's median: the typical app.  A pooled
    median would sit on the boundary between two apps' clusters."""
    return median([median(values) for values in per_app.values()])


def slowest_app(per_app: dict[str, list[float]]) -> float:
    """The slowest app's median: the tail of a run too short for a p99
    with ten samples beyond it."""
    return max(median(values) for values in per_app.values())


def layer_shares(seconds: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the traced time."""
    total = sum(seconds.values())
    return {layer: round(value / total, 4) if total else 0.0
            for layer, value in seconds.items()}


def app_seed(app: str, seed: int) -> int:
    """The app ``Config.seed`` a benchmark seed selects (decorrelated per app)."""
    return zlib.crc32(f"{app}/{seed}".encode())


def seeded_runner(app: str, seed: int, period_divisor: int = 1):
    """A rank-runner for ``register_app``: the app's own ``run_rank`` with
    ``Config.seed`` taken from the benchmark seed and, for dense sampling,
    the preset's PMU period divided by ``period_divisor``.

    The app module is imported inside the runner, so it loads in the
    driver's worker process and never in the parent.
    """

    def runner(rank: int, n_ranks: int, variant: str = "original",
               preset: str = "smoke"):
        module = import_module(f"repro.apps.{app}")
        cfg = module.rank_config(preset, variant)
        changes = {"seed": app_seed(app, seed)}
        if period_divisor > 1:
            changes["pmu_period"] = max(1, cfg.pmu_period // period_divisor)
        return module.run_rank(rank, n_ranks, variant, preset, cfg=replace(cfg, **changes))

    return runner


def parent_import_violations() -> list[str]:
    """Modules the parent must not hold before the driver forks: the same
    rule ``hpcview run`` keeps (no numpy, no app module)."""
    return sorted(
        name for name in sys.modules
        if name == "numpy" or name.startswith("repro.apps")
    )


@contextmanager
def workdir(tag: str) -> Iterator[Path]:
    """A private directory inside the checkout, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass   # another run's work dir or a kept trace is still there


def peak_child_rss_mb() -> float:
    """Largest resident set of any waited-for child process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _fs_type(path: Path) -> str:
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "none (not a git checkout)"
    return out.stdout.strip()


def _source_digest() -> str:
    """sha256 over the program's sources: identifies the code under test
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _flush_policy() -> str:
    store_py = SRC / "repro" / "serve" / "store.py"
    if "fsync" in store_py.read_text():
        return "fsync on commit"
    return "atomic rename, no fsync"


def provenance(workload: str, seed: int, why: str, store_dir: Path) -> dict:
    try:
        numpy_version = version("numpy")   # metadata only: no import
    except PackageNotFoundError:
        numpy_version = "absent"
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "store_fs": _fs_type(store_dir),
        "flush_policy": _flush_policy(),
    }
