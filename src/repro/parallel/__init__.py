"""Multiprocess profiling driver and post-mortem merge of rank files.

:mod:`repro.core.merge` *models* the paper's §4.2 MPI reduction tree
(it reports critical-path node visits but runs in one process).  This
package runs the measurement side for real and merges what it wrote:

- :mod:`repro.parallel.registry` — the apps the driver can run, by name;
- :mod:`repro.parallel.driver` — one worker OS process per simulated MPI
  rank, deterministic per-rank seeding, atomic ``.rpdb`` output files,
  crash/timeout detection with bounded retry;
- :mod:`repro.parallel.merge` — a streaming fold of the rank files, one
  decoded at a time, degrading to a partial merge that names its dropped
  files and missing ranks.
"""

from repro.parallel.driver import DriverReport, RankOutcome, profile_ranks
from repro.parallel.merge import merge_rpdb_files
from repro.parallel.registry import APPS, rank_runner, register_app, run_app_rank

__all__ = [
    "APPS",
    "DriverReport",
    "RankOutcome",
    "merge_rpdb_files",
    "profile_ranks",
    "rank_runner",
    "register_app",
    "run_app_rank",
]
