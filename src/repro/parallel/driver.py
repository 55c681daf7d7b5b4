"""Multiprocess profiling driver: one worker OS process per MPI rank.

``profile_ranks`` runs every simulated rank of an app in its own worker
process (at most ``jobs`` concurrently), each worker serializing its
:class:`~repro.core.profiledb.ProfileDB` with the binary codec into
``<out_root>/<app>/<rank>.rpdb``.  Per-rank RNG seeding is deterministic
(:func:`repro.util.rng.derive_rank_seed` inside each app's ``run_rank``),
so a retried or re-run rank produces byte-identical output.

Failure handling: workers that crash or exceed ``timeout`` are detected
by the parent, retried a bounded number of times, and then reported as
failed ranks — the driver never hangs and never raises for a subset of
bad ranks; callers see the degradation in :class:`DriverReport`, and
:func:`repro.parallel.merge.merge_rpdb_files` lists the ranks with no
``.rpdb`` in the merged DB's ``missing_ranks`` and marks it partial.

Output files are written atomically (``.tmp`` + ``os.replace``) so a
killed worker can never leave a torn ``.rpdb`` behind; a failing worker
leaves a ``<rank>.err`` file with its traceback instead.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.parallel.registry import run_app_rank

__all__ = ["DriverReport", "RankOutcome", "profile_ranks", "rank_path"]

_POLL_SECONDS = 0.02


def _obs_session():
    """The active repro.obs session, if that subsystem is even imported."""
    obs_mod = sys.modules.get("repro.obs")
    return obs_mod.active_session() if obs_mod is not None else None


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def rank_path(out_root: str | Path, app: str, rank: int) -> Path:
    """Measurement-directory layout: ``<out_root>/<app>/<rank>.rpdb``."""
    return Path(out_root) / app / f"{rank:04d}.rpdb"


@dataclass
class RankOutcome:
    """What happened to one rank across all its attempts.

    Recorded for every rank — including ranks whose every attempt
    failed — so duration/retry accounting never has to be scraped out
    of ``.err`` files.  ``elapsed_seconds`` spans first launch to final
    settle (queue wait between retries included); ``attempt_seconds``
    holds each individual attempt's wall-clock duration.
    """

    rank: int
    path: str | None          # final .rpdb path, None if the rank failed
    attempts: int
    elapsed_seconds: float
    error: str | None = None  # last failure reason, None on success
    attempt_seconds: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.path is not None

    @property
    def retries(self) -> int:
        return max(self.attempts - 1, 0)


@dataclass
class DriverReport:
    """Summary of one ``profile_ranks`` invocation."""

    app: str
    variant: str
    preset: str
    n_ranks: int
    jobs: int
    out_dir: str
    outcomes: list[RankOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failed_ranks(self) -> list[int]:
        return [o.rank for o in self.outcomes if not o.ok]

    @property
    def paths(self) -> list[Path]:
        return [Path(o.path) for o in self.outcomes if o.path is not None]

    def summary(self) -> str:
        n_ok = sum(1 for o in self.outcomes if o.ok)
        status = "ok" if self.ok else f"PARTIAL (failed ranks: {self.failed_ranks})"
        return (
            f"{self.app}: {n_ok}/{self.n_ranks} ranks profiled in "
            f"{self.elapsed_seconds:.2f}s with {self.jobs} worker(s) — {status}"
        )


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write via a same-directory .tmp file + rename: readers never see
    a torn file, and a worker killed mid-write leaves only the .tmp."""
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _rank_worker(
    app: str, rank: int, n_ranks: int, variant: str, preset: str, out_path: str
) -> None:
    """Worker-process entry point: profile one rank and persist it."""
    path = Path(out_path)
    err_path = path.with_suffix(".err")
    try:
        db = run_app_rank(app, rank, n_ranks, variant=variant, preset=preset)
        _atomic_write(path, db.to_bytes())
        err_path.unlink(missing_ok=True)
    except BaseException:
        try:
            _atomic_write(err_path, traceback.format_exc().encode())
        finally:
            os._exit(1)


@dataclass
class _Attempt:
    rank: int
    tries: int
    process: mp.process.BaseProcess
    deadline: float
    started: float
    obs_start_us: float = 0.0  # session-clock launch time when tracing


def _read_error(out_path: Path, default: str) -> str:
    err_path = out_path.with_suffix(".err")
    try:
        return err_path.read_text().strip() or default
    except OSError:
        return default


def profile_ranks(
    app: str,
    n_ranks: int,
    out_root: str | Path = "measurements",
    *,
    variant: str = "original",
    preset: str = "smoke",
    jobs: int | None = None,
    timeout: float = 300.0,
    retries: int = 1,
    start_method: str | None = None,
) -> DriverReport:
    """Profile ``n_ranks`` ranks of ``app``, each in its own process.

    Returns a :class:`DriverReport`; never raises for individual rank
    failures (crash, timeout, bad output) — those are retried up to
    ``retries`` times and then recorded as failed outcomes.
    """
    if n_ranks < 1:
        raise ConfigError("n_ranks must be >= 1")
    if timeout <= 0:
        raise ConfigError("timeout must be positive")
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if jobs is None:
        jobs = min(n_ranks, _available_cpus())
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    jobs = min(jobs, n_ranks)

    # fork (where available) inherits runtime register_app() entries and
    # skips re-importing the world per rank; spawn is the portable fallback.
    if start_method is None:
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(start_method)

    out_dir = Path(out_root) / app
    out_dir.mkdir(parents=True, exist_ok=True)

    obs = _obs_session()
    obs_t0 = obs.clock.now_us() if obs is not None else 0.0
    t0 = time.monotonic()
    pending: list[tuple[int, int]] = [(rank, 1) for rank in range(n_ranks)]
    pending.reverse()  # pop() from the tail -> ranks launch in order
    running: list[_Attempt] = []
    outcomes: dict[int, RankOutcome] = {}
    rank_started: dict[int, float] = {}
    attempt_seconds: dict[int, list[float]] = {}

    def launch(rank: int, tries: int) -> None:
        out_path = rank_path(out_root, app, rank)
        out_path.unlink(missing_ok=True)
        process = ctx.Process(
            target=_rank_worker,
            args=(app, rank, n_ranks, variant, preset, str(out_path)),
            name=f"{app}-rank{rank}",
            daemon=True,
        )
        process.start()
        now = time.monotonic()
        rank_started.setdefault(rank, now)
        obs_start = obs.clock.now_us() if obs is not None else 0.0
        running.append(
            _Attempt(rank, tries, process, now + timeout, now, obs_start)
        )

    def settle(attempt: _Attempt, error: str | None) -> None:
        """Record a finished attempt: success, retry, or final failure."""
        rank = attempt.rank
        now = time.monotonic()
        elapsed = now - rank_started[rank]
        durations = attempt_seconds.setdefault(rank, [])
        durations.append(now - attempt.started)
        if obs is not None:
            obs.trace.complete(
                name=f"rank{rank}#try{attempt.tries}",
                cat="driver",
                ts_us=attempt.obs_start_us,
                dur_us=obs.clock.now_us() - attempt.obs_start_us,
                pid=0,
                tid=1,
                args={"rank": rank, "try": attempt.tries, "error": error},
            )
            obs.metrics.inc(
                "repro_driver_attempts_total", 1, {"app": app},
                help_text="rank worker attempts launched",
            )
            if error is not None and error.startswith("timed out"):
                obs.metrics.inc(
                    "repro_driver_timeouts_total", 1, {"app": app},
                    help_text="rank attempts killed on timeout",
                )
        if error is None:
            outcomes[rank] = RankOutcome(
                rank, str(rank_path(out_root, app, rank)), attempt.tries,
                elapsed, attempt_seconds=durations,
            )
        elif attempt.tries <= retries:
            pending.append((rank, attempt.tries + 1))
        else:
            outcomes[rank] = RankOutcome(
                rank, None, attempt.tries, elapsed, error,
                attempt_seconds=durations,
            )

    while pending or running:
        while pending and len(running) < jobs:
            launch(*pending.pop())

        time.sleep(_POLL_SECONDS)
        now = time.monotonic()
        still_running: list[_Attempt] = []
        for attempt in running:
            process = attempt.process
            out_path = rank_path(out_root, app, attempt.rank)
            if process.is_alive():
                if now < attempt.deadline:
                    still_running.append(attempt)
                    continue
                process.terminate()
                process.join(5.0)
                if process.is_alive():  # ignored SIGTERM: escalate
                    process.kill()
                    process.join()
                settle(attempt, f"timed out after {timeout:.1f}s")
            else:
                process.join()
                if process.exitcode == 0 and out_path.is_file():
                    settle(attempt, None)
                elif process.exitcode == 0:
                    settle(attempt, "worker exited cleanly without output")
                elif process.exitcode == 1:
                    settle(
                        attempt,
                        _read_error(out_path, "worker failed (no traceback)"),
                    )
                else:
                    settle(
                        attempt,
                        f"worker died with exit code {process.exitcode} "
                        "(killed or crashed)",
                    )
            process.close()

        running = still_running

    report = DriverReport(
        app=app,
        variant=variant,
        preset=preset,
        n_ranks=n_ranks,
        jobs=jobs,
        out_dir=str(out_dir),
        outcomes=[outcomes[rank] for rank in sorted(outcomes)],
        elapsed_seconds=time.monotonic() - t0,
    )
    if obs is not None:
        obs.trace.complete(
            name=f"profile_ranks:{app}",
            cat="driver",
            ts_us=obs_t0,
            dur_us=obs.clock.now_us() - obs_t0,
            pid=0,
            tid=1,
            args={"n_ranks": n_ranks, "jobs": jobs},
        )
        metrics = obs.metrics
        labels = {"app": app}
        metrics.set_gauge(
            "repro_driver_ranks", n_ranks, labels,
            help_text="ranks requested from the driver",
        )
        metrics.set_gauge(
            "repro_driver_ranks_failed", len(report.failed_ranks), labels,
            help_text="ranks with no successful attempt",
        )
        metrics.set_gauge(
            "repro_driver_retries_total",
            sum(o.retries for o in report.outcomes), labels,
            help_text="retry attempts across all ranks",
        )
        for outcome in report.outcomes:
            metrics.observe(
                "repro_driver_rank_seconds", outcome.elapsed_seconds, labels,
                help_text="per-rank wall time, launch to settle",
            )
    return report
