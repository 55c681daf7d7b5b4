"""The multiprocess driver and the pool-based reduction-tree merge.

Covers the real-parallel acceptance properties: worker-per-rank
profiling with deterministic output, the process-pool merge producing
canonical bytes identical to the sequential merge with MergeStats
matching the modelled schedule, and graceful degradation (killed
workers, crashing apps, corrupt blobs) into *reported* partial results
instead of hangs or crashes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

from repro.core.cct import KIND_FRAME, KIND_IP
from repro.core.merge import merge_profiles, reduction_tree_merge
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ConfigError, ProfileError
from repro.parallel import (
    merge_rpdb_files,
    parallel_reduction_merge,
    profile_ranks,
    rank_runner,
    register_app,
    run_app_rank,
)
from repro.parallel.driver import rank_path
from repro.pmu.sample import Sample

REPO = Path(__file__).resolve().parent.parent
HAVE_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="test-registered apps require fork inheritance"
)


def _sample(latency=10, level=3):
    return Sample("T", 1, 1, 0x10, latency, level, False, False, 64)


def _synthetic_db(i: int) -> ProfileDB:
    db = ProfileDB(f"p{i}")
    for t in range(2):
        profile = ThreadProfile(f"p{i}.t{t}")
        profile.cct(StorageClass.HEAP).add_sample_at(
            [
                ((KIND_FRAME, "main", 0), None),
                ((KIND_IP, "kernel", 100 + (i % 5), 0), None),
            ],
            _sample(latency=3 + i + t),
        )
        db.add_thread(profile)
    return db


def _tiny_rank(rank, n_ranks, variant="original", preset="smoke"):
    """A fast app stand-in: real work shape, no simulator cost."""
    db = _synthetic_db(rank)
    db.process_name = f"tiny.rank{rank:04d}"
    db.meta.update(rank=str(rank), n_ranks=str(n_ranks))
    return db


class TestRegistry:
    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError, match="unknown app"):
            rank_runner("no-such-app")

    def test_registered_app_runs_in_process(self):
        register_app("tiny", _tiny_rank)
        db = run_app_rank("tiny", 1, 4)
        assert db.process_name == "tiny.rank0001"
        assert db.meta["n_ranks"] == "4"

    def test_builtin_apps_resolve(self):
        for app in ("amg2006", "lulesh", "nw", "streamcluster", "sweep3d"):
            assert callable(rank_runner(app))

    # amg2006 stamps its own MPI ranks; lulesh goes through single_process_rank.
    @pytest.mark.parametrize("app", ["amg2006", "lulesh"])
    def test_builtin_rank_db_carries_provenance(self, app):
        # perfbench fingerprints a job's simulated cycles from this meta.
        db = run_app_rank(app, 0, 1)
        assert db.meta["app"] == app
        assert int(db.meta["elapsed_cycles"]) > 0
        cfg = import_module(f"repro.apps.{app}").rank_config("smoke", "original")
        assert db.meta["machine"] == cfg.machine_factory().spec.name

    def test_rank_workers_never_import_numpy(self):
        # A forked rank worker pays for every module the simulator
        # imports; the machine model and all five apps are pure Python.
        # Runs in a fresh interpreter so no other test's imports count.
        code = (
            "import sys\n"
            "from repro.machine.presets import Machine, builtin_specs\n"
            "from repro.parallel.registry import APPS, run_app_rank\n"
            "for spec in builtin_specs():\n"
            "    Machine(spec)\n"
            "for app in APPS:\n"
            "    run_app_rank(app, 0, 2)\n"
            "assert 'numpy' not in sys.modules, 'a rank imported numpy'\n"
            "sys.stdout.write('NUMPY-FREE %d' % len(APPS))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "NUMPY-FREE 5"


@needs_fork
class TestDriver:
    def test_smoke_writes_one_rpdb_per_rank(self, tmp_path):
        register_app("tiny", _tiny_rank)
        report = profile_ranks("tiny", 4, tmp_path, jobs=2, timeout=60)
        assert report.ok and report.failed_ranks == []
        assert len(report.paths) == 4
        for rank in range(4):
            path = rank_path(tmp_path, "tiny", rank)
            assert path.is_file()
            db = ProfileDB.from_bytes(path.read_bytes())
            assert db.meta["rank"] == str(rank)
        assert "4/4 ranks" in report.summary()

    def test_output_deterministic_across_runs(self, tmp_path):
        """Same app + ranks -> byte-identical .rpdb files (the property
        that makes crash-retry safe)."""
        from repro.apps import lulesh

        first = profile_ranks("lulesh", 2, tmp_path / "a", jobs=2, timeout=120)
        second = profile_ranks("lulesh", 2, tmp_path / "b", jobs=2, timeout=120)
        assert first.ok and second.ok
        for p1, p2 in zip(first.paths, second.paths):
            assert p1.read_bytes() == p2.read_bytes()
        # Worker output == in-process output, and ranks are decorrelated.
        in_proc = lulesh.run_rank(0, 2)
        assert first.paths[0].read_bytes() == in_proc.to_bytes()
        assert first.paths[0].read_bytes() != first.paths[1].read_bytes()

    def test_killed_worker_reported_not_hung(self, tmp_path):
        def killer(rank, n_ranks, variant="original", preset="smoke"):
            if rank == 1:
                os.kill(os.getpid(), 9)
            return _tiny_rank(rank, n_ranks, variant, preset)

        register_app("killer", killer)
        report = profile_ranks("killer", 3, tmp_path, jobs=2, timeout=60, retries=1)
        assert not report.ok
        assert report.failed_ranks == [1]
        (failed,) = [o for o in report.outcomes if o.rank == 1]
        assert failed.attempts == 2  # first try + one retry
        assert "exit code -9" in failed.error
        assert len(report.paths) == 2  # survivors still written

    def test_crashing_app_traceback_surfaced(self, tmp_path):
        def broken(rank, n_ranks, variant="original", preset="smoke"):
            raise RuntimeError(f"rank {rank} exploded")

        register_app("broken", broken)
        report = profile_ranks("broken", 2, tmp_path, jobs=2, timeout=60, retries=0)
        assert report.failed_ranks == [0, 1]
        assert "rank 0 exploded" in report.outcomes[0].error

    def test_hung_worker_times_out(self, tmp_path):
        def hangy(rank, n_ranks, variant="original", preset="smoke"):
            time.sleep(600)

        register_app("hangy", hangy)
        t0 = time.monotonic()
        report = profile_ranks("hangy", 1, tmp_path, jobs=1, timeout=0.5, retries=0)
        assert time.monotonic() - t0 < 30
        assert not report.ok
        assert "timed out" in report.outcomes[0].error

    def test_no_torn_files_from_killed_worker(self, tmp_path):
        """Atomic write: a dead worker leaves no .rpdb (not a torn one)."""

        def die_mid_run(rank, n_ranks, variant="original", preset="smoke"):
            os.kill(os.getpid(), 9)

        register_app("die", die_mid_run)
        report = profile_ranks("die", 2, tmp_path, jobs=2, timeout=60, retries=0)
        assert report.failed_ranks == [0, 1]
        out_dir = tmp_path / "die"
        assert sorted(p.name for p in out_dir.glob("*.rpdb")) == []

    def test_per_attempt_durations_recorded(self, tmp_path):
        register_app("tiny", _tiny_rank)
        report = profile_ranks("tiny", 3, tmp_path, jobs=2, timeout=60)
        assert report.ok
        for outcome in report.outcomes:
            assert outcome.attempts == 1 and outcome.retries == 0
            assert len(outcome.attempt_seconds) == 1
            assert 0.0 <= outcome.attempt_seconds[0] <= outcome.elapsed_seconds

    def test_failed_ranks_carry_durations_and_retries(self, tmp_path):
        """Satellite: duration/retry accounting exists even when every
        attempt failed — no scraping .err files or timing by hand."""

        def killer(rank, n_ranks, variant="original", preset="smoke"):
            if rank == 1:
                os.kill(os.getpid(), 9)
            return _tiny_rank(rank, n_ranks, variant, preset)

        register_app("killer-durations", killer)
        report = profile_ranks(
            "killer-durations", 2, tmp_path, jobs=2, timeout=60, retries=2
        )
        (failed,) = [o for o in report.outcomes if o.rank == 1]
        assert not failed.ok
        assert failed.attempts == 3 and failed.retries == 2
        assert len(failed.attempt_seconds) == 3
        assert all(d >= 0.0 for d in failed.attempt_seconds)
        # elapsed spans first launch -> final settle, so it bounds any
        # single attempt from above.
        assert failed.elapsed_seconds >= max(failed.attempt_seconds)
        (survivor,) = [o for o in report.outcomes if o.rank == 0]
        assert survivor.ok and survivor.retries == 0
        assert len(survivor.attempt_seconds) == 1

    def test_timed_out_attempt_duration_near_timeout(self, tmp_path):
        def hangy(rank, n_ranks, variant="original", preset="smoke"):
            time.sleep(600)

        register_app("hangy-durations", hangy)
        report = profile_ranks(
            "hangy-durations", 1, tmp_path, jobs=1, timeout=0.5, retries=0
        )
        (outcome,) = report.outcomes
        assert not outcome.ok and "timed out" in outcome.error
        assert len(outcome.attempt_seconds) == 1
        assert outcome.attempt_seconds[0] >= 0.5

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            profile_ranks("tiny", 0, tmp_path)
        with pytest.raises(ConfigError):
            profile_ranks("tiny", 1, tmp_path, timeout=0)
        with pytest.raises(ConfigError):
            profile_ranks("tiny", 1, tmp_path, jobs=0)


class TestParallelMerge:
    def _blobs(self, n):
        return [_synthetic_db(i).to_bytes() for i in range(n)]

    @pytest.mark.parametrize("n,arity", [(1, 2), (2, 2), (5, 2), (9, 4), (16, 2)])
    def test_byte_identical_to_sequential_merge(self, n, arity):
        dbs = [_synthetic_db(i) for i in range(n)]
        expected = merge_profiles(dbs, "job").canonical_bytes()
        merged, stats, report = parallel_reduction_merge(
            [db.to_bytes() for db in dbs], "job", arity=arity, jobs=2
        )
        assert merged.canonical_bytes() == expected
        assert merged.meta == {}
        assert not report.partial

    @pytest.mark.parametrize("n,arity", [(2, 2), (7, 2), (9, 4)])
    def test_stats_match_modelled_schedule(self, n, arity):
        dbs = [_synthetic_db(i) for i in range(n)]
        _, model = reduction_tree_merge(dbs, "job", arity=arity)
        _, real, _ = parallel_reduction_merge(
            [db.to_bytes() for db in dbs], "job", arity=arity, jobs=2
        )
        assert real.per_round_visits == model.per_round_visits
        assert real.critical_path_visits == model.critical_path_visits
        assert real.node_visits == model.node_visits
        assert real.rounds == model.rounds
        assert real.profiles_in == model.profiles_in
        assert real.pairwise_merges == model.pairwise_merges

    def test_corrupt_blob_degrades_to_reported_partial(self):
        blobs = self._blobs(4)
        blobs[2] = b"RPDB" + b"\x00" * 8  # bad version/garbage
        merged, _, report = parallel_reduction_merge(blobs, "job", jobs=2)
        assert report.partial
        assert [label for label, _ in report.dropped] == ["input[2]"]
        assert merged.meta["partial"] == "true"
        assert merged.meta["dropped"] == "input[2]"
        survivors = [_synthetic_db(i) for i in (0, 1, 3)]
        expected = merge_profiles(survivors, "job")
        merged.meta.clear()
        assert merged.canonical_bytes() == expected.canonical_bytes()

    def test_all_corrupt_raises(self):
        with pytest.raises(ProfileError, match="nothing to merge"):
            parallel_reduction_merge([b"junk", b"trash"], jobs=1)
        with pytest.raises(ProfileError):
            parallel_reduction_merge([])

    def test_merge_rpdb_files_skips_unreadable(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"{i}.rpdb"
            path.write_bytes(_synthetic_db(i).to_bytes())
            paths.append(path)
        paths.append(tmp_path / "missing.rpdb")
        merged, _, report = merge_rpdb_files(paths, "job", jobs=2)
        assert report.partial
        assert merged.meta["dropped_count"] == "1"
        assert "missing.rpdb" in merged.meta["dropped"]

    @needs_fork
    def test_end_to_end_driver_then_merge(self, tmp_path):
        register_app("tiny", _tiny_rank)
        report = profile_ranks("tiny", 6, tmp_path, jobs=2, timeout=60)
        assert report.ok
        merged, stats, mreport = merge_rpdb_files(report.paths, "job", jobs=2)
        dbs = [ProfileDB.from_bytes(p.read_bytes()) for p in report.paths]
        assert merged.canonical_bytes() == merge_profiles(dbs, "job").canonical_bytes()
        assert stats.profiles_in == 12  # 6 ranks x 2 threads
        assert not mreport.partial


@needs_fork
class TestHpcviewCLI:
    def test_run_then_merge_quickstart(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        register_app("tiny", _tiny_rank)
        out = tmp_path / "meas"
        code = main([
            "run", "--app", "tiny", "--ranks", "3", "--jobs", "2",
            "--out", str(out),
        ])
        assert code == 0
        ranks = sorted((out / "tiny").glob("*.rpdb"))
        assert len(ranks) == 3

        job = tmp_path / "job.rpdb"
        code = main([
            "merge", *map(str, ranks), "-o", str(job), "--jobs", "2",
        ])
        assert code == 0
        merged = ProfileDB.from_bytes(job.read_bytes())
        assert merged.process_name == "job"
        captured = capsys.readouterr().out
        assert "3/3 ranks" in captured and "— ok" in captured

    def test_run_reports_failure_exit_code(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        def broken(rank, n_ranks, variant="original", preset="smoke"):
            raise RuntimeError("nope")

        register_app("cli-broken", broken)
        code = main([
            "run", "--app", "cli-broken", "--ranks", "1", "--jobs", "1",
            "--retries", "0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out
