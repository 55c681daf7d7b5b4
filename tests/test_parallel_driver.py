"""The multiprocess driver and the streaming merge of its rank files.

Covers the real-parallel acceptance properties: worker-per-rank
profiling with deterministic output, the rank-file merge producing
canonical bytes identical to the sequential merge while holding about
one decoded rank at a time, and graceful degradation (killed workers,
crashing apps, corrupt or missing files) into *reported* partial
results — dropped files and missing ranks named in the merged DB's
``meta`` — instead of hangs or crashes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
import time
import weakref
from importlib import import_module
from pathlib import Path

import pytest

from repro.core.analyzer import Analyzer
from repro.core.cct import KIND_FRAME, KIND_IP
from repro.core.merge import merge_profiles
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ConfigError, ProfileError
from repro.parallel import (
    merge_rpdb_files,
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


class TestMergeRpdbFiles:
    def _write(self, tmp_path, dbs) -> list[Path]:
        paths = []
        for i, db in enumerate(dbs):
            path = tmp_path / f"{i:04d}.rpdb"
            path.write_bytes(db.to_bytes())
            paths.append(path)
        return paths

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_byte_identical_to_sequential_merge(self, tmp_path, n):
        dbs = [_synthetic_db(i) for i in range(n)]
        expected = merge_profiles(dbs, "job").canonical_bytes()
        merged, dropped = merge_rpdb_files(self._write(tmp_path, dbs), "job")
        assert merged.canonical_bytes() == expected
        assert merged.meta == {}
        assert dropped == []

    @pytest.mark.parametrize("app", ["nw", "streamcluster"])
    def test_same_bytes_as_the_analyzer_tree(self, tmp_path, app):
        # hpcview merge used to run the Analyzer's reduction tree.
        dbs = [run_app_rank(app, rank, 4) for rank in range(4)]
        expected = Analyzer("job").add_all(dbs).analyze().db.to_bytes()
        merged, _ = merge_rpdb_files(self._write(tmp_path, dbs), "job")
        assert merged.to_bytes() == expected

    def test_corrupt_blob_degrades_to_reported_partial(self, tmp_path):
        paths = self._write(tmp_path, [_synthetic_db(i) for i in range(4)])
        paths[2].write_bytes(b"RPDB" + b"\x00" * 8)  # bad version/garbage
        merged, dropped = merge_rpdb_files(paths, "job")
        assert [path for path, _ in dropped] == [str(paths[2])]
        assert merged.meta["partial"] == "true"
        assert merged.meta["dropped"] == str(paths[2])
        survivors = [_synthetic_db(i) for i in (0, 1, 3)]
        expected = merge_profiles(survivors, "job")
        merged.meta.clear()
        assert merged.canonical_bytes() == expected.canonical_bytes()

    def test_all_corrupt_raises(self, tmp_path):
        junk, trash = tmp_path / "junk.rpdb", tmp_path / "trash.rpdb"
        junk.write_bytes(b"junk")
        trash.write_bytes(b"trash")
        with pytest.raises(ProfileError, match="nothing to merge"):
            merge_rpdb_files([junk, trash, tmp_path / "missing.rpdb"])
        with pytest.raises(ProfileError, match="nothing to merge"):
            merge_rpdb_files([])

    def test_merge_rpdb_files_skips_unreadable(self, tmp_path):
        paths = self._write(tmp_path, [_synthetic_db(i) for i in range(3)])
        paths.append(tmp_path / "missing.rpdb")
        merged, dropped = merge_rpdb_files(paths, "job")
        assert [path for path, _ in dropped] == [str(paths[3])]
        assert dropped[0][1].startswith("unreadable:")
        assert merged.meta["dropped_count"] == "1"
        assert "missing.rpdb" in merged.meta["dropped"]

    @pytest.mark.parametrize("drop", ["corrupt", "missing"])
    def test_partial_merge_keeps_consensus_meta(self, tmp_path, drop):
        dbs = [run_app_rank("nw", rank, 2) for rank in range(2)]
        paths = self._write(tmp_path, dbs)
        clean, _ = merge_rpdb_files(paths, "job")
        third = tmp_path / "0002.rpdb"
        if drop == "corrupt":
            third.write_bytes(b"RPDB" + b"\x00" * 8)
        merged, dropped = merge_rpdb_files([*paths, third], "job")
        assert len(dropped) == 1
        assert {"app", "machine", "n_ranks", "variant"} <= set(clean.meta)
        assert merged.meta == {
            **clean.meta,
            "dropped": str(third),
            "dropped_count": "1",
            "partial": "true",
        }

    def test_missing_ranks_listed(self, tmp_path):
        dbs = [_tiny_rank(rank, 8) for rank in (0, 2, 3, 7)]
        paths = self._write(tmp_path, dbs)
        paths[1].write_bytes(b"rotted")  # rank 2 counts as missing too
        merged, _ = merge_rpdb_files(paths, "job")
        assert merged.meta["missing_ranks"] == "1-2,4-6"
        assert merged.meta["partial"] == "true"
        assert merged.meta["dropped"] == str(paths[1])

    @pytest.mark.parametrize(
        "n_ranks, expected",
        [("1000000000000", "1-999999999999"), ("abc", None), ("9" * 5000, None)],
    )
    def test_missing_ranks_from_claimed_n_ranks(self, tmp_path, n_ranks, expected):
        db = _tiny_rank(0, 1)
        db.meta["n_ranks"] = n_ranks
        merged, _ = merge_rpdb_files(self._write(tmp_path, [db]), "job")
        assert merged.meta.get("missing_ranks") == expected

    def test_missing_ranks_need_rank_files_that_agree(self, tmp_path):
        job = merge_profiles([_tiny_rank(0, 3), _tiny_rank(1, 3)], "j")
        assert "rank" not in job.meta and job.meta["n_ranks"] == "3"
        disagree = [_tiny_rank(0, 3), _tiny_rank(2, 4)]
        for name, dbs in (("job", [job]), ("disagree", disagree)):
            (tmp_path / name).mkdir()
            merged, dropped = merge_rpdb_files(self._write(tmp_path / name, dbs))
            assert dropped == [] and "missing_ranks" not in merged.meta
            assert "partial" not in merged.meta

    def test_holds_a_bounded_number_of_decoded_profiles(self, tmp_path, monkeypatch):
        paths = self._write(tmp_path, [_synthetic_db(i) for i in range(10)])
        decode = ProfileDB.from_bytes.__func__
        decoded: list[weakref.ref] = []
        alive_at_call: list[int] = []

        def tracking_from_bytes(cls, data):
            alive_at_call.append(sum(1 for ref in decoded if ref() is not None))
            db = decode(cls, data)
            decoded.append(weakref.ref(db))
            return db

        monkeypatch.setattr(ProfileDB, "from_bytes", classmethod(tracking_from_bytes))
        merged, dropped = merge_rpdb_files(paths, "job")
        monkeypatch.undo()

        assert dropped == [] and len(alive_at_call) == 10
        assert max(alive_at_call) <= 2, alive_at_call
        expected = merge_profiles([_synthetic_db(i) for i in range(10)], "job")
        assert merged.canonical_bytes() == expected.canonical_bytes()

    @needs_fork
    def test_end_to_end_driver_then_merge(self, tmp_path):
        register_app("tiny", _tiny_rank)
        report = profile_ranks("tiny", 6, tmp_path, jobs=2, timeout=60)
        assert report.ok
        merged, dropped = merge_rpdb_files(report.paths, "job")
        dbs = [ProfileDB.from_bytes(p.read_bytes()) for p in report.paths]
        assert merged.canonical_bytes() == merge_profiles(dbs, "job").canonical_bytes()
        assert merged.meta == {"n_ranks": "6"}
        assert dropped == []


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
        code = main(["merge", *map(str, ranks), "-o", str(job)])
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

    def test_merge_names_missing_ranks(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        def rank1_raises(rank, n_ranks, variant="original", preset="smoke"):
            if rank == 1:
                raise RuntimeError("rank 1 exploded")
            return _tiny_rank(rank, n_ranks, variant, preset)

        register_app("cli-rank1-broken", rank1_raises)
        out = tmp_path / "meas"
        code = main([
            "run", "--app", "cli-rank1-broken", "--ranks", "3", "--jobs", "2",
            "--retries", "0", "--out", str(out),
        ])
        assert code == 1
        job = tmp_path / "job.rpdb"
        ranks = sorted((out / "cli-rank1-broken").glob("*.rpdb"))
        assert main(["merge", *map(str, ranks), "-o", str(job)]) == 0
        merged = ProfileDB.from_bytes(job.read_bytes())
        assert merged.meta["missing_ranks"] == "1"
        assert merged.meta["partial"] == "true"
        assert "missing ranks: 1" in capsys.readouterr().out

    def test_merge_reports_bad_inputs(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        paths = []
        for rank in range(2):
            path = tmp_path / f"{rank:04d}.rpdb"
            path.write_bytes(_tiny_rank(rank, 2).to_bytes())
            paths.append(str(path))
        bad = tmp_path / "bad.rpdb"
        bad.write_bytes(b"RPDB" + b"\x00" * 8)
        missing = tmp_path / "missing.rpdb"
        job = tmp_path / "job.rpdb"
        code = main(["merge", *paths, str(bad), str(missing), "-o", str(job)])
        assert code == 0
        merged = ProfileDB.from_bytes(job.read_bytes())
        assert merged.meta["dropped_count"] == "2"
        assert "missing_ranks" not in merged.meta
        out = capsys.readouterr().out
        assert "merged 2/4 profile(s)" in out and "PARTIAL" in out
        assert f"dropped {bad}: " in out
        assert f"dropped {missing}: unreadable" in out

    def test_merge_with_nothing_readable_exits_1(self, tmp_path, capsys):
        from repro.tools.hpcview import main

        bad = tmp_path / "bad.rpdb"
        bad.write_bytes(b"junk")
        job = tmp_path / "job.rpdb"
        code = main([
            "merge", str(bad), str(tmp_path / "missing.rpdb"), "-o", str(job),
        ])
        assert code == 1
        assert not job.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "nothing to merge" in captured.err
