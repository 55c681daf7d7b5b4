"""The benchmark's output checks must fail, and count a failed operation,
on broken input.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import Analyzer
from repro.parallel.registry import run_app_rank
from repro.serve import ProfileStore

from checks import case_study_holds, check_rank_files, check_rollups, decode_rank_file
from common import Result

N_RANKS = 2


@pytest.fixture(scope="module")
def ranks():
    """Two smoke-preset sweep3d ranks: small and quick to simulate."""
    return [run_app_rank("sweep3d", rank, N_RANKS) for rank in range(N_RANKS)]


def _rank_files(tmp_path, ranks):
    paths = {}
    for rank, db in enumerate(ranks):
        paths[rank] = tmp_path / f"{rank:04d}.rpdb"
        paths[rank].write_bytes(db.to_bytes())
    return paths


def _check(paths, ranks) -> Result:
    result = Result()
    canonical = {}
    for rank, path in paths.items():
        db = decode_rank_file(path)
        canonical[rank] = db.canonical_bytes() if db is not None else None
    reference = {rank: db.canonical_bytes() for rank, db in enumerate(ranks)}
    check_rank_files(result, "sweep3d", canonical, N_RANKS, reference)
    return result


def test_intact_rank_files_pass(tmp_path, ranks):
    result = _check(_rank_files(tmp_path, ranks), ranks)
    assert (result.attempted, result.failed) == (N_RANKS, 0)


def test_tampered_rank_file_fails(tmp_path, ranks):
    paths = _rank_files(tmp_path, ranks)
    data = bytearray(paths[1].read_bytes())
    data[len(data) // 2] ^= 0xFF
    paths[1].write_bytes(bytes(data))
    result = _check(paths, ranks)
    assert (result.attempted, result.failed) == (N_RANKS, 1)
    assert "rank 1" in result.failures[0]


def test_truncated_rank_file_fails(tmp_path, ranks):
    paths = _rank_files(tmp_path, ranks)
    paths[0].write_bytes(paths[0].read_bytes()[:-3])
    assert decode_rank_file(paths[0]) is None
    result = _check(paths, ranks)
    assert (result.attempted, result.failed) == (N_RANKS, 1)


def test_swapped_rank_file_fails(tmp_path, ranks):
    """A valid profile of the wrong rank decodes but differs canonically."""
    paths = _rank_files(tmp_path, ranks)
    paths[0].write_bytes(paths[1].read_bytes())
    result = _check(paths, ranks)
    assert (result.attempted, result.failed) == (N_RANKS, 1)
    assert "differ" in result.failures[0]


def test_missing_rank_fails(tmp_path, ranks):
    paths = _rank_files(tmp_path, ranks)
    del paths[1]
    result = _check(paths, ranks)
    assert (result.attempted, result.failed) == (N_RANKS, 1)
    assert "missing" in result.failures[0]


def test_case_study_check_rejects_other_ranking(ranks):
    exp = Analyzer("sweep3d").add_all(ranks).analyze()
    assert case_study_holds("sweep3d", exp)
    assert not case_study_holds("nw", exp)   # sweep3d ranks no "referrence"


def _store(tmp_path, ranks) -> ProfileStore:
    store = ProfileStore(tmp_path / "store")
    for db in ranks:
        store.ingest("sweep3d", db.to_bytes())
    store.compact("sweep3d")
    return store


def test_consistent_rollup_passes(tmp_path, ranks):
    result = Result()
    check_rollups(result, _store(tmp_path, ranks), {"sweep3d": N_RANKS})
    assert (result.attempted, result.failed) == (1, 0)


def test_divergent_rollup_fails(tmp_path, ranks):
    store = _store(tmp_path, ranks)
    # A rollup of only the first leaf is a valid profile, but not the
    # sequential merge of both leaves the manifest says it covers.
    store.rollup_path("sweep3d").write_bytes(ranks[0].canonical_bytes())
    result = Result()
    check_rollups(result, store, {"sweep3d": N_RANKS})
    assert (result.attempted, result.failed) == (1, 1)
    assert "diverges" in result.failures[0]


def test_rollup_missing_leaves_fails(tmp_path, ranks):
    result = Result()
    check_rollups(result, _store(tmp_path, ranks), {"sweep3d": N_RANKS + 1})
    assert (result.attempted, result.failed) == (1, 1)
