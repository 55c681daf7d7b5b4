"""A short serve-mixed pass: clean traffic passes every check; a corrupt
blob is rejected at the door and counted as a failed operation."""

from __future__ import annotations

from serve_mixed import build_schedule, run_pass, start_service

from common import Result

N_INGESTS = 200


def _pass(tmp_path, schedule) -> Result:
    result = Result()
    traffic, info = run_pass(start_service(tmp_path / "store"), schedule, result)
    result.details.update(traffic=traffic, info=info)
    return result


def test_clean_pass(tmp_path):
    schedule = build_schedule(seed=3, n_ingests=N_INGESTS)
    blobs = [blob for _, blob in schedule.ingests]
    assert len(set(blobs)) == N_INGESTS          # no two blobs byte-identical
    result = _pass(tmp_path, schedule)
    traffic = result.details["traffic"]
    assert result.failures == []
    assert sum(map(len, traffic.ingest_s.values())) == N_INGESTS
    assert sum(map(len, traffic.query_s.values())) == len(schedule.queries) > 0
    # every ingest, compaction and query, plus one rollup check per app
    assert result.attempted == (
        N_INGESTS + len(traffic.compact_s) + len(schedule.queries) + len(schedule.counts)
    )
    assert result.details["info"]["peak_rss_mb"] > 0


def test_corrupt_blob_counts_as_failed(tmp_path):
    schedule = build_schedule(seed=3, n_ingests=N_INGESTS)
    app, blob = schedule.ingests[7]
    schedule.ingests[7] = (app, blob[:-5])
    result = _pass(tmp_path, schedule)
    assert result.details["traffic"].rejected == 1
    assert any("rejected" in failure for failure in result.failures)
    # the app's rollup now covers one leaf fewer than it was sent
    assert any(failure.startswith(f"{app}: rollup") for failure in result.failures)
