"""Store leaf sequence numbers past the eight-digit file-name width."""

from __future__ import annotations

from repro.parallel.registry import run_app_rank
from repro.serve import ProfileStore


def test_nine_digit_leaves_are_listed_recovered_and_compacted(tmp_path):
    blobs = [run_app_rank("sweep3d", rank, 2).to_bytes(canonical=True) for rank in range(2)]
    store = ProfileStore(tmp_path / "s", shards=2)
    store._next_seq["sweep3d"] = 99_999_999
    assert [store.ingest("sweep3d", blob) for blob in blobs] == [99_999_999, 100_000_000]
    refs = store.leaves("sweep3d")
    assert [ref.seq for ref in refs] == [99_999_999, 100_000_000]
    assert refs[1].path.name == "100000000.rpdb"

    # A reopened store recovers the counter from the nine-digit name and
    # never hands out an acked sequence number again.
    reopened = ProfileStore(tmp_path / "s", shards=2)
    assert reopened._next_seq["sweep3d"] == 100_000_001
    reopened.compact("sweep3d")
    assert reopened.verify_rollup("sweep3d") == (True, 2)
