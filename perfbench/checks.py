"""Output checks.  Each checked operation counts as attempted; a failed
check counts as a failed operation (see :meth:`common.Result.check`)."""

from __future__ import annotations

from pathlib import Path

from repro.core.metrics import MetricKind
from repro.core.profiledb import ProfileDB
from repro.core.storage import StorageClass
from repro.errors import ProfileError

from common import Result

# Figure benches' pinned case-study findings, ranked by latency.
CASE_STUDY = {
    "amg2006": "S_diag_j ranks first",
    "lulesh": "the top heap variables are m_* arrays",
    "nw": "referrence ranks first",
    "streamcluster": "block ranks first",
    "sweep3d": "Flux and Src rank in the top three",
}
LULESH_TOP_HEAP = 5


def decode_rank_file(path: Path | None) -> ProfileDB | None:
    """Decode through the hardened codec; ``None`` if missing or malformed."""
    if path is None:
        return None
    try:
        return ProfileDB.from_bytes(Path(path).read_bytes())
    except (OSError, ProfileError):
        return None


def check_rank_files(
    result: Result,
    app: str,
    canonical: dict[int, bytes | None],
    n_ranks: int,
    reference: dict[int, bytes],
) -> None:
    """One operation per expected rank file: it exists, decodes, and its
    canonical bytes equal the in-process ``run_app_rank`` reference."""
    for rank in range(n_ranks):
        got = canonical.get(rank)
        if got is None:
            result.check(False, f"{app} rank {rank}: rank file missing or undecodable")
        else:
            result.check(
                got == reference[rank],
                f"{app} rank {rank}: canonical bytes differ from in-process run",
            )


def case_study_holds(app: str, exp) -> bool:
    """Does the merged job still rank the variable its case study names?"""
    variables = exp.top_down(MetricKind.LATENCY).variables
    names = [v.name for v in variables]
    if app == "amg2006":
        return names[:1] == ["S_diag_j"]
    if app == "nw":
        return names[:1] == ["referrence"]
    if app == "streamcluster":
        return names[:1] == ["block"]
    if app == "sweep3d":
        return {"Flux", "Src"} <= set(names[:3])
    if app == "lulesh":
        heap = [v.name for v in variables if v.storage is StorageClass.HEAP]
        top = heap[:LULESH_TOP_HEAP]
        return len(top) == LULESH_TOP_HEAP and all(n.startswith("m_") for n in top)
    raise KeyError(app)


def check_rollups(result: Result, store, expected_leaves: dict[str, int]) -> None:
    """Each app's final rollup covers every leaf and equals a sequential
    merge of them (``ProfileStore.verify_rollup``)."""
    for app, leaves in sorted(expected_leaves.items()):
        identical, covered = store.verify_rollup(app)
        result.check(
            identical and covered == leaves,
            f"{app}: rollup of {covered}/{leaves} leaves "
            f"{'matches' if identical else 'diverges from'} the sequential merge",
        )
