"""Post-mortem merge of a measurement directory's rank files.

:func:`merge_rpdb_files` is the merge behind ``hpcview merge`` and the
``hpcview trace``/``metrics`` pipeline.  It is a streaming fold: a
generator reads and decodes one ``.rpdb`` file at a time into
:func:`repro.core.merge.merge_profiles`, so about one decoded rank is
alive however many files it merges.  The output is the sequential merge
(:func:`~repro.core.merge.reduction_tree_merge` models the paper's §4.2
reduction tree over the same inputs; both give the same canonical
bytes).

Degradation semantics: a file that cannot be read or decoded is dropped
and reported as ``(path, reason)``, never crashing the merge.  The
merged DB keeps the consensus ``meta`` of the inputs it merged, and
when the merge is partial it also says what is missing: ``dropped`` and
``dropped_count`` name the dropped files, ``missing_ranks`` the ranks
that no merged rank file supplied (a driver rank that failed leaves no
``.rpdb`` at all), and ``partial=true`` flags either.  A clean merge
adds nothing, so its bytes equal the sequential merge's exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

from repro.core.merge import merge_profiles
from repro.core.profiledb import ProfileDB
from repro.errors import ProfileError
from repro.parallel.driver import _obs_session

__all__ = ["merge_rpdb_files"]


def merge_rpdb_files(
    paths: Sequence[str | Path], name: str = "job"
) -> tuple[ProfileDB, list[tuple[str, str]]]:
    """Merge on-disk ``.rpdb`` files into one job DB.

    Returns ``(db, dropped)``, where ``dropped`` lists each file that
    could not be read or decoded with the reason.  Raises
    :class:`ProfileError` when no file could be merged.
    """
    obs = _obs_session()
    if obs is None:
        return _fold_files(paths, name)
    from repro.obs import WALL_TID_MERGE

    start = obs.clock.now_us()
    with obs.wall_span(
        f"merge_rpdb_files:{name}", cat="merge", tid=WALL_TID_MERGE,
        args={"inputs": len(paths)},
    ):
        db, dropped = _fold_files(paths, name)
    labels = {"job": name}
    for metric, value, help_text in (
        ("repro_merge_inputs", len(paths), "rank files fed to the merge"),
        ("repro_merge_dropped", len(dropped), "rank files dropped from the merge"),
        ("repro_merge_seconds", (obs.clock.now_us() - start) / 1e6,
         "wall time of the whole merge"),
    ):
        obs.metrics.set_gauge(metric, value, labels, help_text=help_text)
    return db, dropped


def _fold_files(
    paths: Sequence[str | Path], name: str
) -> tuple[ProfileDB, list[tuple[str, str]]]:
    dropped: list[tuple[str, str]] = []
    ranks: list[str | None] = []  # the ``rank`` meta of each merged input

    def decoded() -> Iterator[ProfileDB]:
        for path in paths:
            try:
                db = ProfileDB.from_bytes(Path(path).read_bytes())
            except OSError as exc:
                dropped.append((str(path), f"unreadable: {exc}"))
                continue
            except ProfileError as exc:
                dropped.append((str(path), str(exc)))
                continue
            ranks.append(db.meta.get("rank"))
            yield db

    try:
        db = merge_profiles(decoded(), name)
    except ProfileError:
        if ranks:  # an input decoded, so this is not "nothing to merge"
            raise
        raise ProfileError(
            f"nothing to merge: none of the {len(paths)} file(s) "
            "could be read or decoded"
        ) from None
    missing = _missing_ranks(db.meta.get("n_ranks"), ranks)
    if dropped:
        db.meta["dropped_count"] = str(len(dropped))
        db.meta["dropped"] = ";".join(path for path, _ in dropped)
    if missing:
        db.meta["missing_ranks"] = missing
    if dropped or missing:
        db.meta["partial"] = "true"
    return db, dropped


def _missing_ranks(n_ranks: str | None, ranks: list[str | None]) -> str:
    """The ranks in ``range(n_ranks)`` that no merged input supplied.

    Only rank files answer this: if any input lacks a ``rank`` (a merged
    job DB, say) or the inputs disagree on ``n_ranks``, nothing is
    reported.  Runs of two or more ranks print as ``lo-hi``
    (``"1,4-6"``), so the string grows with the inputs, not with the
    ``n_ranks`` a file claims.
    """
    total = _as_rank(n_ranks)
    if total is None or None in ranks:
        return ""
    present = {r for r in map(_as_rank, ranks) if r is not None and r < total}
    runs = []
    lo = 0
    for hi in sorted(present) + [total]:
        if hi - lo == 1:
            runs.append(str(lo))
        elif hi - lo > 1:
            runs.append(f"{lo}-{hi - 1}")
        lo = hi + 1
    return ",".join(runs)


def _as_rank(value: str | None) -> int | None:
    if value is None or not value.isdecimal():
        return None
    try:
        return int(value)
    except ValueError:  # more digits than int() converts
        return None
