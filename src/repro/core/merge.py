"""Post-mortem profile merging (paper §4.2).

Profiles from different threads and processes coalesce by storage class:
heap variables merge when their allocation call paths match, static
variables when their symbol names match, and access paths merge
recursively underneath — all of which falls out of the CCTs' structural
node keys.

:class:`ProfileFold` is the one streaming fold: it takes one input at a
time and keeps only the merged tree and the consensus metadata.
``merge_profiles`` runs it over any iterable, so a caller that decodes
lazily (:func:`repro.parallel.merge.merge_rpdb_files` behind ``hpcview
merge``) keeps about one input alive however many it folds; the serve
store keeps one fold per app alive across ingests as its live rollup.
``reduction_tree_merge`` models HPCToolkit's MPI reduction-tree
parallelization in one process: profiles are merged pairwise in
``ceil(log2 n)`` rounds; the returned :class:`MergeStats` reports both
total work (node visits, linear in profile count) and the critical-path
work of the parallel reduction — the quantities behind the paper's
scalability claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.storage import StorageClass
from repro.errors import ProfileError

__all__ = [
    "MergeStats",
    "ProfileFold",
    "consensus_meta",
    "merge_thread_profiles",
    "merge_profiles",
    "reduction_tree_merge",
]


@dataclass
class MergeStats:
    """Cost accounting for a merge."""

    profiles_in: int = 0
    rounds: int = 0
    pairwise_merges: int = 0
    node_visits: int = 0          # total work across all merges
    critical_path_visits: int = 0  # slowest chain through the reduction tree
    per_round_visits: list[int] = field(default_factory=list)


def merge_thread_profiles(
    target: ThreadProfile, source: ThreadProfile, stats: MergeStats | None = None
) -> ThreadProfile:
    """Merge ``source``'s CCTs into ``target`` (in place; returns target).

    ``source`` is read-only: it is neither mutated nor aliased into
    ``target`` (subtrees are deep-copied on first contact), so the same
    source can safely be merged again — or serialized — afterwards.
    """
    visits = 0
    for storage in source.storage_classes():
        source_cct = source.get_cct(storage)
        visits += target.cct(storage).merge(source_cct)
    if stats is not None:
        stats.node_visits += visits
        stats.pairwise_merges += 1
    return target


def _collapse_db(db: ProfileDB, stats: MergeStats | None = None) -> ThreadProfile:
    """Merge all thread profiles of one DB into a single *fresh* profile.

    The leaf step of the reduction tree.  Always copies — even for a
    single-thread DB — so that later rounds, which merge into their
    group's first element in place, only ever mutate tree-internal
    profiles, never the caller's input databases.
    """
    merged = ThreadProfile(f"{db.process_name}.merged")
    for profile in db.all_profiles():
        merge_thread_profiles(merged, profile, stats)
    return merged


def _agreed_meta(agreed: dict[str, str], meta: dict[str, str]) -> dict[str, str]:
    """The entries of ``agreed`` that ``meta`` carries with the same value.

    The single definition of consensus, shared by :func:`consensus_meta`
    and the incremental fold in :class:`ProfileFold`.
    """
    return {k: v for k, v in agreed.items() if meta.get(k) == v}


def consensus_meta(dbs: Sequence[ProfileDB]) -> dict[str, str]:
    """Metadata every input agrees on (same key, same value in all DBs).

    Rank-specific keys (rank, seed, elapsed cycles) differ and drop out;
    job-level provenance (app, variant, n_ranks, the machine preset the
    ranks ran on) survives the merge.  Intersection is associative and
    commutative, so any merge schedule yields the same result — the
    byte-identity-across-schedules invariant holds.
    """
    if not dbs:
        return {}
    out = dict(dbs[0].meta)
    for db in dbs[1:]:
        if not out:
            break
        out = _agreed_meta(out, db.meta)
    return out


class ProfileFold:
    """Streaming merge accumulator: fold process DBs in one at a time.

    Holds the merged thread profile and the consensus metadata of every
    input added so far.  Inputs are never mutated or aliased (subtrees
    are copied on first contact), so an input may be reused afterwards.
    """

    def __init__(self, name: str = "job") -> None:
        self.name = name
        self.merged = ThreadProfile(f"{name}.merged")
        self.meta: dict[str, str] | None = None   # None until the first input

    def add(self, db: ProfileDB) -> None:
        """Fold ``db``'s threads (in sorted order) and intersect its meta."""
        for profile in db.all_profiles():
            merge_thread_profiles(self.merged, profile)
        self.meta = dict(db.meta) if self.meta is None else _agreed_meta(self.meta, db.meta)

    def result(self) -> ProfileDB:
        """The merge of everything added so far, as a one-thread DB.

        The DB shares the fold's tree, so encode or use it before adding
        more.  Raises :class:`ProfileError` if nothing was added.
        """
        if self.meta is None:
            raise ProfileError("nothing to merge")
        out = ProfileDB(self.name, self.meta)
        out.add_thread(self.merged)
        return out


def merge_profiles(dbs: Iterable[ProfileDB], name: str = "job") -> ProfileDB:
    """Sequentially fold many process DBs into one job-level DB.

    ``dbs`` may be any iterable and is consumed once: each input is merged,
    and its metadata intersected into the consensus, before the next one
    is drawn.  Inputs are never mutated (bit-identical before and after).
    """
    fold = ProfileFold(name)
    for db in dbs:
        fold.add(db)
    return fold.result()


def reduction_tree_merge(
    dbs: Sequence[ProfileDB], name: str = "job", arity: int = 2
) -> tuple[ProfileDB, MergeStats]:
    """Merge process DBs with a reduction tree, reporting cost stats.

    Semantically identical to :func:`merge_profiles`; the difference is
    the measured schedule: with ``n`` inputs and fan-in ``arity`` the
    merge finishes in ``ceil(log_arity n)`` rounds, and within a round the
    pairwise merges are independent, so the critical path is the maximum
    (not the sum) of per-round chain costs.

    Caller-supplied databases are never mutated: the leaf collapse deep-
    copies each input, and subsequent rounds merge into those internal
    copies only.  The schedule is a model: every round runs in this one
    process, and :func:`merge_profiles` gives the same canonical bytes.
    """
    if not dbs:
        raise ProfileError("nothing to merge")
    if arity < 2:
        raise ProfileError("reduction arity must be >= 2")
    stats = MergeStats(profiles_in=sum(len(db.threads) for db in dbs))

    # Leaf step: collapse each process's threads locally (each process does
    # its own collapse in parallel, so the critical path takes the max).
    leaf_visits = []
    work: list[ThreadProfile] = []
    for db in dbs:
        before = stats.node_visits
        work.append(_collapse_db(db, stats))
        leaf_visits.append(stats.node_visits - before)
    stats.per_round_visits.append(sum(leaf_visits))
    stats.critical_path_visits += max(leaf_visits) if leaf_visits else 0

    while len(work) > 1:
        stats.rounds += 1
        round_total = 0
        round_max = 0
        next_work: list[ThreadProfile] = []
        for i in range(0, len(work), arity):
            group = work[i : i + arity]
            target = group[0]
            before = stats.node_visits
            for source in group[1:]:
                merge_thread_profiles(target, source, stats)
            cost = stats.node_visits - before
            round_total += cost
            if cost > round_max:
                round_max = cost
            next_work.append(target)
        stats.per_round_visits.append(round_total)
        stats.critical_path_visits += round_max
        work = next_work

    merged = work[0]
    merged.thread_name = f"{name}.merged"
    out = ProfileDB(name)
    out.add_thread(merged)
    out.meta.update(consensus_meta(dbs))
    return out, stats
