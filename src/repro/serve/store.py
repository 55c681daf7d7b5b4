"""Sharded on-disk profile store with incremental rollup compaction.

The continuous-profiling grown-up of the driver's flat ``measurements/``
directory: one namespace per application, leaf blobs spread across
shard directories, and a per-app **rollup** maintained by incremental
hierarchical compaction::

    store/
      <app>/
        MANIFEST.json          # generation + compaction watermark
        rollup.rpdb            # canonical bytes of the compacted merge
        shard-00/000001.rpdb   # leaf blobs, sharded by sequence number
        shard-01/000002.rpdb

Compaction reuses the reduction-tree merge (:func:`repro.core.merge.
reduction_tree_merge`) as its engine: each round folds the existing
rollup plus every leaf past the compaction watermark.  Because pairwise
CCT merging is associative and commutative, consensus metadata is an
intersection, and the rollup is stored in *canonical* byte form, an
incrementally-maintained rollup is byte-identical to one sequential
:func:`repro.core.merge.merge_profiles` over the same leaves — the
invariant :meth:`ProfileStore.verify_rollup` checks and the serve tests
pin across interleaved ingest schedules.

All file writes are atomic (``.tmp`` sibling + ``os.replace``), matching
the ``.rpdb`` convention everywhere else in the repo, so a crash mid-
ingest or mid-compaction never leaves a torn blob or manifest.  Leaf
sequence numbers are recovered from filenames at open, so the manifest
only has to be rewritten when a compaction commits.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.merge import MergeStats, merge_profiles, reduction_tree_merge
from repro.core.profiledb import ProfileDB
from repro.errors import ProfileError, ServeError

__all__ = ["CompactionResult", "LeafRef", "ProfileStore", "StoreStats"]

# Namespaces become directory names; keep them boring and path-safe.
_APP_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Leaves are named ``{seq:08d}``: eight digits, nine or more from seq 10**8 on.
_LEAF_RE = re.compile(r"^(\d{8,})\.rpdb$")

MANIFEST_NAME = "MANIFEST.json"
ROLLUP_NAME = "rollup.rpdb"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


@dataclass(frozen=True)
class LeafRef:
    """One stored leaf blob."""

    seq: int
    path: Path

    @property
    def shard(self) -> str:
        return self.path.parent.name


@dataclass
class CompactionResult:
    """What one compaction round did."""

    app: str
    generation: int
    leaves_folded: int = 0       # new leaves folded this round
    leaves_total: int = 0        # leaves covered by the rollup now
    rounds: int = 0              # reduction-tree rounds this compaction ran
    node_visits: int = 0
    rollup_bytes: int = 0
    merge_stats: MergeStats | None = None

    @property
    def changed(self) -> bool:
        return self.leaves_folded > 0

    def summary(self) -> str:
        if not self.changed:
            return f"{self.app}: nothing to compact (gen {self.generation})"
        return (
            f"{self.app}: folded {self.leaves_folded} leaf blob(s) in "
            f"{self.rounds} round(s) -> gen {self.generation} rollup "
            f"({self.leaves_total} leaves, {self.rollup_bytes} bytes)"
        )


@dataclass
class StoreStats:
    """Per-app store occupancy snapshot."""

    app: str
    leaves: int = 0
    uncompacted: int = 0
    leaf_bytes: int = 0
    generation: int = 0
    rollup_bytes: int = 0
    shards: dict[str, int] = field(default_factory=dict)


class ProfileStore:
    """Sharded ``.rpdb`` store: ingest leaves, compact into rollups.

    One instance owns one store root.  Not safe for concurrent writers
    from multiple processes (the service serializes writes through its
    ingest queue); readers may open the same root read-only at any time
    since every visible file is complete by construction.
    """

    def __init__(self, root: str | Path, shards: int = 4, arity: int = 8) -> None:
        if shards < 1:
            raise ServeError("store needs at least one shard")
        if arity < 2:
            raise ServeError("compaction arity must be >= 2")
        self.root = Path(root)
        self.shards = shards
        self.arity = arity
        self.root.mkdir(parents=True, exist_ok=True)
        # app -> next leaf sequence number, recovered from filenames.
        self._next_seq: dict[str, int] = {}
        for app in self.apps():
            leaves = self.leaves(app)
            self._next_seq[app] = (leaves[-1].seq + 1) if leaves else 1

    # -- namespace helpers ---------------------------------------------------

    @staticmethod
    def check_app(app: str) -> str:
        if not _APP_RE.match(app):
            raise ServeError(
                f"bad app namespace {app!r}: need 1-64 chars of "
                f"[A-Za-z0-9_.-], not starting with a separator"
            )
        return app

    def apps(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and _APP_RE.match(p.name)
        )

    def _app_dir(self, app: str) -> Path:
        return self.root / self.check_app(app)

    def _shard_dir(self, app: str, seq: int) -> Path:
        return self._app_dir(app) / f"shard-{seq % self.shards:02d}"

    # -- manifest ------------------------------------------------------------

    def _manifest(self, app: str) -> dict:
        path = self._app_dir(app) / MANIFEST_NAME
        if not path.is_file():
            return {"generation": 0, "compacted_upto": 0}
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ServeError(f"unreadable manifest for {app!r}: {exc}") from exc
        return {
            "generation": int(data.get("generation", 0)),
            "compacted_upto": int(data.get("compacted_upto", 0)),
        }

    def _write_manifest(self, app: str, manifest: dict) -> None:
        payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        _atomic_write(
            self._app_dir(app) / MANIFEST_NAME, payload.encode("utf-8")
        )

    def generation(self, app: str) -> int:
        return self._manifest(app)["generation"]

    # -- leaves --------------------------------------------------------------

    def leaves(self, app: str) -> list[LeafRef]:
        """All leaf blobs of ``app``, in ingest (sequence) order."""
        app_dir = self._app_dir(app)
        if not app_dir.is_dir():
            return []
        refs = []
        for shard in sorted(app_dir.glob("shard-*")):
            for entry in shard.iterdir():
                match = _LEAF_RE.match(entry.name)
                if match:
                    refs.append(LeafRef(int(match.group(1)), entry))
        refs.sort(key=lambda ref: ref.seq)
        return refs

    def uncompacted(self, app: str) -> list[LeafRef]:
        upto = self._manifest(app)["compacted_upto"]
        return [ref for ref in self.leaves(app) if ref.seq > upto]

    def ingest(self, app: str, blob: bytes, validated: bool = False) -> int:
        """Store one leaf blob; returns its sequence number.

        ``validated=True`` skips the decode check when the caller (the
        ingest service) already ran the blob through the hardened codec.
        """
        self.check_app(app)
        if not validated:
            ProfileDB.from_bytes(blob)  # raises ProfileError on corruption
        seq = self._next_seq.get(app)
        if seq is None:
            leaves = self.leaves(app)
            seq = (leaves[-1].seq + 1) if leaves else 1
        self._next_seq[app] = seq + 1
        _atomic_write(self._shard_dir(app, seq) / f"{seq:08d}.rpdb", blob)
        return seq

    # -- rollup & compaction -------------------------------------------------

    def rollup_path(self, app: str) -> Path:
        return self._app_dir(app) / ROLLUP_NAME

    def rollup_bytes(self, app: str) -> bytes | None:
        path = self.rollup_path(app)
        return path.read_bytes() if path.is_file() else None

    def rollup(self, app: str) -> ProfileDB | None:
        data = self.rollup_bytes(app)
        return ProfileDB.from_bytes(data) if data is not None else None

    def compact(self, app: str) -> CompactionResult:
        """Fold every uncompacted leaf into the app's rollup.

        The reduction-tree engine merges ``[current rollup] + new
        leaves``; merge associativity plus canonical serialization keeps
        the result byte-identical to a from-scratch sequential merge of
        all covered leaves, whatever the ingest/compaction interleaving.
        A round with no new leaves is a no-op (generation unchanged).
        """
        manifest = self._manifest(app)
        fresh = self.uncompacted(app)
        result = CompactionResult(
            app=app,
            generation=manifest["generation"],
            leaves_total=len(self.leaves(app)),
        )
        if not fresh:
            return result

        inputs: list[ProfileDB] = []
        rollup = self.rollup(app)
        if rollup is not None:
            inputs.append(rollup)
        for ref in fresh:
            try:
                inputs.append(ProfileDB.from_bytes(ref.path.read_bytes()))
            except (OSError, ProfileError) as exc:
                # Leaves were validated at ingest; a blob going bad on
                # disk afterwards is a store-integrity failure, not a
                # degradation to paper over silently.
                raise ServeError(
                    f"stored leaf {ref.path} is unreadable: {exc}"
                ) from exc

        merged, stats = reduction_tree_merge(inputs, name=app, arity=self.arity)
        data = merged.canonical_bytes()
        _atomic_write(self.rollup_path(app), data)

        manifest["generation"] += 1
        manifest["compacted_upto"] = fresh[-1].seq
        self._write_manifest(app, manifest)

        result.generation = manifest["generation"]
        result.leaves_folded = len(fresh)
        result.rounds = stats.rounds
        result.node_visits = stats.node_visits
        result.rollup_bytes = len(data)
        result.merge_stats = stats
        return result

    def verify_rollup(self, app: str) -> tuple[bool, int]:
        """Check the incremental rollup against a sequential re-merge.

        Returns ``(byte_identical, n_leaves_covered)``.  The reference is
        :func:`merge_profiles` over every compacted leaf in ingest order
        — the exact one-shot pipeline the service replaces.
        """
        actual = self.rollup_bytes(app)
        if actual is None:
            raise ServeError(f"{app!r} has no rollup to verify (compact first)")
        upto = self._manifest(app)["compacted_upto"]
        covered = [ref for ref in self.leaves(app) if ref.seq <= upto]
        dbs = [ProfileDB.from_bytes(ref.path.read_bytes()) for ref in covered]
        expected = merge_profiles(dbs, name=app).canonical_bytes()
        return expected == actual, len(covered)

    # -- introspection -------------------------------------------------------

    def stats(self, app: str) -> StoreStats:
        leaves = self.leaves(app)
        manifest = self._manifest(app)
        rollup = self.rollup_path(app)
        shards: dict[str, int] = {}
        for ref in leaves:
            shards[ref.shard] = shards.get(ref.shard, 0) + 1
        return StoreStats(
            app=app,
            leaves=len(leaves),
            uncompacted=sum(
                1 for ref in leaves if ref.seq > manifest["compacted_upto"]
            ),
            leaf_bytes=sum(ref.path.stat().st_size for ref in leaves),
            generation=manifest["generation"],
            rollup_bytes=rollup.stat().st_size if rollup.is_file() else 0,
            shards=shards,
        )
