"""Merge invariants: input immutability, associativity, read-only views.

Pins the guarantees the parallel subsystem builds on: merging never
mutates its inputs (the reduction tree deep-copies at the leaves), the
merge result is independent of grouping (canonical bytes identical for
sequential / streamed-generator / arity-2 / arity-4 schedules), and
building analysis views never changes the profile being viewed (the
``cct()`` write-path accessor must not run on read paths).
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import Analyzer
from repro.core.cct import HEAP_MARKER_KEY, KIND_FRAME, KIND_IP
from repro.core.derived import derive_from_profile
from repro.core.merge import merge_profiles, reduction_tree_merge
from repro.core.metrics import MetricKind
from repro.core.profiledb import ProfileDB, ThreadProfile
from repro.core.render import render_bottom_up, render_top_down, render_variable_table
from repro.core.storage import StorageClass
from repro.errors import ProfileError
from repro.pmu.sample import Sample


def _sample(latency=10, level=3):
    return Sample("T", 1, 1, 0x10, latency, level, False, False, 64)


def _make_db(i: int) -> ProfileDB:
    """A small but non-trivial per-rank DB (allocation path + accesses)."""
    db = ProfileDB(f"p{i}", meta={"rank": str(i)})
    for t in range(2):
        profile = ThreadProfile(f"p{i}.t{t}")
        heap = profile.cct(StorageClass.HEAP)
        heap.add_sample_at(
            [
                ((KIND_FRAME, "main", 0), {"label": "main"}),
                ((KIND_FRAME, "solver.c", 42 + (i % 3)), {"var": "grid"}),
                (HEAP_MARKER_KEY, None),
                ((KIND_IP, "kernel", 100 + t, 0), None),
            ],
            _sample(latency=5 + i),
        )
        profile.cct(StorageClass.STATIC).add_sample_at(
            [
                ((KIND_FRAME, "main", 0), None),
                ((KIND_IP, "init", 7, 0), None),
            ],
            _sample(latency=2 + t),
        )
        db.add_thread(profile)
    return db


class TestInputImmutability:
    def test_reduction_tree_merge_leaves_inputs_bit_identical(self):
        dbs = [_make_db(i) for i in range(7)]
        before = [db.to_bytes() for db in dbs]
        before_canonical = [db.canonical_bytes() for db in dbs]
        reduction_tree_merge(dbs, "job", arity=2)
        assert [db.to_bytes() for db in dbs] == before
        assert [db.canonical_bytes() for db in dbs] == before_canonical

    def test_merge_profiles_leaves_inputs_bit_identical(self):
        dbs = [_make_db(i) for i in range(5)]
        before = [db.to_bytes() for db in dbs]
        merge_profiles(dbs, "job")
        assert [db.to_bytes() for db in dbs] == before

    def test_inputs_not_aliased_into_output(self):
        """Mutating the merge output never leaks back into an input."""
        dbs = [_make_db(i) for i in range(3)]
        before = [db.to_bytes() for db in dbs]
        merged, _ = reduction_tree_merge(dbs, "job")
        (profile,) = merged.all_profiles()
        for storage in profile.storage_classes():
            cct = profile.get_cct(storage)
            cct.root.metrics.latency += 1_000_000
            for node in cct.root.find(lambda n: n.info is not None):
                node.info["tampered"] = "yes"
        assert [db.to_bytes() for db in dbs] == before

    def test_same_input_mergeable_twice(self):
        """A DB can feed two merges (e.g. a retry) with identical results."""
        dbs = [_make_db(i) for i in range(4)]
        first, _ = reduction_tree_merge(dbs, "job")
        second, _ = reduction_tree_merge(dbs, "job")
        assert first.canonical_bytes() == second.canonical_bytes()


class TestAssociativity:
    def test_sequential_and_tree_schedules_agree_bytewise(self):
        for n in (1, 2, 3, 8, 13):
            dbs = [_make_db(i) for i in range(n)]
            before = [db.to_bytes() for db in dbs]
            drawn = []

            def stream():
                for db in dbs:
                    drawn.append(db)
                    yield db

            seq = merge_profiles(dbs, "job").canonical_bytes()
            streamed = merge_profiles(stream(), "job").canonical_bytes()
            tree2 = reduction_tree_merge(dbs, "job", arity=2)[0].canonical_bytes()
            tree4 = reduction_tree_merge(dbs, "job", arity=4)[0].canonical_bytes()
            assert seq == streamed == tree2 == tree4, f"schedule mismatch at n={n}"
            # A generator is consumed once, in order, and never mutated.
            assert drawn == dbs
            assert [db.to_bytes() for db in dbs] == before
        with pytest.raises(ProfileError):
            merge_profiles(iter(()), "job")

    def test_canonical_bytes_ignore_insertion_order(self):
        a, b = _make_db(0), _make_db(1)
        ab = merge_profiles([a, b], "job")
        ba = merge_profiles([b, a], "job")
        assert ab.canonical_bytes() == ba.canonical_bytes()
        # plain to_bytes may legitimately differ (child insertion order);
        # canonical encoding is what erases schedule effects.

    def test_merge_stats_critical_path_model(self):
        dbs = [_make_db(i) for i in range(16)]
        _, stats = reduction_tree_merge(dbs, "job", arity=2)
        assert stats.rounds == 4
        assert len(stats.per_round_visits) == 5  # leaf round + 4 merge rounds
        assert stats.node_visits == sum(stats.per_round_visits)
        assert 0 < stats.critical_path_visits < stats.node_visits


class TestReadOnlyViews:
    def _snapshot(self, db: ProfileDB):
        return (
            db.to_bytes(),
            db.node_count(),
            {
                name: tuple(profile.storage_classes())
                for name, profile in db.threads.items()
            },
        )

    def test_building_views_does_not_materialize_ccts(self):
        """A profile with only HEAP data must still have only HEAP data
        after every read path has walked it."""
        db = _make_db(0)
        # Drop STATIC so most storage classes are absent — the historical
        # bug materialized empty CCTs for every class a view asked about.
        for profile in db.threads.values():
            profile._ccts.pop(StorageClass.STATIC)
        size_before = db.size_bytes()
        snap = self._snapshot(db)

        exp = Analyzer("view-test").add_all([db]).analyze()
        for kind in MetricKind:
            view = exp.top_down(kind)
            render_top_down(view, top_n=5)
            render_variable_table(view, top_n=5)
            render_bottom_up(exp.bottom_up(kind), top_n=5)
        derive_from_profile(exp)

        assert self._snapshot(db) == snap
        assert db.size_bytes() == size_before
        # The merged experiment DB is likewise not inflated by being read.
        merged_snap = self._snapshot(exp.db)
        exp.top_down(MetricKind.LATENCY)
        assert self._snapshot(exp.db) == merged_snap

    def test_get_cct_does_not_create(self):
        profile = ThreadProfile("t")
        assert profile.get_cct(StorageClass.HEAP) is None
        assert not profile.has_cct(StorageClass.HEAP)
        assert profile.storage_classes() == []
        # cct() is the write path and does create.
        profile.cct(StorageClass.HEAP)
        assert profile.get_cct(StorageClass.HEAP) is not None

    def test_empty_merge_rejected(self):
        with pytest.raises(ProfileError):
            reduction_tree_merge([], "job")
        with pytest.raises(ProfileError):
            reduction_tree_merge([_make_db(0)], "job", arity=1)
