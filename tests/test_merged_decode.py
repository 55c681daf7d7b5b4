"""The merged decode: ``merge_profiles([from_bytes(b)])`` in one pass.

``ProfileDB.merged_from_bytes`` folds every thread's CCT into the first
one of its storage class as it reads.  Pinned here: it builds exactly
what the two-step decode-then-merge builds (plain and canonical bytes)
on every app's smoke blobs and on random profile forests; over every
mutation of the codec parity corpus it never accepts a blob that
``from_bytes`` rejects; and it adds only the rules a fold needs — root
keys that name their storage class, strictly increasing thread names,
unique sibling keys within each source tree.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings

from repro.core.cct import KIND_FRAME, KIND_ROOT
from repro.core.merge import merge_profiles
from repro.core.profiledb import ProfileDB
from repro.core.storage import StorageClass
from repro.errors import ProfileError
from repro.parallel import APPS
from repro.parallel.registry import run_app_rank
from tests.test_codec_parity import (
    _EMPTY_METRICS,
    MUTATIONS,
    PARITY_APPS,
    _payload,
    _smoke_blob,
    _variants,
)
from tests.test_codec_robustness import _uv
from tests.test_property_pipeline import profile_dbs


def _two_step(data: bytes, name: str) -> ProfileDB:
    return merge_profiles([ProfileDB.from_bytes(data)], name)


def _assert_same(data: bytes, name: str = "job") -> None:
    expected = _two_step(data, name)
    merged = ProfileDB.merged_from_bytes(data, name)
    assert merged.to_bytes() == expected.to_bytes()
    assert merged.canonical_bytes() == expected.canonical_bytes()


@functools.cache
def _rank_blob(app: str, rank: int) -> bytes:
    return run_app_rank(app, rank, 2, preset="smoke").to_bytes()


class TestSameProfile:
    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("app", APPS)
    def test_smoke_blobs_of_every_app(self, app, rank):
        _assert_same(_rank_blob(app, rank), app)

    def test_builds_only_the_merged_nodes(self):
        data = _rank_blob("lulesh", 0)
        full = ProfileDB.from_bytes(data)
        merged = ProfileDB.merged_from_bytes(data, "lulesh")
        assert len(full.threads) > 1
        assert merged.node_count() == _two_step(data, "lulesh").node_count()
        assert merged.node_count() < full.node_count() / 10

    def test_canonical_input(self):
        _assert_same(ProfileDB.from_bytes(_rank_blob("nw", 0)).canonical_bytes())

    @given(profile_dbs())
    @settings(max_examples=40, deadline=None)
    def test_random_forests(self, dbs):
        for db in dbs:
            _assert_same(db.to_bytes(), db.process_name)

    def test_merged_nodes_share_nothing(self):
        merged = ProfileDB.merged_from_bytes(_rank_blob("nw", 1), "nw")
        [profile] = merged.all_profiles()
        nodes = [n for s in profile.storage_classes() for n in profile.get_cct(s).root.walk()]
        infos = [id(n.info) for n in nodes if n.info is not None]
        assert len(set(infos)) == len(infos)
        assert len({id(n.metrics.levels) for n in nodes}) == len(nodes)


class TestAcceptSet:
    @pytest.mark.parametrize(
        "mutation", MUTATIONS, ids=lambda m: m if isinstance(m, str) else f"xor{m:#04x}"
    )
    @pytest.mark.parametrize("app", PARITY_APPS)
    def test_never_accepts_what_from_bytes_rejects(self, app, mutation):
        data = _smoke_blob(app)
        widened, differs = [], []
        for where, variant in _variants(data, mutation):
            try:
                merged = ProfileDB.merged_from_bytes(variant, app)
            except ProfileError:
                continue
            try:
                expected = _two_step(variant, app)
            except ProfileError:
                widened.append(where)
                continue
            if merged.to_bytes() != expected.to_bytes():
                differs.append(where)
        assert not widened, f"{app}/{mutation}: accepted what from_bytes rejects at {widened[:10]}"
        assert not differs, f"{app}/{mutation}: differs from the two-step merge at {differs[:10]}"


# -- crafted blobs for the fold's own rules ----------------------------------------

_STRINGS = [b"p", b"t0", b"t1", b"heap", b"root", b"frame", b"a", b"b", b"not-heap"]
_IDX = {s.decode(): i for i, s in enumerate(_STRINGS)}


def _node(*key, children: int = 0) -> bytes:
    """One encoded node: string key elements, no info, zero metrics."""
    out = _uv(len(key))
    for element in key:
        out += b"\x01" + _uv(_IDX[element]) if isinstance(element, str) else b"\x00" + _uv(element)
    return out + _uv(0) + _EMPTY_METRICS + _uv(children)


def _blob(*threads: tuple[str, bytes]) -> bytes:
    """Threads of one heap CCT each: ``(thread name, encoded tree)``."""
    body = _uv(_IDX["p"]) + _uv(0) + _uv(len(threads))
    for name, tree in threads:
        body += _uv(_IDX[name]) + _uv(1) + _uv(_IDX["heap"]) + tree
    return _payload(_STRINGS, body)


def _root(*children: bytes) -> bytes:
    return _node("root", "heap", children=len(children)) + b"".join(children)


class TestFoldRules:
    def test_crafted_blob_matches_two_step(self):
        data = _blob(("t0", _root(_node("frame", "a", 0))),
                     ("t1", _root(_node("frame", "b", 0), _node("frame", "a", 0))))
        _assert_same(data)

    def test_root_key_must_name_its_storage_class(self):
        data = _blob(("t0", _node("root", "not-heap")))
        ProfileDB.from_bytes(data)  # a plain decode takes any root key ...
        with pytest.raises(ProfileError, match="root key"):
            ProfileDB.merged_from_bytes(data, "job")  # ... no merge can fold it
        with pytest.raises(ProfileError, match="cannot merge"):
            _two_step(data, "job")

    def test_root_key_checked_on_folded_threads_too(self):
        data = _blob(("t0", _root()), ("t1", _node("root", "not-heap")))
        with pytest.raises(ProfileError, match="root key"):
            ProfileDB.merged_from_bytes(data, "job")

    def test_thread_names_must_strictly_increase(self):
        data = _blob(("t1", _root()), ("t0", _root()))
        ProfileDB.from_bytes(data)
        with pytest.raises(ProfileError, match="does not sort after"):
            ProfileDB.merged_from_bytes(data, "job")

    @pytest.mark.parametrize("existing", [True, False], ids=["onto-existing", "new"])
    def test_duplicate_siblings_rejected_when_folded(self, existing):
        first = _root(_node("frame", "a", 0)) if existing else _root()
        dup = _root(_node("frame", "a", 0), _node("frame", "a", 0))
        data = _blob(("t0", first), ("t1", dup))
        with pytest.raises(ProfileError, match="duplicate child key"):
            ProfileDB.from_bytes(data)
        with pytest.raises(ProfileError, match="duplicate child key"):
            ProfileDB.merged_from_bytes(data, "job")

    def test_duplicate_storage_class_in_one_thread(self):
        body = (_uv(_IDX["p"]) + _uv(0) + _uv(1) + _uv(_IDX["t0"]) + _uv(2)
                + _uv(_IDX["heap"]) + _root() + _uv(_IDX["heap"]) + _root())
        data = _payload(_STRINGS, body)
        for decode in (ProfileDB.from_bytes,
                       lambda d: ProfileDB.merged_from_bytes(d, "job")):
            with pytest.raises(ProfileError, match="duplicate storage class"):
                decode(data)

    def test_a_real_blob_with_a_foreign_root_key(self):
        db = ProfileDB.from_bytes(_rank_blob("nw", 0))
        first = next(db.all_profiles())
        first.get_cct(StorageClass.HEAP).root.key = (KIND_ROOT, "not-heap")
        data = db.to_bytes()
        assert ProfileDB.from_bytes(data).node_count() == db.node_count()
        with pytest.raises(ProfileError, match="root key"):
            ProfileDB.merged_from_bytes(data, "nw")

    def test_deep_chain(self):
        db = ProfileDB.from_bytes(_rank_blob("nw", 0))
        tree = next(db.all_profiles()).cct(StorageClass.UNKNOWN)
        leaf = tree.insert_path([((KIND_FRAME, f"f{d}", d), None) for d in range(5000)])
        leaf.metrics.samples = 1
        _assert_same(db.to_bytes(), "nw")
