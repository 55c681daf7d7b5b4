"""Golden rank digests: the byte-identity promise for rank hot-path work.

Each case pins the first 12 hex digits of ``sha256(canonical_bytes())``
of one rank's profile.  Work on the simulator's per-access path (machine
model, first-touch lookup, PMU delivery, sample attribution) must leave
every simulated bit alone, so these values only change when a change
means to change what a rank measures — and then this table says so.

Two sets: rank 0 of 2 at the smoke preset for all five apps, and the
two IBS apps at 1/32 of their smoke sampling period (dense sampling,
where PMU delivery and sample attribution dominate).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from importlib import import_module

import pytest

from repro.parallel.registry import run_app_rank

SMOKE = {
    "amg2006": "d8895d9a89dd",
    "lulesh": "0649c9468abd",
    "nw": "444dc13ac6f9",
    "streamcluster": "46aea6d287e6",
    "sweep3d": "76fb41df3520",
}

# app -> (PMU period: the smoke preset's // 32, digest)
DENSE_SMOKE = {
    "lulesh": (2, "acf69467f7f4"),
    "sweep3d": (3, "712ec9528ed4"),
}


def _digest(db) -> str:
    return hashlib.sha256(db.canonical_bytes()).hexdigest()[:12]


@pytest.mark.parametrize("app", sorted(SMOKE))
def test_smoke_rank_digest(app):
    assert _digest(run_app_rank(app, 0, 2, preset="smoke")) == SMOKE[app]


@pytest.mark.parametrize("app", sorted(DENSE_SMOKE))
def test_dense_sampling_rank_digest(app):
    period, digest = DENSE_SMOKE[app]
    module = import_module(f"repro.apps.{app}")
    cfg = module.rank_config("smoke", "original")
    assert cfg.pmu_period // 32 == period
    db = module.run_rank(0, 2, "original", "smoke", cfg=replace(cfg, pmu_period=period))
    assert _digest(db) == digest
