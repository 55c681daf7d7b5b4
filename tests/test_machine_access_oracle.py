"""Differential test: the fused scalar ``MemoryHierarchy.access`` vs its oracle.

``MemoryHierarchy.access`` probes, promotes and fills the TLB and cache
tag lists directly.  ``tests/access_oracle.py`` keeps the method-call
form it replaced (``TLB.access``, ``SetAssocCache.access``/``install``).
Two identically built hierarchies take the same random access sequence,
one through each; every returned tuple and every piece of final state —
each set's LRU order, hit/miss counters, level and hop counts, stream
prefetcher state, contention counters — must match.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.presets import Machine, amd_magnycours_spec, tiny_spec
from tests.access_oracle import oracle_access

LINE = 64
PAGE = 4096


def _tiny_store_extra():
    spec = tiny_spec()
    return replace(spec, latency=replace(spec.latency, store_extra=7))


# (spec factory, hardware threads to draw from): several cores on more
# than one socket, so private L1/L2/TLB state and shared L3 state diverge.
PRESETS = {
    "tiny": (tiny_spec, (0, 1, 2, 3)),
    "tiny-store-extra": (_tiny_store_extra, (0, 1, 2, 3)),
    "magnycours": (amd_magnycours_spec, (0, 1, 6, 12, 13, 30, 47)),
}


def full_state(h: MemoryHierarchy) -> dict:
    """Everything ``access`` can change, set-by-set in LRU order."""

    def cache_state(cache) -> tuple:
        return (cache.hits, cache.misses, [list(ways) for ways in cache.sets])

    contention = h.contention
    nodes = range(contention.n_nodes)
    return {
        "tlb": [cache_state(t.cache) for t in h.tlb],
        "l1": [cache_state(c) for c in h.l1],
        "l2": [cache_state(c) for c in h.l2],
        "l3": [cache_state(c) for c in h.l3],
        "level_counts": list(h.level_counts),
        "hop_counts": list(h.hop_counts),
        "loads": h.load_count,
        "stores": h.store_count,
        "prefetch_hits": h.prefetch_hits,
        "streams": [list(s) for s in h._streams],
        "stream_rr": list(h._stream_rr),
        "dram": list(h.memmgr.dram_accesses),
        "remote_dram": list(h.memmgr.remote_dram_accesses),
        "queue_cycles": contention.total_queue_cycles,
        "windows": contention.windows,
        "window_loads": [contention.window_load(n) for n in nodes],
        "delays": [contention.congestion_delay(n) for n in nodes],
        "window_tids": sorted(contention._tids),
    }


@st.composite
def access_program(draw, hw_tids: tuple[int, ...], n_nodes: int):
    """Accesses over a working set sized to spill some levels and not
    others: single random touches, short unit/line/page-stride sweeps
    (which drive the stream prefetcher and LRU promotion), and window
    rotations (which turn DRAM traffic into contention delay)."""
    n_lines = draw(st.sampled_from([16, 96, 640, 4096]))
    base = draw(st.integers(min_value=0, max_value=1 << 16)) * LINE
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["touch", "touch", "sweep", "window"]))
        if kind == "window":
            ops.append(None)
            continue
        hw_tid = draw(st.sampled_from(hw_tids))
        home = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        is_store = draw(st.booleans())
        start = base + draw(st.integers(min_value=0, max_value=n_lines * LINE - 1))
        if kind == "touch":
            ops.append((hw_tid, start, home, is_store))
            continue
        stride = draw(st.sampled_from([8, LINE, 3 * LINE, PAGE, -LINE]))
        for k in range(draw(st.integers(min_value=1, max_value=24))):
            ops.append((hw_tid, start + k * stride, home, is_store))
    return ops


def _replay(preset: str, prefetch: bool, ops) -> None:
    make_spec, _ = PRESETS[preset]
    spec = replace(make_spec(), prefetch=prefetch)
    fused = Machine(spec).hierarchy
    oracle = Machine(spec).hierarchy
    for step, op in enumerate(ops):
        if op is None:
            fused.new_window()
            oracle.new_window()
            continue
        got = fused.access(*op)
        want = oracle_access(oracle, *op)
        assert got == want, f"step {step}: access{op} returned {got}, oracle {want}"
    assert full_state(fused) == full_state(oracle)


def _program(preset: str):
    make_spec, hw_tids = PRESETS[preset]
    return access_program(hw_tids, make_spec().n_numa_nodes)


@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "no-prefetch"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_access_matches_oracle(preset, prefetch, data):
    _replay(preset, prefetch, data.draw(_program(preset)))


class TestDirected:
    """Fixed sequences that hit each branch the mutation checks target."""

    def test_non_mru_l1_hit_is_promoted(self):
        # tiny L1: 4 sets x 2 ways; lines 0 and 4 share set 0.
        ops = [(0, 0, 0, False), (0, 4 * LINE, 0, False),   # set 0: [4, 0]
               (0, 0, 0, False),                           # non-MRU hit -> [0, 4]
               (0, 8 * LINE, 0, False),                    # evicts LRU (4)
               (0, 4 * LINE, 0, False)]                    # so this misses L1
        _replay("tiny", True, ops)

    def test_tlb_miss_counted_and_filled(self):
        ops = [(1, k * PAGE, 1, k % 2 == 0) for k in range(12)]
        ops += [(1, 3 * PAGE + 8, 1, False), (1, 11 * PAGE, 1, True)]
        _replay("tiny", False, ops)

    def test_contention_and_remote_hops(self):
        ops = []
        for window in range(3):
            for k in range(40):
                ops.append((k % 4, (window * 40 + k) * PAGE, 0, k % 3 == 0))
            ops.append(None)
        _replay("tiny", True, ops)
        ops = [(t, (t * 64 + k) * LINE, (t + k) % 8, False)
               for k in range(30) for t in (0, 12, 30, 47)]
        _replay("magnycours", True, ops)
