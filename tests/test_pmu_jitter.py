"""PMU engines draw their periods from ``jitter_bounds`` once per engine.

Each engine precomputes ``repro.util.rng.jitter_bounds`` and draws
``lo + rng.next_u64() % span`` per period; the stream must be exactly
what ``DeterministicRNG.geometric_jitter`` draws, value for value, so
sample streams (and rank bytes) are unchanged.
"""

from __future__ import annotations

import pytest

from repro.pmu import EBSEngine, IBSEngine, MarkedEventEngine, PEBSEngine, Sample
from repro.pmu.events import PM_MRK_DATA_FROM_RMEM
from repro.util.rng import DeterministicRNG, jitter_bounds

ENGINES = {
    "ibs": lambda period, seed, jitter: IBSEngine(period=period, seed=seed, jitter=jitter),
    "ebs": lambda period, seed, jitter: EBSEngine(period=period, seed=seed, jitter=jitter),
    "pebs": lambda period, seed, jitter: PEBSEngine(period=period, seed=seed, jitter=jitter),
    "marked": lambda period, seed, jitter: MarkedEventEngine(
        PM_MRK_DATA_FROM_RMEM, period=period, seed=seed, jitter=jitter
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "period,jitter", [(1, 0.45), (2, 0.45), (3, 0.125), (8, 0.45), (48, 0.125), (512, 0.45)]
)
def test_engine_periods_match_geometric_jitter(engine, period, jitter):
    pmu = ENGINES[engine](period, 0x5EED, jitter)
    reference = DeterministicRNG(0x5EED)
    drawn = [pmu._next_countdown() for _ in range(200)]
    assert drawn == [reference.geometric_jitter(period, jitter) for _ in range(200)]


def test_jitter_bounds_clamp_and_reject():
    assert jitter_bounds(1, 0.45) == (1, 1)
    assert jitter_bounds(2, 0.45) == (1, 2)
    assert jitter_bounds(512, 0.125) == (448, 576)
    with pytest.raises(ValueError):
        jitter_bounds(0, 0.1)


def test_sample_record_fields_and_properties():
    sample = Sample("E", 1, 2, 0x40, 12, 1, True, False, 64)
    assert Sample._fields == (
        "event", "precise_ip", "interrupt_ip", "ea", "latency", "level",
        "tlb_miss", "is_store", "period",
    )
    assert sample == Sample(event="E", precise_ip=1, interrupt_ip=2, ea=0x40, latency=12,
                            level=1, tlb_miss=True, is_store=False, period=64)
    assert sample.is_memory and sample.level_name == "L2"
    nonmem = sample._replace(ea=None, level=-1)
    assert not nonmem.is_memory and nonmem.level_name == "NONE"
    with pytest.raises(AttributeError):
        sample.latency = 0


def test_nonmem_ip_is_function_entry(mini):
    """IBS/EBS take ``text_base`` for a function's entry IP."""
    for fn in (mini.main, mini.work, mini.alloc_shim):
        assert fn.text_base == fn.ip(fn.start_line)
