"""Deterministic random-number support.

All stochastic decisions in the simulator (sampling jitter, workload data)
flow through seeded generators so that every test and benchmark run is
reproducible bit-for-bit.
"""

from __future__ import annotations

__all__ = ["DeterministicRNG", "splitmix64", "derive_rank_seed", "jitter_bounds"]

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def jitter_bounds(period: int, frac: float) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` range of a period jittered by ``+/- frac``.

    ``lo`` is clamped to at least 1 and ``hi`` to at least ``lo``.  The
    one definition shared by :meth:`DeterministicRNG.geometric_jitter`
    and the PMU engines, which compute it once per engine and then draw
    ``lo + rng.next_u64() % (hi - lo + 1)`` per period — the same values,
    in the same order, as calling ``geometric_jitter`` each time.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    lo = max(1, int(period * (1.0 - frac)))
    hi = max(lo, int(period * (1.0 + frac)))
    return lo, hi


def derive_rank_seed(base_seed: int, rank: int) -> int:
    """Deterministic, well-mixed per-rank seed for multiprocess runs.

    ``base_seed + rank`` would correlate adjacent ranks' low bits; one
    splitmix64 step over the pair decorrelates them while staying a pure
    function of ``(base_seed, rank)`` — so a rank re-run after a worker
    crash reproduces the original execution exactly.
    """
    _, mixed = splitmix64((base_seed ^ ((rank + 1) * 0x9E3779B97F4A7C15)) & _MASK64)
    return mixed


class DeterministicRNG:
    """A tiny, fast, seedable generator (splitmix64 core).

    Deliberately independent of :mod:`random` global state so library code
    never perturbs — or is perturbed by — user seeding.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def geometric_jitter(self, period: int, frac: float = 0.125) -> int:
        """Sampling period with +/- jitter (PMU-style randomized period).

        Jitters ``period`` uniformly within ``period * (1 +/- frac)`` and
        clamps to at least 1.  Randomized periods avoid lockstep aliasing
        between the sampler and loop structure, the standard PMU trick.
        """
        lo, hi = jitter_bounds(period, frac)
        return self.randint(lo, hi)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def fork(self, salt: int) -> "DeterministicRNG":
        """Derive an independent stream (e.g. one per simulated thread)."""
        _, mixed = splitmix64((self._state ^ (salt * 0x9E3779B97F4A7C15)) & _MASK64)
        return DeterministicRNG(mixed)
