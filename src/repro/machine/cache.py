"""Set-associative LRU cache model.

The tag store is a list of per-set Python lists ordered most-recently-used
first.  Associativities are small (2-16), so the list scan beats fancier
structures, and `list.remove`/`insert(0)` keep the hot path allocation
free.  This is the innermost loop of the whole simulator; keep it lean.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["SetAssocCache"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class SetAssocCache:
    """A set-associative cache with true-LRU replacement.

    Addresses are tracked at line granularity; callers pass *line numbers*
    (address >> line_bits), not byte addresses, so one shift is shared by
    every level of the hierarchy.
    """

    __slots__ = ("name", "n_sets", "assoc", "_sets", "_set_mask", "hits", "misses")

    def __init__(self, name: str, n_sets: int, assoc: int) -> None:
        if not _is_pow2(n_sets):
            raise ConfigError(f"{name}: n_sets must be a power of two, got {n_sets}")
        if assoc < 1:
            raise ConfigError(f"{name}: associativity must be >= 1")
        self.name = name
        self.n_sets = n_sets
        self.assoc = assoc
        self._set_mask = n_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self.assoc

    @property
    def sets(self) -> list[list[int]]:
        """The live tag store: one MRU-first list per set, index ``line & (n_sets - 1)``.

        The lists are only ever mutated in place, never replaced, so
        ``MemoryHierarchy``'s fused scalar path binds them once and probes
        them directly (bumping ``hits``/``misses`` itself).
        """
        return self._sets

    def access(self, line: int) -> bool:
        """Look up ``line``; on hit, promote to MRU.  Returns hit/miss.

        A miss does *not* install the line — the hierarchy decides what to
        fill where (so prefetch installs and demand fills share one path).
        """
        ways = self._sets[line & self._set_mask]
        if line in ways:
            self.hits += 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return True
        self.misses += 1
        return False

    def install(self, line: int) -> int | None:
        """Insert ``line`` as MRU; return the evicted line, if any."""
        ways = self._sets[line & self._set_mask]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return None
        ways.insert(0, line)
        if len(ways) > self.assoc:
            return ways.pop()
        return None

    def note_repeat_hits(self, n: int) -> None:
        """Credit ``n`` hits to a line already resident and MRU.

        Batched-path counter flush: when ``MemoryHierarchy.access_run``
        short-circuits repeated lookups of the line it just touched, the
        set state is provably unchanged (the line is already MRU), so only
        the hit counter needs to catch up with the scalar path.
        """
        self.hits += n

    def contains(self, line: int) -> bool:
        """Non-promoting lookup (for tests and prefetch filtering)."""
        return line in self._sets[line & self._set_mask]

    def invalidate_all(self) -> None:
        for ways in self._sets:
            ways.clear()

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache({self.name}, sets={self.n_sets}, assoc={self.assoc}, "
            f"hits={self.hits}, misses={self.misses})"
        )
