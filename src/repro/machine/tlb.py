"""TLB model — a thin specialization of the set-associative cache.

Tracked per core (SMT threads on a core share it).  A TLB miss charges a
page-walk penalty; long-stride access patterns cross pages on nearly every
access, which is one of the two effects (with lost spatial locality) that
the Sweep3D case study's layout transposition removes.
"""

from __future__ import annotations

from repro.machine.cache import SetAssocCache

__all__ = ["TLB"]


class TLB:
    """Fully-parameterized TLB over page numbers."""

    __slots__ = ("_cache",)

    def __init__(self, n_sets: int = 8, assoc: int = 4) -> None:
        self._cache = SetAssocCache("tlb", n_sets, assoc)

    def access(self, page: int) -> bool:
        """Translate ``page``; returns True on TLB hit.  Misses auto-fill."""
        if self._cache.access(page):
            return True
        self._cache.install(page)
        return False

    def note_repeat_hits(self, n: int) -> None:
        """Credit ``n`` hits to the already-resident, MRU page (bulk path)."""
        self._cache.note_repeat_hits(n)

    @property
    def cache(self) -> SetAssocCache:
        """The page-number cache behind this TLB (probed directly by
        ``MemoryHierarchy.access``)."""
        return self._cache

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def capacity_pages(self) -> int:
        return self._cache.capacity_lines

    def flush(self) -> None:
        self._cache.invalidate_all()
