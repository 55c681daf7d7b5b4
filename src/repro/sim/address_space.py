"""Per-process virtual address space: segments and page placement.

Each process owns a disjoint slab of the (simulated) virtual address
space, carved into text / static / heap / stack segments.  The page table
here records each touched page's home NUMA node; placement is decided at
first touch by the effective policy — the process default (settable by
the ``numactl`` wrapper) unless an allocation-range override (the
``libnuma`` API) covers the page.
"""

from __future__ import annotations

from repro.errors import AddressError, ConfigError
from repro.machine.memory import MemoryManager
from repro.machine.policies import AllocPolicy, FirstTouch
from repro.sim.malloc import HeapAllocator
from repro.util.intervals import IntervalMap

__all__ = ["AddressSpace"]

_SLAB_BITS = 40
_TEXT_OFFSET = 0x0040_0000
_STATIC_OFFSET = 0x1000_0000
_HEAP_OFFSET = 0x10_0000_0000
_STACK_OFFSET = 0x80_0000_0000
_STACK_SIZE_PER_THREAD = 1 << 20


class AddressSpace:
    """Virtual address space of one simulated process."""

    def __init__(
        self,
        asid: int,
        memmgr: MemoryManager,
        page_bits: int = 12,
        heap_capacity: int = 1 << 32,
        default_policy: AllocPolicy | None = None,
    ) -> None:
        if asid < 0:
            raise ConfigError("asid must be >= 0")
        self.asid = asid
        self.base = (asid + 1) << _SLAB_BITS
        self.page_bits = page_bits
        self.memmgr = memmgr
        self.default_policy: AllocPolicy = default_policy or FirstTouch()
        self.heap = HeapAllocator(self.base + _HEAP_OFFSET, heap_capacity)
        self._text_cursor = self.base + _TEXT_OFFSET
        self._static_cursor = self.base + _STATIC_OFFSET
        self._stack_base = self.base + _STACK_OFFSET
        self._page_home: dict[int, int] = {}
        self._policy_overrides = IntervalMap()

    # -- segment carving ----------------------------------------------------

    def reserve_text(self, size: int) -> int:
        addr = self._text_cursor
        self._text_cursor += (size + 0xFFF) & ~0xFFF
        return addr

    def reserve_static(self, size: int) -> int:
        addr = self._static_cursor
        self._static_cursor += (size + 0xFFF) & ~0xFFF
        return addr

    def stack_base(self, thread_index: int) -> int:
        """Top-of-stack address for a thread's private stack area."""
        return self._stack_base + thread_index * _STACK_SIZE_PER_THREAD

    # -- NUMA policy ----------------------------------------------------------

    def set_default_policy(self, policy: AllocPolicy) -> None:
        self.default_policy = policy

    def set_range_policy(self, start: int, end: int, policy: AllocPolicy) -> None:
        """libnuma-style per-range override; wins over the process default."""
        self._policy_overrides.add(start, end, policy)

    def clear_range_policy(self, start: int) -> None:
        self._policy_overrides.remove(start)

    def policy_for(self, vaddr: int) -> AllocPolicy:
        override = self._policy_overrides.lookup(vaddr)
        return override if override is not None else self.default_policy

    # -- page table (hot path) -------------------------------------------------

    def home_of(self, vaddr: int, toucher_node: int) -> int:
        """Home NUMA node of the page containing ``vaddr``.

        First touch commits the page under the effective policy.
        """
        vpage = vaddr >> self.page_bits
        home = self._page_home.get(vpage, -1)
        if home >= 0:
            return home
        policy = self._policy_overrides.lookup(vaddr)
        if policy is None:
            policy = self.default_policy
        node = policy.place(toucher_node, vpage)
        self._page_home[vpage] = node
        self.memmgr.note_page_placed(node)
        return node

    @property
    def page_table(self) -> dict[int, int]:
        """The live page table: virtual page number -> home NUMA node.

        Holds touched pages only.  Callers read it (``Ctx`` resolves an
        already-placed page with one lookup and falls back to
        :meth:`home_of` on a miss); placement and migration write it
        through :meth:`home_of` and :meth:`migrate_range` alone.
        """
        return self._page_home

    def page_home_if_touched(self, vaddr: int) -> int | None:
        """Non-committing lookup (for tests/inspection)."""
        return self._page_home.get(vaddr >> self.page_bits)

    def touched_pages(self) -> int:
        return len(self._page_home)

    def pages_by_node(self, n_nodes: int) -> list[int]:
        counts = [0] * n_nodes
        for node in self._page_home.values():
            counts[node] += 1
        return counts

    def migrate_range(self, start: int, end: int, node: int) -> int:
        """Move already-touched pages in [start, end) to ``node``.

        Models ``numa_move_pages``/next-touch migration; returns the number
        of pages moved.  Placement accounting is updated; cache contents
        are left alone (migration moves DRAM pages, not cache lines).
        """
        if end <= start:
            raise AddressError("empty migration range")
        moved = 0
        first = start >> self.page_bits
        last = (end - 1) >> self.page_bits
        for vpage in range(first, last + 1):
            old = self._page_home.get(vpage)
            if old is not None and old != node:
                self.memmgr.note_page_released(old)
                self.memmgr.note_page_placed(node)
                self._page_home[vpage] = node
                moved += 1
        return moved
