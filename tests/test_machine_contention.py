"""The windowed contention model: unloaded-window semantics.

The headline pin here is ``TestUnloadedWindows`` (referenced from the
``repro.machine.contention`` docstring): a window below ``min_traffic``
*discards* its traffic and issuing-thread set — intended behaviour,
since ``min_traffic`` is a per-window bandwidth threshold.
"""

from __future__ import annotations

from repro.machine.contention import ControllerContention


def _loaded_window(c: ControllerContention, node: int = 0, n: int = 200,
                   tids: int = 4) -> None:
    for t in range(tids):
        for _ in range(n // tids):
            c.dram_access(node, hw_tid=t)


class TestUnloadedWindows:
    """Below-``min_traffic`` windows discard their traffic and threads."""

    def test_default_discards_traffic_and_tids(self):
        c = ControllerContention(n_nodes=4, capacity_per_window=64)
        # 64 windows of sub-threshold, fully-imbalanced traffic from many
        # threads: aggregate share says "congested", the rate threshold
        # says "unloaded" — the rate threshold wins, by design.
        for _ in range(64):
            for t in range(8):
                c.dram_access(0, hw_tid=t)
            assert c.window_load(0) == 8
            c.new_window()
            assert c.window_load(0) == 0, "unloaded window must drop counts"
            assert c.congestion_delay(0) == 0
        assert c.total_queue_cycles == 0

    def test_discarded_tids_do_not_leak_concurrency(self):
        c = ControllerContention(n_nodes=4, capacity_per_window=64)
        # Eight threads issue in an unloaded window; the next window's
        # traffic comes from a single thread.  If the thread set leaked,
        # the concurrency gate would open and charge a penalty.
        for t in range(8):
            c.dram_access(0, hw_tid=t)
        c.new_window()
        for _ in range(200):
            c.dram_access(0, hw_tid=0)
        c.new_window()
        assert c.congestion_delay(0) == 0

    def test_loaded_window_still_penalizes(self):
        c = ControllerContention(n_nodes=4, capacity_per_window=64)
        _loaded_window(c)
        c.new_window()
        assert c.congestion_delay(0) > 0
