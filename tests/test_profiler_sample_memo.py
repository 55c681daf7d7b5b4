"""The profiler's sample-path memo.

``DataCentricProfiler`` builds each sample's calling-context path from
memoized entries: frames keyed by (function, call-site IP), leaves by
IP.  The memo must give exactly what ``unwind_keys`` builds, and module
loads/unloads must invalidate it so an unloaded library's IPs fail the
way they fail without it.
"""

from __future__ import annotations

import pytest

from repro.core.profiler import DataCentricProfiler
from repro.core.unwind import unwind_keys
from repro.errors import ProfileError
from repro.parallel.registry import run_app_rank
from repro.pmu.sample import Sample
from repro.sim.loader import LoadModule
from repro.sim.source import SourceFile


@pytest.mark.parametrize("app", ["lulesh", "nw"])   # IBS; marked events
def test_memoized_paths_equal_unwind_keys(app, monkeypatch):
    """Every sample of a smoke rank: memoized path == ``unwind_keys``."""
    memoized = DataCentricProfiler._sample_path
    checked: list[int] = []

    def recording(self, process, thread, leaf_ip):
        path = memoized(self, process, thread, leaf_ip)
        assert path == unwind_keys(process, thread, leaf_ip)
        checked.append(len(path))
        return path

    monkeypatch.setattr(DataCentricProfiler, "_sample_path", recording)
    run_app_rank(app, 0, 2, preset="smoke")
    assert len(checked) >= 40
    assert min(checked) >= 2   # at least one frame above the leaf


def _sample_at(ip: int) -> Sample:
    return Sample("T", ip, ip, 0x10, 10, 3, False, False, 1)


class TestModuleHooks:
    @pytest.fixture
    def with_lib(self, profiled_mini):
        mini, profiler = profiled_mini
        lib = LoadModule("libplugin.so")
        fn = lib.add_function("plugin_kernel", SourceFile("plugin.c"), 1, 20)
        mini.process.load_module(lib)
        mini.master_ctx()   # enter main: samples need a call stack
        return mini, profiler, lib, fn

    def test_unloaded_library_ip_raises(self, with_lib):
        mini, profiler, lib, fn = with_lib
        process, thread = mini.process, mini.process.master
        ip = fn.ip(5)
        profiler.on_sample(process, thread, _sample_at(ip))   # memoizes the leaf
        assert profiler.stats.unknown_samples == 1

        process.unload_module(lib)
        with pytest.raises(ProfileError):
            unwind_keys(process, thread, ip)   # the reference fails ...
        with pytest.raises(ProfileError):
            profiler.on_sample(process, thread, _sample_at(ip))   # ... so must the memo

    def test_reload_at_new_base_resolves_afresh(self, with_lib):
        mini, profiler, lib, fn = with_lib
        process, thread = mini.process, mini.process.master
        profiler.on_sample(process, thread, _sample_at(fn.ip(5)))
        process.unload_module(lib)
        process.load_module(lib)   # placed at a new text base
        ip = fn.ip(5)
        assert profiler._sample_path(process, thread, ip) == unwind_keys(process, thread, ip)

    def test_memo_entries_shared_not_copied(self, with_lib):
        mini, profiler, lib, fn = with_lib
        process, thread = mini.process, mini.process.master
        first = profiler._sample_path(process, thread, fn.ip(5))
        second = profiler._sample_path(process, thread, fn.ip(5))
        assert all(a is b for a, b in zip(first, second))
