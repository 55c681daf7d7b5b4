"""Outside-in layer tracing for the benchmark's ``--trace 1`` runs.

Nothing here edits the program: :class:`Tracer` replaces the public entry
points of each layer at class or module level and :meth:`Tracer.restore`
puts the originals back.  There are two kinds of boundary.

* Hot per-access boundaries (``MemoryHierarchy.access``/``access_run``,
  the ``Ctx`` access/alloc methods and ``AddressSpace.home_of``, the PMU
  engines' ``note_mem``/``note_compute``, the profiler's sample and
  allocation hooks) keep a call count, total time and child time per
  layer in memory.  One span per call would not fit: amg2006 alone makes
  about 1.35M cache accesses per rank.
* Coarse boundaries (rank, encode, decode, merge, compaction, query,
  request, store write) record one :class:`Span` each, with its parent,
  and are written out when the run ends.

A layer's self time is its total time minus the time its wrapped
children took.  Time spent in a hot layer is also charged, as child
time, to the innermost open coarse span, so a rank span's self time
minus its hot-layer time is what the app code itself took.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

_clock = time.perf_counter_ns

# Ctx methods that belong to the simulator runtime.  ``call``/``parallel``
# are left out on purpose: they run app kernels (generators) as their body,
# so timing them would charge app code to the runtime.
CTX_METHODS = (
    "enter", "leave", "ip", "load_ip", "store_ip", "load", "store",
    "load_run", "store_run", "_access_run", "load_stride", "store_stride",
    "compute", "malloc", "calloc", "free", "alloc_array", "static_array",
    "touch_range", "declare_stack_var", "release_stack_var", "comm",
)
PROFILER_HOOKS = ("on_sample", "on_alloc", "on_free")
HOT_LAYERS = ("machine", "sim", "pmu", "profiler")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    child_ns: int = 0            # time covered by child spans and hot layers
    args: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


class Tracer:
    """Counts and times calls at the pipeline's layer boundaries."""

    def __init__(self) -> None:
        # layer -> [top-level calls, total ns, child ns]
        self.layers: dict[str, list[int]] = {layer: [0, 0, 0] for layer in HOT_LAYERS}
        self.run_accesses = 0        # accesses made through MemoryHierarchy.access_run
        self.bytes_written = 0       # store writes (leaves, rollups, manifests)
        self.fsyncs = 0
        self.spans: list[Span] = []
        self._hot: list[list] = []   # open hot frames: [layer, child_ns]
        self._open: list[int] = []   # open coarse spans (indices into spans)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(name, _clock(), parent=parent, args=args)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end_ns = _clock()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_ns += span.dur_ns

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _hot_wrapper(self, layer: str, count_arg: int | None = None):
        stack = self._hot
        rec = self.layers[layer]
        opened = self._open
        spans = self.spans
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)   # same layer re-entered
                frame = [layer, 0]
                stack.append(frame)
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[1]
                    if stack:
                        stack[-1][1] += dt
                    elif opened:
                        spans[opened[-1]].child_ns += dt
                    if count_arg is not None:
                        tracer.run_accesses += (
                            args[count_arg] if len(args) > count_arg else kwargs["count"]
                        )
            return wrapper

        return make

    def _span_wrapper(self, name: str, annotate: Callable | None = None):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                opened = tracer._open
                if opened and tracer.spans[opened[-1]].name == name:
                    return fn(*args, **kwargs)   # e.g. canonical_bytes -> to_bytes
                with tracer.span(name) as span:
                    result = fn(*args, **kwargs)
                    if annotate is not None:
                        span.args.update(annotate(args, result))
                    return result
            return wrapper

        return make

    def install_rank_layers(self) -> None:
        """Wrap the hot per-access boundaries of the rank pipeline."""
        from repro.core.profiler import DataCentricProfiler
        from repro.machine.hierarchy import MemoryHierarchy
        from repro.pmu.ebs import EBSEngine
        from repro.pmu.ibs import IBSEngine
        from repro.pmu.marked import MarkedEventEngine
        from repro.pmu.pebs import PEBSEngine
        from repro.sim.address_space import AddressSpace
        from repro.sim.runtime import Ctx

        # access_run(self, hw_tid, base_vaddr, stride, count, ...): count is args[4].
        self._patch(MemoryHierarchy, "access", self._hot_wrapper("machine"))
        self._patch(MemoryHierarchy, "access_run", self._hot_wrapper("machine", 4))
        for attr in CTX_METHODS:
            self._patch(Ctx, attr, self._hot_wrapper("sim"))
        self._patch(AddressSpace, "home_of", self._hot_wrapper("sim"))
        for engine in (IBSEngine, EBSEngine, MarkedEventEngine, PEBSEngine):
            for attr in ("note_mem", "note_compute"):
                self._patch(engine, attr, self._hot_wrapper("pmu"))
        for attr in PROFILER_HOOKS:
            self._patch(DataCentricProfiler, attr, self._hot_wrapper("profiler"))

    def install_codec(self) -> None:
        """Wrap the codec's public entry points as coarse spans."""
        from repro.core.profiledb import ProfileDB

        self._patch(ProfileDB, "to_bytes", self._span_wrapper("encode"))
        self._patch(ProfileDB, "canonical_bytes", self._span_wrapper("encode"))
        self._patch(
            ProfileDB, "from_bytes",
            self._span_wrapper("decode", lambda args, _: {"bytes": len(args[1])}),
        )

    def install_serve(self) -> None:
        """Wrap the store, compaction and query entry points (plus the codec)."""
        import repro.serve.store as store_mod
        from repro.serve.query import QueryEngine

        self.install_codec()
        self._patch(store_mod.ProfileStore, "ingest", self._span_wrapper("store.write"))
        self._patch(store_mod.ProfileStore, "compact", self._span_wrapper("compaction"))
        self._patch(store_mod, "reduction_tree_merge", self._span_wrapper("merge"))
        self._patch(
            QueryEngine, "query",
            self._span_wrapper("query", lambda _, result: {"cached": bool(result.get("cached"))}),
        )
        tracer = self

        def count_bytes(fn):
            def wrapper(path, data):
                tracer.bytes_written += len(data)
                return fn(path, data)
            return wrapper

        def count_fsync(fn):
            def wrapper(fd):
                tracer.fsyncs += 1
                return fn(fd)
            return wrapper

        self._patch(store_mod, "_atomic_write", count_bytes)
        self._patch(os, "fsync", count_fsync)

    # -- results -------------------------------------------------------------

    def export(self) -> dict:
        """Picklable summary, shipped back from the service process."""
        return {
            "bytes_written": self.bytes_written,
            "fsyncs": self.fsyncs,
            "spans": [
                (s.name, s.start_ns, s.end_ns, s.parent, s.child_ns, s.args)
                for s in self.spans
            ],
        }

    @staticmethod
    def spans_from(export: dict) -> list[Span]:
        return [Span(*fields) for fields in export["spans"]]


def sum_spans(
    spans: list[Span], name: str, parent_name: str | None | bool = False,
    self_time: bool = False,
) -> float:
    """Seconds covered by spans called ``name``.

    ``parent_name=False`` takes every such span; ``None`` only root spans;
    a string only spans whose parent has that name.
    """
    total = 0
    for span in spans:
        if span.name != name:
            continue
        if parent_name is not False:
            parent = spans[span.parent].name if span.parent is not None else None
            if parent != parent_name:
                continue
        total += span.self_ns if self_time else span.dur_ns
    return total / 1e9


def write_spans(path: Path, groups: dict[str, list[Span]]) -> None:
    """Write spans as Chrome trace events (one pid per process group)."""
    events = []
    for pid, (label, spans) in enumerate(sorted(groups.items())):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for index, span in enumerate(spans):
            events.append({
                "name": span.name, "ph": "X", "pid": pid, "tid": 0,
                "ts": span.start_ns / 1e3, "dur": span.dur_ns / 1e3,
                "args": dict(span.args, id=index, parent=span.parent),
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"traceEvents": events}))
    os.replace(tmp, path)
