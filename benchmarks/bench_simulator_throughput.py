"""Simulator throughput: scalar vs batched.

Times the simulator's own hot loop (not the simulated workload!) in
simulated-accesses-per-second for the scalar and batched access paths,
and cross-checks that both paths leave bit-identical machine state:

- **scalar**: one ``MemoryHierarchy.access`` call per access (the
  oracle loop);
- **batched**: one ``MemoryHierarchy.access_run`` call per sweep — the
  merged same-home run ``Ctx`` issues when every page of the sweep has
  the same home node.

Runs two ways:

- standalone (what CI uses)::

      PYTHONPATH=src python benchmarks/bench_simulator_throughput.py --smoke
      PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
          --stats-out out/throughput.mstats.json

  ``--smoke`` shrinks the workload and skips the speedup assertions (CI
  machines have unpredictable timers); the equivalence checks always run
  and fail the bench on any scalar/batched divergence.  ``--stats-out``
  dumps the batched machine of the unit-stride headline sweep as
  ``MachineStats`` JSON for ``hpcview info --machine-stats``.

- under pytest-benchmark with the other reproduction benches
  (``pytest benchmarks/bench_simulator_throughput.py``), asserting the
  acceptance criterion: >= 2x batched over scalar on the unit-stride
  sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.machine.presets import amd_magnycours
from repro.sim.process import SimProcess
from repro.sim.runtime import Ctx
from repro.util.fmt import format_table

FULL_ACCESSES = 400_000
SMOKE_ACCESSES = 30_000
MIN_SPEEDUP = 2.0  # batched over scalar, unit-stride

# (name, stride in bytes, accesses scale): unit-stride is the headline
# case; line-stride misses every access; page-stride stresses the TLB.
SCENARIOS = (
    ("unit-stride (8B)", 8, 1.0),
    ("line-stride (64B)", 64, 0.5),
    ("page-stride (4KiB)", 4096, 0.1),
)
HEADLINE = SCENARIOS[0][0]


def _state(h) -> tuple:
    return (
        tuple(h.level_counts),
        h.load_count,
        h.store_count,
        h.prefetch_hits,
        tuple((t.hits, t.misses) for t in h.tlb),
        tuple((c.hits, c.misses) for c in h.l1),
        tuple(h.memmgr.dram_accesses),
        h.contention.total_queue_cycles,
    )


def _scalar_sweep(hier, base: int, stride: int, count: int) -> int:
    access = hier.access
    total = 0
    vaddr = base
    for _ in range(count):
        total += access(0, vaddr, 0, False)[0]
        vaddr += stride
    return total


def _merged_sweep(hier, base: int, stride: int, count: int) -> int:
    # One merged same-home run per sweep, as Ctx issues it: all pages
    # are first-touched by the sweeping thread, so the whole sweep
    # shares one home node.
    return hier.access_run(0, base, stride, count, 0, False)


def _time(fn, *args) -> tuple[float, int]:
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def run_throughput(n_accesses: int, check_speedup: bool):
    """Compare the two paths sweep-by-sweep; returns (rows, the headline
    sweep's batched machine)."""
    rows = []
    speedups = {}
    headline_machine = None
    for name, stride, scale in SCENARIOS:
        count = max(1, int(n_accesses * scale))
        base = 1 << 30

        m_scalar = amd_magnycours()
        dt_s, lat_s = _time(_scalar_sweep, m_scalar.hierarchy, base, stride, count)

        m_batched = amd_magnycours()
        dt_b, lat_b = _time(_merged_sweep, m_batched.hierarchy, base, stride, count)
        if name == HEADLINE:
            headline_machine = m_batched

        if lat_s != lat_b or _state(m_scalar.hierarchy) != _state(m_batched.hierarchy):
            raise AssertionError(
                f"{name}: batched path diverged from scalar "
                f"(lat {lat_s} vs {lat_b})"
            )

        rate_s = count / dt_s
        rate_b = count / dt_b
        speedups[name] = rate_b / rate_s
        rows.append(
            (
                name,
                f"{count}",
                f"{rate_s / 1e6:.2f}M/s",
                f"{rate_b / 1e6:.2f}M/s",
                f"{rate_b / rate_s:.2f}x",
            )
        )

    if check_speedup:
        assert speedups[HEADLINE] >= MIN_SPEEDUP, (
            f"unit-stride batched speedup {speedups[HEADLINE]:.2f}x below "
            f"the {MIN_SPEEDUP}x acceptance bar"
        )
    return rows, headline_machine


def _build_ctx():
    from repro.sim.loader import LoadModule
    from repro.sim.source import SourceFile

    proc = SimProcess(amd_magnycours())
    exe = LoadModule("bench.exe", is_executable=True)
    src = SourceFile("bench.c", {10: "x = a[i];"})
    main = exe.add_function("main", src, 1, 60)
    proc.load_module(exe)
    ctx = Ctx(proc, proc.master)
    ctx.enter(main)
    return proc, ctx


def run_ctx_equivalence(n: int = 20_000) -> None:
    """End-to-end sanity: Ctx.load_run == Ctx.load_ip loop."""
    pa, ca = _build_ctx()
    a = ca.alloc_array("A", (n,), line=20)
    ip_a = ca.ip(10)
    for i in range(n):
        ca.load_ip(a.flat_addr(i), ip_a)

    pb, cb = _build_ctx()
    b = cb.alloc_array("A", (n,), line=20)
    cb.load_run(*b.flat_run(), cb.ip(10))
    assert pa.master.clock == pb.master.clock
    assert _state(pa.machine.hierarchy) == _state(pb.machine.hierarchy)


def _render(rows) -> str:
    return format_table(
        ("sweep", "accesses", "scalar", "batched", "bat/scl"),
        rows,
        title="simulator throughput (simulated accesses per wall-clock second)",
    )


# ---- pytest entry point ----------------------------------------------------


def test_simulator_throughput(benchmark):
    from conftest import report

    run_ctx_equivalence()
    rows, _ = benchmark.pedantic(
        run_throughput, args=(FULL_ACCESSES, True), rounds=1, iterations=1
    )
    report("simulator throughput: batched fast path", _render(rows))


# ---- standalone entry point ------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small run, equivalence checks only (no speedup assertions)",
    )
    parser.add_argument(
        "--stats-out",
        metavar="FILE.json",
        help="write the MachineStats snapshot of the unit-stride headline "
        "sweep's batched machine as JSON",
    )
    args = parser.parse_args(argv)

    n = SMOKE_ACCESSES if args.smoke else FULL_ACCESSES
    run_ctx_equivalence(5_000 if args.smoke else 20_000)
    rows, machine = run_throughput(n, check_speedup=not args.smoke)
    print(_render(rows))
    print("scalar/batched equivalence: OK")

    if args.stats_out:
        path = Path(args.stats_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(machine.hierarchy.stats().to_dict(), indent=2))
        print(f"machine stats -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
