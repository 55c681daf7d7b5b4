"""Simulator throughput: scalar vs batched vs sampled.

Times the simulator's own hot loop (not the simulated workload!) in
simulated-accesses-per-second for the scalar and batched access paths
plus opt-in run sampling, and cross-checks that both full-fidelity
paths leave bit-identical machine state:

- **scalar**: one ``MemoryHierarchy.access`` call per access (the
  oracle loop);
- **batched**: one ``MemoryHierarchy.access_run`` call per sweep — the
  merged same-home run ``Ctx`` issues when every page of the sweep has
  the same home node;
- **sampled**: ``Ctx``-level run sampling (``repro.sim.sampling``) on
  top of the batched path — not bit-identical by design, so it is
  timed and reported (with its extrapolation scale) but parity-checked
  only for the always-simulated tallies.

Runs two ways:

- standalone (what CI uses)::

      PYTHONPATH=src python benchmarks/bench_simulator_throughput.py --smoke
      PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
          --stats-out out/throughput.mstats.json

  ``--smoke`` shrinks the workload and skips the speedup assertions (CI
  machines have unpredictable timers); the equivalence checks always run
  and fail the bench on any scalar/batched divergence.  ``--stats-out``
  dumps the batched run's ``MachineStats`` as JSON for
  ``hpcview info --machine-stats``.

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
MIN_SAMPLED_SPEEDUP = 2.0  # sampled over unsampled Ctx, rate 0.25

# (name, stride in bytes, accesses scale): unit-stride is the headline
# case; line-stride misses every access; page-stride stresses the TLB.
SCENARIOS = (
    ("unit-stride (8B)", 8, 1.0),
    ("line-stride (64B)", 64, 0.5),
    ("page-stride (4KiB)", 4096, 0.1),
)


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
    """Compare the two paths sweep-by-sweep; returns (rows, batched machine)."""
    rows = []
    speedups = {}
    batched_machine = None
    for name, stride, scale in SCENARIOS:
        count = max(1, int(n_accesses * scale))
        base = 1 << 30

        m_scalar = amd_magnycours()
        dt_s, lat_s = _time(_scalar_sweep, m_scalar.hierarchy, base, stride, count)

        m_batched = amd_magnycours()
        dt_b, lat_b = _time(_merged_sweep, m_batched.hierarchy, base, stride, count)
        batched_machine = m_batched

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
        unit = "unit-stride (8B)"
        assert speedups[unit] >= MIN_SPEEDUP, (
            f"unit-stride batched speedup {speedups[unit]:.2f}x below "
            f"the {MIN_SPEEDUP}x acceptance bar"
        )
    return rows, batched_machine


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


def _ctx_run_storm(ctx, arr, n_runs: int, run_len: int) -> None:
    ip = ctx.ip(10)
    for i in range(n_runs):
        start = (i * 17) % max(1, arr.shape[0] - run_len)
        base, count, stride = arr.flat_run(start, run_len)
        ctx.load_run(base, count, stride, ip)


def run_sampled(n_accesses: int, check_speedup: bool, rate: float = 0.25):
    """Time a Ctx-level run storm unsampled vs sampled; returns a row."""
    from repro.sim.sampling import sampling

    run_len = 1 << 10
    n_runs = max(1, n_accesses // run_len)

    proc_full, ctx_full = _build_ctx()
    arr_full = ctx_full.alloc_array("A", (n_runs * 32 + run_len,), line=20)
    dt_full, _ = _time(_ctx_run_storm, ctx_full, arr_full, n_runs, run_len)

    with sampling(rate=rate, min_run=64, seed=7):
        proc_samp, ctx_samp = _build_ctx()
    arr_samp = ctx_samp.alloc_array("A", (n_runs * 32 + run_len,), line=20)
    dt_samp, _ = _time(_ctx_run_storm, ctx_samp, arr_samp, n_runs, run_len)

    sampler = proc_samp.sampler
    assert sampler is not None
    assert sampler.issued_accesses == proc_full.master.mem_count
    count = n_runs * run_len
    rate_full = count / dt_full
    rate_samp = count / dt_samp
    speedup = rate_samp / rate_full
    if check_speedup:
        assert speedup >= MIN_SAMPLED_SPEEDUP, (
            f"sampled speedup {speedup:.2f}x below the "
            f"{MIN_SAMPLED_SPEEDUP}x bar at rate {rate}"
        )
    return (
        f"sampled runs (rate {rate})",
        f"{count}",
        f"{rate_full / 1e6:.2f}M/s",
        f"{rate_samp / 1e6:.2f}M/s",
        f"{sampler.scale():.2f}",
        f"{speedup:.2f}x",
    )


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


def _render_sampled(row) -> str:
    return format_table(
        ("workload", "accesses", "full", "sampled", "scale", "speedup"),
        [row],
        title="sampled simulation (Ctx run storm, batched path)",
    )


# ---- pytest entry point ----------------------------------------------------


def test_simulator_throughput(benchmark):
    from conftest import report

    run_ctx_equivalence()
    rows, _ = benchmark.pedantic(
        run_throughput, args=(FULL_ACCESSES, True), rounds=1, iterations=1
    )
    sampled_row = run_sampled(FULL_ACCESSES, check_speedup=True)
    report(
        "simulator throughput: batched fast path",
        _render(rows) + "\n" + _render_sampled(sampled_row),
    )


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
        help="write the batched run's MachineStats snapshot as JSON",
    )
    args = parser.parse_args(argv)

    n = SMOKE_ACCESSES if args.smoke else FULL_ACCESSES
    run_ctx_equivalence(5_000 if args.smoke else 20_000)
    rows, machine = run_throughput(n, check_speedup=not args.smoke)
    print(_render(rows))
    sampled_row = run_sampled(n, check_speedup=not args.smoke)
    print(_render_sampled(sampled_row))
    print("scalar/batched equivalence: OK")

    if args.stats_out:
        path = Path(args.stats_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(machine.hierarchy.stats().to_dict(), indent=2))
        print(f"machine stats -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
