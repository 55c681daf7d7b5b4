"""The repo benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload paper-job --seed 1 --seconds 20 --trace 0

Workloads, metrics and their bounds are declared in ``BENCHMARK.json`` at
the checkout root; ``perfbench/README.md`` defines every metric.  With
``--trace 0`` the run is timed untraced and prints the end-to-end
metrics; with ``--trace 1`` it wraps the pipeline's layer entry points
(``perfbench/tracer.py``) and prints the per-layer metrics instead.
Either way it checks the program's outputs, counts checked operations
attempted and failed, and prints one JSON object as its last line.

Everything the run writes goes under ``.perfbench/`` in the checkout and
is removed at exit, except the span file a traced run leaves there.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2          # extra fresh-process set-ups; setup_s is the median of 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _setup_probe(args) -> float:
    """Time the workload's set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, print it and exit (used for setup_s)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    spec = _spec()
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    sys.path.insert(0, str(ROOT / "src"))

    from contextlib import ExitStack

    from common import median, provenance, workdir
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    with ExitStack() as stack:
        tmp = stack.enter_context(workdir(args.workload))
        if args.workload == "serve-mixed":
            import serve_mixed

            prep = serve_mixed.prepare(args.seed, args.seconds, tmp, tracer)
            for service in prep.services:
                stack.callback(service.close)

            def measure():
                return serve_mixed.run(prep, tracer)
        else:
            import jobs

            job_spec = {"paper-job": jobs.PAPER_JOB,
                        "dense-sampling": jobs.DENSE_SAMPLING}[args.workload]
            jobs.prepare(job_spec, args.seed)

            def measure():
                return jobs.run(job_spec, args.seconds, tmp, tracer)

        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is None:
            setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
        result = measure()
        info = provenance(args.workload, args.seed, workloads[args.workload], tmp)

    if tracer is None:
        result.put("setup_s", median(setups), "s")
        result.details["setup_s.samples"] = setups
        declared = [m["name"] for m in spec["end_to_end"]]
        missing = [name for name in declared if name not in result.metrics]
        if missing:
            return _fail(f"workload produced no value for {missing}")
    else:
        declared = [m["name"] for m in spec["per_layer"]]
        unused = [name for name in declared if name not in result.metrics]
        for name in unused:   # layers this workload does not exercise
            unit = next(m["unit"] for m in spec["per_layer"] if m["name"] == name)
            result.put(name, 0.0, unit)
        result.details["not_exercised"] = unused
        _write_trace(args, tracer, result)
    extra = sorted(set(result.metrics) - set(declared))
    if extra:
        return _fail(f"workload produced undeclared metrics {extra}")

    _report(info, result, declared)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
            for name in declared
        },
    }))
    return 0


def _write_trace(args, tracer, result) -> None:
    from common import SCRATCH
    from tracer import Span, write_spans

    groups = {"benchmark": tracer.spans}
    client = result.details.pop("client_spans", None)
    if client is not None:
        groups["generator"] = [Span(name, t0, t1) for name, t0, t1 in client]
    service = result.details.pop("service_spans", None)
    if service is not None:
        groups["service"] = service
    path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
    write_spans(path, groups)
    result.details["span_file"] = str(path.relative_to(ROOT))


def _report(info: dict, result, declared: list[str]) -> None:
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name in declared:
        value, unit = result.metrics[name]
        print(f"  {name:32s} {value:14.6g} {unit}")
    for key, value in sorted(result.details.items()):
        print(f"{key}: " + json.dumps(value, sort_keys=True, default=str))
    print(f"operations: attempted={result.attempted} failed={result.failed}")
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
