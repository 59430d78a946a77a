"""End-to-end COLD benchmark: four workloads, timed outside-in, layer by layer.

Run from the root of a checkout (it imports ``repro`` from ``src/`` there)::

    python3 benchmarks/e2e/run.py                        # all four, once
    python3 benchmarks/e2e/run.py --workload serve --seed 3
    python3 benchmarks/e2e/run.py --repeat 10            # medians, quartiles
    python3 benchmarks/e2e/run.py --workload stream --trace 1

One workload run once executes in this process and prints, last, one JSON
line: ``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  Several
workloads or ``--repeat N`` run each workload in a fresh process and print
the median and quartiles of every metric each run measured.  The exit code
is 0 only when every output check passed.  Records (and Chrome traces of
traced runs) go to ``benchmarks/e2e/results/``.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("fit-serial", "fit-procs2", "serve", "stream")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", dest="workloads", nargs="+",
                        choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of serve's open-loop phase; the other "
                             "workloads hold a fixed amount of work (default: 15)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics and a trace")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1")
    parser.add_argument("--scale", choices=("medium", "smoke"), default="medium",
                        help="world size; smoke is for the harness's own tests")
    return parser.parse_args(argv)


def environment() -> dict:
    """The stamp every result record carries."""
    import numpy

    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        describe = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_describe": describe,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the last stdout line is the result JSON."""
    import workloads

    name = args.workloads[0]
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as workdir:
        run = workloads.Run(trace=bool(args.trace), workdir=Path(workdir),
                            scale=workloads.SCALES[args.scale], seed=args.seed,
                            seconds=args.seconds)
        started = time.perf_counter()
        workloads.WORKLOADS[name](run)
        wall = time.perf_counter() - started
    declared = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    if args.trace:
        run.record("telemetry.span_coverage_frac", run.span_coverage())
        run.check("spans_cover_timed_window", run.span_coverage() >= 0.95)
    run.check("every_metric_measured",
              all(run.samples.get(m) for m in workloads.END_TO_END))
    units = {**workloads.END_TO_END, **workloads.PER_LAYER}
    measured = {
        metric: {"value": run.value(metric), "unit": unit}
        for metric, unit in units.items() if metric in run.samples
    }
    result = {
        "correct": all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": run.value(metric), "unit": unit}
                    for metric, unit in declared.items()},
    }
    stem = f"{name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "wall_s": wall,
        "checks": run.checks, "details": run.details, "measured": measured,
        **environment(), **result,
    }
    record_path = RESULTS / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        run.tracer.save(RESULTS / f"{stem}.trace.json")
    print(f"workload {name} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {wall:.1f} s wall)")
    for check, ok in run.checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print("  reported, not gated:")
        for metric, entry in measured.items():
            if metric not in declared:
                print(f"    {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"record: {record_path}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_many(args: argparse.Namespace) -> int:
    """Each (workload, seed) in a fresh process; medians and quartiles."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    status = 0
    for name in args.workloads:
        for offset in range(args.repeat):
            seed = args.seed + offset
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale,
            ]
            child = subprocess.run(command, capture_output=True, text=True,
                                   cwd=ROOT, timeout=600)
            lines = child.stdout.strip().splitlines()
            records = [line.split(": ", 1)[1] for line in lines
                       if line.startswith("record: ")]
            if child.returncode != 0 or not records:
                status = 1
                sys.stdout.write(child.stdout)
                sys.stderr.write(child.stderr)
            if not records:
                continue
            record = json.loads(Path(records[-1]).read_text())
            print(f"{name} seed {seed}: correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']} "
                  f"wall={record['wall_s']:.1f}s", flush=True)
            for metric, entry in record["measured"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
    print(f"{'workload':<11} {'metric':<36} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}  unit")
    for name, metrics in values.items():
        for metric, series in metrics.items():
            median = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                         else (median, median, median))
            spread = (q3 - q1) / median if median else 0.0
            print(f"{name:<11} {metric:<36} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.1%}  {units[metric]}")
    return status


def stop_helper_processes() -> None:
    """Stop every process multiprocessing left running and wait for each.

    repro reaps its worker pools itself; this also covers a pool an error
    left behind.  Shared memory starts multiprocessing's resource tracker,
    which would otherwise outlive this process until it noticed the exit;
    its private ``_stop`` is the one call that stops it and waits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Worker and load-generator processes import from the same checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    args = parse_args(argv)
    # A terminated run unwinds too, so it closes what it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if len(args.workloads) == 1 and args.repeat == 1:
            return run_one(args)
        return run_many(args)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())
