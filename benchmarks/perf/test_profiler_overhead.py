"""Opt-in perf gate: phase profiling costs < 3% per sweep, zero draws.

Run with ``pytest benchmarks/perf -m perf``.  Excluded from the default
suite because it asserts on machine-dependent wall-clock timings.

The teeth behind the performance observatory's own contract: the one
sweep kernel (:func:`repro.core.fastgibbs.fast_sweep`) times its phases
only when a profiler is active, and turning that on may not slow the fit
by more than a few percent; the sampled chain must be bit-identical with
a profiler installed or not — the timers read ``time.perf_counter``
only, never the RNG.

The attribution tests are the acceptance bar for ``cold profile``: the
phase table must account for at least 90% of the medium case's measured
sweep wall time, both on the serial kernels and through the processes
executor's full superstep loop (snapshot → dispatch → worker shards →
merge).
"""

from __future__ import annotations

import pytest

from repro.perf import MEDIUM, run_profile_case, run_profiler_overhead_case

pytestmark = pytest.mark.perf


def test_medium_case_overhead_under_3_percent():
    record = run_profiler_overhead_case(MEDIUM, sweeps=8, reps=6)
    assert record["draws_match"], "profiling changed the drawn chain"
    if record["overhead_fraction"] >= 0.03:
        # A contended host can starve one mode of a quiet window even
        # with interleaved reps; escalate to more samples once before
        # declaring a real regression.
        record = run_profiler_overhead_case(MEDIUM, sweeps=8, reps=12)
    assert record["overhead_fraction"] < 0.03, (
        f"profiling costs {record['overhead_fraction']:.1%} per sweep "
        f"({record['off_seconds_per_sweep']:.4f}s dark -> "
        f"{record['on_seconds_per_sweep']:.4f}s instrumented)"
    )


def test_medium_serial_attribution_covers_90_percent():
    record = run_profile_case(MEDIUM, sweeps=5, warmup=2, executor="serial")
    assert record["attributed_fraction"] >= 0.9, (
        f"serial phase table attributes only "
        f"{record['attributed_fraction']:.1%} of sweep wall time"
    )


def test_medium_processes_attribution_covers_90_percent():
    record = run_profile_case(
        MEDIUM, sweeps=5, executor="processes", nodes=2, num_workers=2
    )
    assert record["attributed_fraction"] >= 0.9, (
        f"superstep phase table attributes only "
        f"{record['attributed_fraction']:.1%} of sweep wall time"
    )
    assert record["worker_attributed_fraction"] >= 0.9, (
        f"worker shard phases attribute only "
        f"{record['worker_attributed_fraction']:.1%} of shard wall"
    )
    assert record["utilization"]["busy_fraction"] > 0
