"""Gibbs sweep benchmark harness: reference kernels vs the fast path.

``cold bench`` (see :mod:`repro.cli`) runs this suite and writes
``BENCH_gibbs.json``, the committed perf artefact EXPERIMENTS.md
documents.  Each case builds a planted synthetic corpus, warms a chain
per kernel path, and reports the best-of-``reps`` per-sweep wall time —
warmed chains and min-of-reps because single-shot sweep timings on a
busy machine swing by 30%+.

Two things keep the numbers honest:

* **equivalence first** — every case replays a few sweeps through both
  paths from the same seed and records ``draws_match``; a speedup over
  kernels that draw a *different* chain would be meaningless.
* **occupancy alongside** — each case reports how concentrated the
  chain is, its (community, topic) occupancy summary via
  :meth:`~repro.core.state.CountState.top_comm_topic_cells`.

A second harness (:func:`run_telemetry_overhead_case`, gated by
``benchmarks/perf/test_telemetry_overhead.py``) enforces the telemetry
layer's off-by-default-cheap contract: per-sweep wall time with
``metrics_out``/``trace_out`` enabled must stay within a few percent of
a dark fit, and the drawn chain must be bit-identical either way
(telemetry never consumes RNG).

A third harness (:func:`run_diagnostics_overhead_case`, gated by
``benchmarks/perf/test_diagnostics_overhead.py``, written as
``BENCH_diagnostics.json`` by ``cold bench --diagnostics``) does the
same for the quality-streaming diagnostics of :mod:`repro.diagnostics`:
a stride-10 :class:`~repro.diagnostics.quality.QualityStream` must cost
under 5% per sweep *amortised* — the statistic is the mean (not min)
per-sweep time, because the stride concentrates the cost on every tenth
sweep and a min would simply land on an unmetered one — and the drawn
chain must again be bit-identical with the stream attached or not.

Memory is tracked alongside wall time: every case record carries
``peak_rss_mb`` (:func:`peak_rss_mb`, the ``getrusage`` high-water mark).
Because ``ru_maxrss`` is a monotonic per-process maximum, the large-scale
packed harness (:func:`run_packed_scaling_case`, gated by
``benchmarks/perf/test_packed_scaling.py``) measures each scale point in
a fresh *spawned* subprocess — chunked ``.coldpack`` generation and an
mmap-backed ``processes``-executor fit per corpus size — so the reported
peaks are per-point facts, not whichever earlier case was fattest.

Parallel scaling and incremental streaming have no suite here: their
opt-in gates (``benchmarks/perf/test_parallel_scaling.py`` and
``test_streaming.py``) drive the sampler directly, and the end-to-end
harness (``benchmarks/e2e``, workloads ``fit-procs2`` and ``stream``)
times both paths as wall time.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core.fastgibbs import SweepCache
from .core.gibbs import sweep
from .core.model import COLDModel
from .core.params import Hyperparameters
from .core.state import CountState
from .datasets.corpus import SocialCorpus
from .datasets.synthetic import SyntheticConfig, generate_corpus
from .parallel.sampler import ParallelCOLDSampler
from .resilience.checkpoint import atomic_write_text
from .telemetry import profiler as profiling

__all__ = [
    "DEFAULT_COMPARE_THRESHOLD",
    "DEFAULT_HISTORY_PATH",
    "DIAGNOSTICS_BENCHMARK",
    "GIBBS_BENCHMARK",
    "MEDIUM",
    "PACKED_SCALES",
    "SMOKE",
    "BenchCase",
    "append_history",
    "comparable_metrics",
    "compare_benchmarks",
    "comparison_regressed",
    "diagnostics_draws_match",
    "draws_match",
    "environment_stamp",
    "machine_fingerprint",
    "metric_direction",
    "packed_draws_match",
    "packed_scale_config",
    "peak_rss_mb",
    "profiler_draws_match",
    "read_history",
    "render_comparison",
    "resolve_baseline",
    "run_benchmark",
    "run_case",
    "run_diagnostics_overhead_case",
    "run_packed_scaling_case",
    "run_profile_case",
    "run_profiler_overhead_case",
    "run_telemetry_overhead_case",
    "telemetry_draws_match",
    "write_benchmark",
    "write_diagnostics_benchmark",
]


#: Suite names: the ``benchmark`` field of each payload and ledger record,
#: which is how a ``.jsonl`` baseline finds the last run of the same suite.
GIBBS_BENCHMARK = "collapsed Gibbs sweep, reference vs fast kernels"
DIAGNOSTICS_BENCHMARK = "quality-streaming diagnostics overhead per Gibbs sweep"


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process in MB (``getrusage`` high-water).

    ``include_children`` folds in the max over *waited-for* child
    processes (``RUSAGE_CHILDREN``) — the right reading for fits that ran
    a worker pool.  Note the counter is monotonic per process: it reports
    the fattest moment since process start, which is why the packed
    scaling harness isolates each scale point in a fresh subprocess.
    Returns 0.0 on platforms without ``resource`` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(peak / divisor, 1)


@dataclass(frozen=True)
class BenchCase:
    """One benchmark scenario: a synthetic corpus plus model dimensions.

    The planted generator uses half the model's latent dimensions (floored
    at 4), so the chain has real structure to find without being handed
    the answer — occupancy then concentrates the way fitted chains do.
    """

    name: str
    num_users: int
    num_communities: int
    num_topics: int
    num_time_slices: int
    vocab_size: int
    mean_posts_per_user: float
    mean_words_per_post: float
    mean_links_per_user: float
    seed: int = 7

    def build_corpus(self) -> SocialCorpus:
        config = SyntheticConfig(
            num_users=self.num_users,
            num_communities=max(4, self.num_communities // 2),
            num_topics=max(4, self.num_topics // 2),
            num_time_slices=self.num_time_slices,
            vocab_size=self.vocab_size,
            mean_posts_per_user=self.mean_posts_per_user,
            mean_words_per_post=self.mean_words_per_post,
            mean_links_per_user=self.mean_links_per_user,
            seed=self.seed,
        )
        corpus, _truth = generate_corpus(config)
        return corpus


#: Lint-gate scale: a few hundred draws, finishes in seconds.
SMOKE = BenchCase(
    name="smoke",
    num_users=40,
    num_communities=4,
    num_topics=6,
    num_time_slices=6,
    vocab_size=300,
    mean_posts_per_user=4.0,
    mean_words_per_post=8.0,
    mean_links_per_user=2.0,
)

#: The headline case BENCH_gibbs.json is about: a medium corpus (600
#: users, ~4.8K posts of ~40 words, ~1.8K links) fitted with C=20, K=40.
MEDIUM = BenchCase(
    name="medium",
    num_users=600,
    num_communities=20,
    num_topics=40,
    num_time_slices=12,
    vocab_size=2000,
    mean_posts_per_user=8.0,
    mean_words_per_post=40.0,
    mean_links_per_user=3.0,
)


def _states_identical(reference: CountState, candidate: CountState) -> bool:
    """True iff two chains hold the same assignments and degenerate tally."""
    return (
        np.array_equal(reference.post_comm, candidate.post_comm)
        and np.array_equal(reference.post_topic, candidate.post_topic)
        and np.array_equal(reference.link_src_comm, candidate.link_src_comm)
        and np.array_equal(reference.link_dst_comm, candidate.link_dst_comm)
        and reference.degenerate_draws == candidate.degenerate_draws
    )


def draws_match(
    corpus: SocialCorpus,
    hp: Hyperparameters,
    case: BenchCase,
    num_sweeps: int = 3,
) -> bool:
    """True iff both kernel paths draw the identical chain from one seed."""
    states = []
    for fast in (False, True):
        rng = np.random.default_rng(case.seed + 1)
        state = CountState.initialize(
            corpus, case.num_communities, case.num_topics, rng
        )
        cache = SweepCache(state, hp) if fast else None
        for _ in range(num_sweeps):
            sweep(state, hp, rng, cache=cache)
        states.append(state)
    return _states_identical(*states)


def run_case(
    case: BenchCase,
    warmup: int = 10,
    reps: int = 5,
    sweeps_per_rep: int = 2,
    equivalence_sweeps: int = 3,
) -> dict:
    """Benchmark one case; returns its JSON-ready result record."""
    corpus = case.build_corpus()
    hp = Hyperparameters.default(
        case.num_communities, case.num_topics, corpus
    )
    seconds: dict[str, float] = {}
    occupancy: dict | None = None
    for mode in ("reference", "fast"):
        rng = np.random.default_rng(case.seed)
        state = CountState.initialize(
            corpus, case.num_communities, case.num_topics, rng
        )
        cache = SweepCache(state, hp) if mode == "fast" else None
        for _ in range(warmup):
            sweep(state, hp, rng, cache=cache)
        best = math.inf
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(sweeps_per_rep):
                sweep(state, hp, rng, cache=cache)
            best = min(best, (time.perf_counter() - start) / sweeps_per_rep)
        seconds[mode] = best
        if mode == "fast":
            cs, ks, counts = state.top_comm_topic_cells(10)
            occupancy = {
                "active_cells": int(len(state.active_comm_topic_cells()[0])),
                "total_cells": case.num_communities * case.num_topics,
                "top_cells": [
                    [int(c), int(k), int(n)]
                    for c, k, n in zip(cs, ks, counts)
                ],
            }
    return {
        "name": case.name,
        "config": asdict(case),
        "corpus": {
            "num_posts": corpus.num_posts,
            "num_links": len(corpus.links),
            "mean_post_length": round(
                float(np.mean(corpus.post_lengths)), 2
            ),
        },
        "reference_seconds_per_sweep": round(seconds["reference"], 5),
        "fast_seconds_per_sweep": round(seconds["fast"], 5),
        "speedup": round(seconds["reference"] / seconds["fast"], 2),
        "draws_match": draws_match(corpus, hp, case, equivalence_sweeps),
        "occupancy": occupancy,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_benchmark(
    cases: tuple[BenchCase, ...] = (SMOKE, MEDIUM),
    warmup: int = 10,
    reps: int = 5,
    sweeps_per_rep: int = 2,
) -> dict:
    """Run every case; returns the full JSON-ready payload."""
    return {
        "benchmark": GIBBS_BENCHMARK,
        "harness": "repro.perf",
        **environment_stamp(),
        "method": {
            "warmup_sweeps": warmup,
            "reps": reps,
            "sweeps_per_rep": sweeps_per_rep,
            "statistic": "min over reps of mean seconds per sweep",
        },
        "cases": [
            run_case(case, warmup=warmup, reps=reps, sweeps_per_rep=sweeps_per_rep)
            for case in cases
        ],
    }


def write_benchmark(
    path: str | Path,
    cases: tuple[BenchCase, ...] = (SMOKE, MEDIUM),
    warmup: int = 10,
    reps: int = 5,
    sweeps_per_rep: int = 2,
) -> dict:
    """Run the benchmark and atomically write its JSON to ``path``."""
    payload = run_benchmark(
        cases, warmup=warmup, reps=reps, sweeps_per_rep=sweeps_per_rep
    )
    atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
    return payload


def telemetry_draws_match(
    corpus: SocialCorpus, case: BenchCase, num_sweeps: int = 3
) -> bool:
    """True iff telemetry-on and telemetry-off fits draw the same chain.

    The telemetry layer must never consume RNG; this replays a short fit
    with metrics + tracing enabled (written to a throwaway directory) and
    with both disabled, from the same seed, and compares every assignment
    array bitwise.
    """
    states = []
    with tempfile.TemporaryDirectory() as tmp:
        for enabled in (False, True):
            run_dir = Path(tmp) / ("on" if enabled else "off")
            model = COLDModel(
                num_communities=case.num_communities,
                num_topics=case.num_topics,
                seed=case.seed + 1,
                metrics_out=run_dir / "metrics.jsonl" if enabled else None,
                trace_out=run_dir / "trace.json" if enabled else None,
            )
            model.fit(corpus, num_iterations=num_sweeps, likelihood_interval=1)
            assert model.state_ is not None
            states.append(model.state_)
    return _states_identical(*states)


def _timed_fit_min_sweep_seconds(
    model: COLDModel, corpus: SocialCorpus, sweeps: int
) -> float:
    """Fit ``model`` and return its fastest inter-sweep wall time.

    Sweeps are timed individually via the fit callback (the delta between
    consecutive callbacks covers the sweep *and* all per-sweep telemetry
    bookkeeping), and the min is taken — on a noisy machine the floor of
    many short samples is far more stable than one whole-fit wall time,
    which is what lets the gate resolve a sub-millisecond overhead.
    """
    times: list[float] = []
    last: float | None = None

    def clock(_iteration: int, _model: COLDModel) -> None:
        nonlocal last
        now = time.perf_counter()
        if last is not None:
            times.append(now - last)
        last = now

    model.fit(
        corpus,
        num_iterations=sweeps,
        burn_in=sweeps - 1,
        sample_interval=1,
        likelihood_interval=0,
        callback=clock,
    )
    return min(times)


def run_telemetry_overhead_case(
    case: BenchCase,
    sweeps: int = 8,
    reps: int = 6,
    equivalence_sweeps: int = 3,
) -> dict:
    """Per-sweep cost of a fit with telemetry on vs off; JSON-ready record.

    Each rep runs a short serial fit dark and one with both
    ``metrics_out`` and ``trace_out`` enabled (likelihood monitoring off,
    so the sweeps dominate), alternating which mode goes first (ABBA) so
    slow machine drift hits both equally.  The statistic per mode is the
    min over all reps of the min per-sweep wall time (see
    :func:`_timed_fit_min_sweep_seconds`): on a contended host whole-fit
    wall times swing by 10%+, while the floor of many short interleaved
    samples converges on the quiet-machine sweep time for both modes.
    ``overhead_fraction`` is ``on/off - 1``; the perf gate asserts it
    stays under 3%.
    """
    corpus = case.build_corpus()
    best = {"off": math.inf, "on": math.inf}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(reps):
            order = ("off", "on") if rep % 2 == 0 else ("on", "off")
            for mode in order:
                run_dir = Path(tmp) / f"{mode}_{rep}"
                enabled = mode == "on"
                model = COLDModel(
                    num_communities=case.num_communities,
                    num_topics=case.num_topics,
                    seed=case.seed,
                    metrics_out=run_dir / "metrics.jsonl" if enabled else None,
                    trace_out=run_dir / "trace.json" if enabled else None,
                )
                best[mode] = min(
                    best[mode],
                    _timed_fit_min_sweep_seconds(model, corpus, sweeps),
                )
    return {
        "name": case.name,
        "config": asdict(case),
        "sweeps": sweeps,
        "reps": reps,
        "off_seconds_per_sweep": round(best["off"], 5),
        "on_seconds_per_sweep": round(best["on"], 5),
        "overhead_fraction": round(best["on"] / best["off"] - 1.0, 4),
        "draws_match": telemetry_draws_match(
            corpus, case, num_sweeps=equivalence_sweeps
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def diagnostics_draws_match(
    corpus: SocialCorpus,
    case: BenchCase,
    num_sweeps: int = 3,
    stride: int = 1,
) -> bool:
    """True iff a fit with quality streaming draws the identical chain.

    The diagnostics layer's contract is the same as telemetry's: strictly
    read-only over the sampler state, zero RNG consumption.  Replays a
    short telemetry-enabled fit with a stride-1
    :class:`~repro.diagnostics.quality.QualityStream` attached (every
    sweep evaluated — the worst case) and one without, from the same
    seed, and compares every assignment array bitwise.
    """
    from .diagnostics.quality import QualityStream

    states = []
    with tempfile.TemporaryDirectory() as tmp:
        for enabled in (False, True):
            run_dir = Path(tmp) / ("on" if enabled else "off")
            model = COLDModel(
                num_communities=case.num_communities,
                num_topics=case.num_topics,
                seed=case.seed + 1,
                metrics_out=run_dir / "metrics.jsonl",
            )
            stream = QualityStream(corpus, stride=stride) if enabled else None
            model.fit(
                corpus,
                num_iterations=num_sweeps,
                likelihood_interval=1,
                diagnostics=stream,
            )
            assert model.state_ is not None
            states.append(model.state_)
    return _states_identical(*states)


def _timed_fit_mean_sweep_seconds(
    model: COLDModel,
    corpus: SocialCorpus,
    sweeps: int,
    diagnostics=None,
) -> float:
    """Fit ``model`` and return its mean inter-sweep wall time.

    The mean — not the min of :func:`_timed_fit_min_sweep_seconds` — is
    the right statistic for stride-gated work: quality streaming spends
    its budget on every ``stride``-th sweep, so the min would land on an
    unmetered sweep and report zero overhead regardless of the true
    amortised cost.
    """
    times: list[float] = []
    last: float | None = None

    def clock(_iteration: int, _model: COLDModel) -> None:
        nonlocal last
        now = time.perf_counter()
        if last is not None:
            times.append(now - last)
        last = now

    model.fit(
        corpus,
        num_iterations=sweeps,
        burn_in=sweeps - 1,
        sample_interval=1,
        likelihood_interval=0,
        callback=clock,
        diagnostics=diagnostics,
    )
    return sum(times) / len(times)


def run_diagnostics_overhead_case(
    case: BenchCase,
    sweeps: int = 20,
    reps: int = 4,
    stride: int = 10,
    equivalence_sweeps: int = 3,
) -> dict:
    """Amortised per-sweep cost of quality streaming; JSON-ready record.

    Both modes fit with telemetry enabled (so the measured delta is the
    quality stream itself, not the JSONL plumbing the telemetry gate
    already covers); the "on" mode attaches a
    :class:`~repro.diagnostics.quality.QualityStream` at ``stride``.
    Reps alternate mode order (ABBA) and the statistic per mode is the
    min over reps of the *mean* per-sweep wall time (see
    :func:`_timed_fit_mean_sweep_seconds`).  ``sweeps`` should cover at
    least two stride periods so the amortisation is real.
    ``overhead_fraction`` is ``on/off - 1`` — the *steady-state* cost:
    the one-time coherence co-occurrence index build is warmed outside
    the timed fits (it would dominate at bench-scale sweep counts while
    vanishing over a real run's hundreds of sweeps) and reported
    separately as ``index_build_seconds``.  The perf gate asserts the
    steady-state fraction stays under 5%.
    """
    from .diagnostics.quality import QualityStream
    from .eval.coherence import CooccurrenceIndex

    corpus = case.build_corpus()
    best = {"off": math.inf, "on": math.inf}
    # The coherence co-occurrence index is a one-time corpus scan that
    # would otherwise land inside the first metered sweep and swamp the
    # amortised statistic at bench-scale sweep counts; build it outside
    # the timed region, share it across reps, report its cost separately.
    index_start = time.perf_counter()
    warm_index = CooccurrenceIndex(corpus)
    index_build_seconds = time.perf_counter() - index_start
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(reps):
            order = ("off", "on") if rep % 2 == 0 else ("on", "off")
            for mode in order:
                run_dir = Path(tmp) / f"{mode}_{rep}"
                model = COLDModel(
                    num_communities=case.num_communities,
                    num_topics=case.num_topics,
                    seed=case.seed,
                    metrics_out=run_dir / "metrics.jsonl",
                )
                stream = None
                if mode == "on":
                    stream = QualityStream(
                        corpus, stride=stride, index=warm_index
                    )
                best[mode] = min(
                    best[mode],
                    _timed_fit_mean_sweep_seconds(
                        model, corpus, sweeps, diagnostics=stream
                    ),
                )
    return {
        "name": case.name,
        "config": asdict(case),
        "sweeps": sweeps,
        "reps": reps,
        "stride": stride,
        "off_seconds_per_sweep": round(best["off"], 5),
        "on_seconds_per_sweep": round(best["on"], 5),
        "overhead_fraction": round(best["on"] / best["off"] - 1.0, 4),
        "index_build_seconds": round(index_build_seconds, 3),
        "draws_match": diagnostics_draws_match(
            corpus, case, num_sweeps=equivalence_sweeps
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def write_diagnostics_benchmark(
    path: str | Path,
    cases: tuple[BenchCase, ...] = (MEDIUM,),
    sweeps: int = 20,
    reps: int = 4,
    stride: int = 10,
    equivalence_sweeps: int = 3,
) -> dict:
    """Run the diagnostics overhead suite and atomically write its JSON."""
    payload = {
        "benchmark": DIAGNOSTICS_BENCHMARK,
        "harness": "repro.perf",
        **environment_stamp(),
        "method": {
            "sweeps": sweeps,
            "reps": reps,
            "stride": stride,
            "statistic": (
                "min over ABBA reps of mean seconds per sweep "
                "(mean, not min: stride-gated cost is non-uniform); "
                "one-time co-occurrence index build excluded, "
                "reported as index_build_seconds"
            ),
            "baseline": "telemetry-enabled fit without a QualityStream",
        },
        "cases": [
            run_diagnostics_overhead_case(
                case,
                sweeps=sweeps,
                reps=reps,
                stride=stride,
                equivalence_sweeps=equivalence_sweeps,
            )
            for case in cases
        ],
    }
    atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
    return payload


#: Scale points (users) for the out-of-core packed sweep: 1.7x to 167x the
#: MEDIUM corpus by user count (and ~0.1x to ~10x by token count — the
#: packed config plants lighter per-user rates so the top point stays
#: minutes, not hours, on a laptop).
PACKED_SCALES = (1_000, 10_000, 100_000)


def packed_scale_config(num_users: int, seed: int = 7) -> SyntheticConfig:
    """Planted-parameter config for one out-of-core scale point.

    Everything except ``num_users`` is fixed so posts, tokens, and links
    all grow linearly in users — the property the packed sweep is there
    to demonstrate.  Latent dimensions are small (C=8, K=12) because the
    sweep measures data scaling, not model-size scaling.
    """
    return SyntheticConfig(
        num_users=num_users,
        num_communities=8,
        num_topics=12,
        num_time_slices=12,
        vocab_size=2000,
        mean_posts_per_user=4.0,
        mean_words_per_post=8.0,
        mean_links_per_user=2.0,
        seed=seed,
    )


def _packed_generate_probe(conn, config_kwargs: dict, path: str) -> None:
    """Subprocess body: chunk-generate a ``.coldpack`` and self-report.

    Runs in a fresh *spawned* process so the reported ``peak_rss_mb`` is
    the generation's own high-water mark, untainted by whatever the
    parent benchmarked earlier (``ru_maxrss`` is monotonic per process).
    """
    from .datasets.synthetic import generate_packed_corpus

    config = SyntheticConfig(**config_kwargs)
    start = time.perf_counter()
    corpus, _truth = generate_packed_corpus(config, path=path)
    seconds = time.perf_counter() - start
    try:
        conn.send(
            {
                "seconds": seconds,
                "num_posts": corpus.num_posts,
                "num_tokens": corpus.num_words,
                "num_links": corpus.num_links,
                "file_mb": round(os.path.getsize(path) / 2**20, 2),
                "peak_rss_mb": peak_rss_mb(include_children=True),
            }
        )
    finally:
        corpus.close()
        conn.close()


def _packed_train_probe(
    conn,
    path: str,
    num_communities: int,
    num_topics: int,
    num_nodes: int,
    num_workers: int | None,
    sweeps: int,
    seed: int,
) -> None:
    """Subprocess body: mmap-backed ``processes`` fit, self-reported.

    Opens the ``.coldpack`` read-only and fits with the ``processes``
    executor, so workers map the file instead of receiving pickled
    posts; ``peak_rss_mb`` folds the worker children in.
    """
    from .datasets.packed import PackedCorpus

    corpus = PackedCorpus.open(path)
    try:
        start = time.perf_counter()
        sampler = ParallelCOLDSampler(
            num_communities=num_communities,
            num_topics=num_topics,
            num_nodes=num_nodes,
            executor="processes",
            num_workers=num_workers,
            seed=seed,
            fast=True,
        ).fit(corpus, num_iterations=sweeps)
        wall = time.perf_counter() - start
        report = sampler.report_
        assert report is not None
        per_sweep = min(step.cluster_seconds for step in report.supersteps)
        conn.send(
            {
                "cluster_seconds_per_sweep": per_sweep,
                "wall_seconds_per_sweep": wall / sweeps,
                "peak_rss_mb": peak_rss_mb(include_children=True),
            }
        )
    finally:
        corpus.close()
        conn.close()


def _run_probe(ctx, target, args: tuple) -> dict:
    """Run a probe function in a fresh process; return what it piped back."""
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(sender, *args))
    proc.start()
    sender.close()
    try:
        result = receiver.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"{target.__name__} subprocess died (exit code {proc.exitcode}) "
            "before reporting a result"
        ) from None
    proc.join()
    receiver.close()
    return result


def packed_draws_match(
    path: str | Path,
    num_communities: int,
    num_topics: int,
    num_nodes: int,
    num_workers: int | None = None,
    num_sweeps: int = 2,
    seed: int = 7,
) -> bool:
    """True iff mmap-backed and in-RAM fits draw the identical chain.

    Fits the same corpus twice from one seed: once as a materialised
    :class:`SocialCorpus` on the sequential ``simulated`` oracle, once as
    the memory-mapped :class:`PackedCorpus` on the ``processes`` executor.
    This is the packed format's whole correctness claim — out-of-core is
    a storage decision, not a statistical one — so the scaling harness
    records it with every run.
    """
    from .datasets.packed import PackedCorpus

    packed = PackedCorpus.open(path)
    try:
        social = packed.to_social_corpus()
        states = []
        for corpus, run_executor, run_workers in (
            (social, "simulated", None),
            (packed, "processes", num_workers),
        ):
            sampler = ParallelCOLDSampler(
                num_communities=num_communities,
                num_topics=num_topics,
                num_nodes=num_nodes,
                executor=run_executor,
                num_workers=run_workers,
                seed=seed,
                fast=True,
            ).fit(corpus, num_iterations=num_sweeps)
            states.append(sampler.state_)
    finally:
        packed.close()
    reference, candidate = states
    assert reference is not None and candidate is not None
    return _states_identical(reference, candidate)


def run_packed_scaling_case(
    scales: tuple[int, ...] = PACKED_SCALES,
    num_communities: int = 8,
    num_topics: int = 12,
    num_nodes: int = 4,
    num_workers: int | None = 2,
    sweeps: int = 2,
    equivalence_sweeps: int = 2,
    seed: int = 7,
) -> dict:
    """Out-of-core scaling sweep: generate + train per scale, JSON-ready.

    Per scale point, chunked ``.coldpack`` generation and an mmap-backed
    ``processes`` fit each run in their own freshly *spawned* subprocess,
    which self-reports wall time and its ``getrusage`` peak RSS (children
    folded in).  Isolation is what makes the RSS column trustworthy: the
    counter is a monotonic per-process maximum, so measuring three scales
    in one process would report the largest one three times.  Draw
    equivalence (mmap ``processes`` vs in-RAM ``simulated``) is checked
    at the smallest scale, where a double fit is cheap, after the last
    probe has reported.
    """
    if not scales:
        raise ValueError("scales must not be empty")
    ctx = multiprocessing.get_context("spawn")
    points = []
    with tempfile.TemporaryDirectory(prefix="coldpack-bench-") as tmp:
        for num_users in scales:
            config = packed_scale_config(num_users, seed=seed)
            path = os.path.join(tmp, f"scale_{num_users}.coldpack")
            gen = _run_probe(ctx, _packed_generate_probe, (asdict(config), path))
            train = _run_probe(
                ctx,
                _packed_train_probe,
                (
                    path,
                    num_communities,
                    num_topics,
                    num_nodes,
                    num_workers,
                    sweeps,
                    seed,
                ),
            )
            points.append(
                {
                    "users": num_users,
                    "posts": gen["num_posts"],
                    "tokens": gen["num_tokens"],
                    "links": gen["num_links"],
                    "file_mb": gen["file_mb"],
                    "generate_seconds": round(gen["seconds"], 2),
                    "generate_peak_rss_mb": gen["peak_rss_mb"],
                    "cluster_seconds_per_sweep": round(
                        train["cluster_seconds_per_sweep"], 5
                    ),
                    "wall_seconds_per_sweep": round(
                        train["wall_seconds_per_sweep"], 5
                    ),
                    "train_peak_rss_mb": train["peak_rss_mb"],
                }
            )
            if num_users != min(scales):
                os.remove(path)
        # The draws check fits in this process, so it runs after every
        # probe: a spawned probe starts from a copy of this process and
        # its ``ru_maxrss`` would report the check's peak, not its own.
        draws_ok = packed_draws_match(
            os.path.join(tmp, f"scale_{min(scales)}.coldpack"),
            num_communities,
            num_topics,
            num_nodes,
            num_workers=num_workers,
            num_sweeps=equivalence_sweeps,
            seed=seed,
        )
    return {
        "name": "packed_out_of_core",
        "config": {
            "num_communities": num_communities,
            "num_topics": num_topics,
            "generator": asdict(packed_scale_config(0, seed=seed)) | {
                "num_users": "per scale point"
            },
        },
        "executor": "processes",
        "num_nodes": num_nodes,
        "num_workers": num_workers,
        "sweeps": sweeps,
        "draws_match": draws_ok,
        "draws_match_users": min(scales),
        "scaling": points,
    }


# ---------------------------------------------------------------------------
# environment stamping — who produced a benchmark number
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    """Human-readable CPU model, best-effort (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    model = platform.processor() or platform.machine()
    return model or None


def machine_fingerprint() -> dict:
    """The hardware/runtime identity a benchmark number depends on.

    Two ledger entries are comparable only when their fingerprints match;
    ``cold bench --compare`` prints a warning, not a verdict, across
    differing machines.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def environment_stamp() -> dict:
    """The block every ``BENCH_*.json`` payload and ledger entry carries.

    Keeps the historical top-level ``python``/``numpy`` keys (older
    committed snapshots have only those) and adds ``git_describe`` plus
    the full :func:`machine_fingerprint`.
    """
    from .telemetry.manifest import git_describe

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_describe": git_describe(),
        "machine": machine_fingerprint(),
    }


# ---------------------------------------------------------------------------
# benchmark regression ledger + snapshot comparison
# ---------------------------------------------------------------------------

#: Where ``cold bench`` appends one record per run (repo-relative).
DEFAULT_HISTORY_PATH = Path("benchmarks") / "history.jsonl"

#: Relative change beyond which a metric is a regression/improvement.
DEFAULT_COMPARE_THRESHOLD = 0.10

_HIGHER_BETTER_PATTERNS = ("speedup", "qps", "per_second", "throughput")
_LOWER_BETTER_PATTERNS = ("seconds", "latency", "_ms", "rss", "overhead")


def metric_direction(name: str) -> str | None:
    """``"higher"``/``"lower"``-is-better classification of a metric key.

    Returns ``None`` for keys that are not performance metrics (config
    sizes, counts, booleans), which :func:`comparable_metrics` skips.
    Higher-better patterns win ties (``events_per_second`` contains both
    ``per_second`` and ``seconds``).
    """
    key = name.rsplit(".", 1)[-1].lower()
    if any(pattern in key for pattern in _HIGHER_BETTER_PATTERNS):
        return "higher"
    if any(pattern in key for pattern in _LOWER_BETTER_PATTERNS):
        return "lower"
    return None


def _walk_metrics(node: object, prefix: str, out: dict[str, float]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                _walk_metrics(value, f"{prefix}{key}.", out)
            elif (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and metric_direction(key)
            ):
                out[f"{prefix}{key}"] = float(value)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            label: object = index
            if isinstance(item, dict) and isinstance(item.get("name"), str):
                label = item["name"]
            _walk_metrics(item, f"{prefix}{label}.", out)


def comparable_metrics(payload: dict) -> dict[str, float]:
    """Flatten a benchmark payload into ``{dotted.metric: value}``.

    Walks the ``cases`` list, labelling each entry by its ``name``, and
    keeps only keys :func:`metric_direction` can classify — so config
    dimensions and equivalence booleans never produce spurious verdicts.
    """
    out: dict[str, float] = {}
    cases = payload.get("cases")
    _walk_metrics(cases if cases is not None else payload, "", out)
    return out


def _metrics_of(obj: dict) -> dict[str, float]:
    """Metrics of either a full payload or a ledger record."""
    metrics = obj.get("metrics")
    if isinstance(metrics, dict) and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in metrics.values()
    ):
        return {key: float(value) for key, value in metrics.items()}
    return comparable_metrics(obj)


def append_history(
    payload: dict, path: str | Path = DEFAULT_HISTORY_PATH
) -> dict:
    """Append one run's record to the benchmark regression ledger.

    The ledger is append-only JSONL via the telemetry plane's
    :class:`~repro.telemetry.metrics.JsonlWriter` — per-record flush,
    fresh-line salvage after a torn write — so killed runs never corrupt
    the history and readers tolerate a truncated tail.
    """
    from .telemetry.metrics import JsonlWriter

    record = {
        "benchmark": payload.get("benchmark"),
        "git_describe": payload.get("git_describe"),
        "machine": payload.get("machine"),
        "metrics": _metrics_of(payload),
    }
    with JsonlWriter(path) as writer:
        return writer.write("bench", **record)


def read_history(
    path: str | Path = DEFAULT_HISTORY_PATH, benchmark: str | None = None
) -> list[dict]:
    """Complete ledger records (torn tail skipped), optionally filtered."""
    from .telemetry.metrics import read_jsonl

    records = [
        record
        for record in read_jsonl(path)
        if record.get("kind") == "bench"
    ]
    if benchmark is not None:
        records = [r for r in records if r.get("benchmark") == benchmark]
    return records


def compare_benchmarks(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_COMPARE_THRESHOLD,
) -> list[dict]:
    """Per-metric verdicts of ``current`` against ``baseline``.

    Both sides may be full benchmark payloads or ledger records.  Only
    metrics present on both sides are judged; a verdict is ``regressed``
    when the metric moved more than ``threshold`` in its bad direction,
    ``improved`` beyond the threshold the other way, else ``ok``.
    """
    cur = _metrics_of(current)
    base = _metrics_of(baseline)
    verdicts = []
    for name in sorted(set(cur) & set(base)):
        direction = metric_direction(name)
        if direction is None or base[name] <= 0:
            continue
        ratio = cur[name] / base[name]
        if direction == "lower":
            worse, better = ratio > 1.0 + threshold, ratio < 1.0 - threshold
        else:
            worse, better = ratio < 1.0 - threshold, ratio > 1.0 + threshold
        verdicts.append(
            {
                "metric": name,
                "current": cur[name],
                "baseline": base[name],
                "ratio": round(ratio, 4),
                "direction": direction,
                "verdict": (
                    "regressed" if worse else "improved" if better else "ok"
                ),
            }
        )
    return verdicts


def comparison_regressed(verdicts: list[dict]) -> bool:
    """True when any metric regressed — the ``--strict`` exit condition."""
    return any(row["verdict"] == "regressed" for row in verdicts)


def render_comparison(verdicts: list[dict]) -> str:
    """The per-metric verdict table ``cold bench --compare`` prints."""
    if not verdicts:
        return "no overlapping metrics to compare"
    width = max(len(row["metric"]) for row in verdicts)
    lines = [
        f"{'metric':<{width}}  {'current':>12}  {'baseline':>12}  "
        f"{'ratio':>7}  verdict"
    ]
    for row in verdicts:
        lines.append(
            f"{row['metric']:<{width}}  {row['current']:>12.5g}  "
            f"{row['baseline']:>12.5g}  {row['ratio']:>7.3f}  {row['verdict']}"
        )
    counts = {"ok": 0, "improved": 0, "regressed": 0}
    for row in verdicts:
        counts[row["verdict"]] += 1
    lines.append(
        f"{counts['ok']} ok, {counts['improved']} improved, "
        f"{counts['regressed']} regressed"
    )
    return "\n".join(lines)


def resolve_baseline(
    spec: str | None,
    snapshot_path: str | Path,
    benchmark: str | None = None,
) -> dict | None:
    """Find the baseline a run should be compared against.

    ``spec`` may be a file path (a BENCH snapshot, or a ``.jsonl`` ledger
    whose last matching record wins), a git ref (the committed snapshot
    at that ref is read via ``git show``), or ``None`` to use whatever is
    at ``snapshot_path`` right now — which is why the CLI loads the
    baseline *before* overwriting the snapshot.  Returns ``None`` when no
    baseline can be found.
    """
    snapshot_path = Path(snapshot_path)
    if spec is not None:
        candidate = Path(spec)
        if candidate.exists():
            if candidate.suffix == ".jsonl":
                records = read_history(candidate, benchmark=benchmark)
                return records[-1] if records else None
            try:
                return json.loads(candidate.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                return None
        return _git_show_json(spec, snapshot_path)
    if snapshot_path.exists():
        try:
            return json.loads(snapshot_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
    return None


def _git_show_json(ref: str, path: Path) -> dict | None:
    """``git show ref:path`` parsed as JSON; ``None`` on any failure."""
    import subprocess

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=True,
        ).stdout.strip()
        relative = os.path.relpath(path.resolve(), top)
        shown = subprocess.run(
            ["git", "show", f"{ref}:{relative}"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=True,
        ).stdout
        return json.loads(shown)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# phase profiling harness — `cold profile`
# ---------------------------------------------------------------------------


def run_profile_case(
    case: BenchCase,
    sweeps: int = 5,
    warmup: int = 2,
    executor: str = "serial",
    nodes: int = 2,
    num_workers: int | None = None,
) -> dict:
    """Run ``sweeps`` instrumented sweeps and build the attribution report.

    ``executor="serial"`` profiles the fast serial kernels directly
    (``warmup`` dark sweeps first, so the report measures warmed sweeps);
    any :class:`~repro.parallel.sampler.ParallelCOLDSampler` executor
    profiles a parallel fit, with worker shard phases shipped home over
    the reply pipe and the per-sweep wall read back from a throwaway
    metrics file (which also exercises the utilization gauges).  The
    returned record embeds the report, the collapsed-stack text, and the
    utilization/memory summary — everything ``cold profile`` renders.
    """
    from .telemetry.metrics import read_jsonl

    corpus = case.build_corpus()
    prof = profiling.PhaseProfiler()
    utilization = None
    if executor == "serial":
        hp = Hyperparameters.default(
            case.num_communities, case.num_topics, corpus
        )
        rng = np.random.default_rng(case.seed)
        state = CountState.initialize(
            corpus, case.num_communities, case.num_topics, rng
        )
        cache = SweepCache(state, hp)
        for _ in range(warmup):
            sweep(state, hp, rng, cache=cache)
        previous = profiling.set_profiler(prof)
        total_wall = 0.0
        try:
            for _ in range(sweeps):
                start = time.perf_counter()
                sweep(state, hp, rng, cache=cache)
                total_wall += time.perf_counter() - start
        finally:
            profiling.set_profiler(previous)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            metrics_path = Path(tmp) / "metrics.jsonl"
            previous = profiling.set_profiler(prof)
            try:
                ParallelCOLDSampler(
                    num_communities=case.num_communities,
                    num_topics=case.num_topics,
                    num_nodes=nodes,
                    executor=executor,
                    num_workers=num_workers,
                    seed=case.seed,
                    metrics_out=metrics_path,
                ).fit(corpus, num_iterations=sweeps)
            finally:
                profiling.set_profiler(previous)
            records = [
                r for r in read_jsonl(metrics_path) if r.get("kind") == "sweep"
            ]
        total_wall = sum(r["wall_seconds"] for r in records)
        if records:
            utilization = {
                "busy_fraction": round(
                    sum(r["busy_fraction"] for r in records) / len(records), 4
                ),
                "straggler_ratio": round(
                    sum(r["straggler_ratio"] for r in records) / len(records),
                    4,
                ),
            }
    report = profiling.build_profile_report(prof, total_wall, sweeps)
    return {
        "name": case.name,
        "config": asdict(case),
        "executor": executor,
        "nodes": 1 if executor == "serial" else nodes,
        "sweeps": sweeps,
        **report,
        "utilization": utilization,
        "memory": profiling.memory_gauges(
            include_children=executor == "processes"
        ),
        "collapsed": profiling.render_collapsed(prof),
        **environment_stamp(),
    }


def profiler_draws_match(
    corpus: SocialCorpus, case: BenchCase, num_sweeps: int = 3
) -> bool:
    """True iff profiled and dark fits draw the identical chain.

    :func:`~repro.core.fastgibbs.fast_sweep` times its phases only while
    a profiler is active and never reads the RNG for it, so this is the
    strongest claim the gate makes: the timed sweep draws the same
    weights with the same RNG consumption.
    """
    states = []
    for enabled in (False, True):
        model = COLDModel(
            num_communities=case.num_communities,
            num_topics=case.num_topics,
            seed=case.seed + 1,
        )
        previous = profiling.set_profiler(
            profiling.PhaseProfiler() if enabled else None
        )
        try:
            model.fit(corpus, num_iterations=num_sweeps, likelihood_interval=1)
        finally:
            profiling.set_profiler(previous)
        assert model.state_ is not None
        states.append(model.state_)
    return _states_identical(*states)


def run_profiler_overhead_case(
    case: BenchCase,
    sweeps: int = 8,
    reps: int = 6,
    equivalence_sweeps: int = 3,
) -> dict:
    """Per-sweep cost of profiling on vs off; JSON-ready record.

    Same ABBA/min-floor discipline as
    :func:`run_telemetry_overhead_case`: each rep times a dark fit and a
    fit with an active :class:`~repro.telemetry.profiler.PhaseProfiler`
    (which turns on the sweep kernel's phase timers),
    alternating order so machine drift hits both modes equally.  The
    perf gate asserts ``overhead_fraction`` stays under 3%.
    """
    corpus = case.build_corpus()
    best = {"off": math.inf, "on": math.inf}
    for rep in range(reps):
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            model = COLDModel(
                num_communities=case.num_communities,
                num_topics=case.num_topics,
                seed=case.seed,
            )
            previous = profiling.set_profiler(
                profiling.PhaseProfiler() if mode == "on" else None
            )
            try:
                timed = _timed_fit_min_sweep_seconds(model, corpus, sweeps)
            finally:
                profiling.set_profiler(previous)
            best[mode] = min(best[mode], timed)
    return {
        "name": case.name,
        "config": asdict(case),
        "sweeps": sweeps,
        "reps": reps,
        "off_seconds_per_sweep": round(best["off"], 5),
        "on_seconds_per_sweep": round(best["on"], 5),
        "overhead_fraction": round(best["on"] / best["off"] - 1.0, 4),
        "draws_match": profiler_draws_match(
            corpus, case, num_sweeps=equivalence_sweeps
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
