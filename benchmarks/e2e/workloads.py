"""The four workloads of the end-to-end COLD benchmark.

Each workload sets its system up through the public API (``setup_s`` is the
median of ``Scale.setup_reps`` full set-ups), runs a timed phase holding a
fixed amount of work, then checks the outputs.  Every number is timed from
outside the public call it names -- ``generate_corpus``, ``COLDModel.fit``,
``ParallelCOLDSampler.fit``, ``OnlineTrainer.feed/step``,
``ModelWatcher.poke``, ``api.serve`` and ``/v1`` HTTP -- so this file
benchmarks any commit that keeps those calls.

A traced run (``trace=True``) adds benchmark-side spans around the same
calls, turns on ``repro.telemetry.profiler`` for the Gibbs-heavy workloads,
and times the serving engine in-process; it also repeats its timed unit with
tracing on to report the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from threading import Thread

import numpy as np
from repro import (
    COLDModel,
    ParallelCOLDSampler,
    StreamConfig,
    SyntheticConfig,
    api,
    generate_corpus,
)
from repro.datasets import generate_packed_corpus
from repro.datasets.stream import CorpusStreamBuilder, PostEvent
from repro.streaming import (
    ModelWatcher,
    OnlineTrainer,
    corpus_to_events,
    split_events,
)
from repro.telemetry import PhaseProfiler, Tracer, parse_prometheus_text, set_profiler

import loadgen

HERE = Path(__file__).resolve().parent

#: Metrics every untraced run prints, with their units.  Only these repeat
#: within 10% between runs on the shared 2-core host; see README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Metrics every traced run prints.  A metric a workload does not measure
#: reports 0 (no parallel supersteps on fit-serial, no HTTP on the fits).
PER_LAYER = {
    # The wall-time end-to-end metrics.  Host speed drifts by more than
    # their 10% budget between runs, so they are reported, not gated.
    "fit_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "serve_max_rps": "1/s",
    "query_error_frac": "ratio",
    "event_to_servable_p50_s": "s",
    "stream_events_per_s": "1/s",
    "swap_query_p50_ms": "ms",
    "swap_query_p90_ms": "ms",
    # Layers.
    "datasets.generate_s": "s",
    "datasets.pack_s": "s",
    "datasets.feed_ms": "ms",
    "core.sweep_s": "s",
    "core.cache_build_s": "s",
    "core.posts.resample_us": "us",
    "core.posts.draw_us": "us",
    "core.posts.update_us": "us",
    "core.links.resample_us": "us",
    "core.links.draw_us": "us",
    "core.links.update_us": "us",
    "core.attributed_frac": "ratio",
    "core.update_ms": "ms",
    "core.window_posts": "count",
    "core.window_links": "count",
    "parallel.superstep_s": "s",
    "parallel.compute_s": "s",
    "parallel.barrier_s": "s",
    "parallel.merge_s": "s",
    "parallel.busy_frac": "ratio",
    "parallel.overhead_s": "s",
    "streaming.publish_ms": "ms",
    "streaming.swap_ms": "ms",
    "streaming.probe_ms": "ms",
    "streaming.reload_ok_frac": "ratio",
    "serving.engine.retweet_us": "us",
    "serving.engine.link_us": "us",
    "serving.engine.timestamp_us": "us",
    "serving.engine.influential_us": "us",
    "serving.http_overhead_us": "us",
    "serving.engine.fold_miss_ms": "ms",
    "serving.engine.influence_miss_ms": "ms",
    "serving.fold_hit_frac": "ratio",
    "serving.influence_hit_frac": "ratio",
    "serving.server_mean_ms": "ms",
    "serving.shed_frac": "ratio",
    "serving.query_p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "telemetry.trace_overhead_frac": "ratio",
    "telemetry.span_coverage_frac": "ratio",
}


@dataclass(frozen=True)
class Scale:
    """World and run sizes.  MEDIUM is the benchmark; SMOKE is for tests."""

    world: dict
    num_communities: int
    num_topics: int
    setup_reps: int
    fit_calls: int
    fit_serial_sweeps: int
    fit_procs_sweeps: int
    serve_fit_sweeps: int
    serve_rate: float
    ladder_step_s: float
    stream_boot_sweeps: int
    stream_batches: int
    burst_size: int


#: The serve ladder's limit on due-time p99 latency.
LATENCY_LIMIT_MS = 25.0

#: A tiny world for the bit-identity checks, so checks stay cheap.
CHECK_WORLD = dict(
    num_users=80, num_communities=4, num_topics=6, num_time_slices=6,
    vocab_size=300, mean_posts_per_user=4.0, mean_words_per_post=10.0,
    mean_links_per_user=2.0,
)

MEDIUM = Scale(
    # 600 users, ~4.9K posts of ~40 words and ~1.8K links, fitted with
    # C=20, K=40 (the planted world has half of each).
    world=dict(
        num_users=600, num_communities=10, num_topics=20, num_time_slices=12,
        vocab_size=2000, mean_posts_per_user=8.0, mean_words_per_post=40.0,
        mean_links_per_user=3.0,
    ),
    num_communities=20,
    num_topics=40,
    setup_reps=3,
    # Three calls of each fit take 13-20 s on a 2-core box, as fast as
    # the shared host happens to be.
    fit_calls=3,
    fit_serial_sweeps=20,
    fit_procs_sweeps=30,
    # Serving cost depends on the model's shapes and update cost on the
    # window, not on how converged the chain is, so set-up fits are short.
    serve_fit_sweeps=5,
    serve_rate=600.0,
    ladder_step_s=3.0,
    stream_boot_sweeps=10,
    # ~2.7K events in 20 batches: about 15 s, since each batch's burst
    # pays cold influence-cache misses after the swap.
    stream_batches=20,
    burst_size=20,
)

SMOKE = Scale(
    world=dict(
        num_users=60, num_communities=3, num_topics=4, num_time_slices=6,
        vocab_size=200, mean_posts_per_user=4.0, mean_words_per_post=8.0,
        mean_links_per_user=2.0,
    ),
    num_communities=4,
    num_topics=6,
    setup_reps=1,
    fit_calls=1,
    fit_serial_sweeps=3,
    fit_procs_sweeps=3,
    serve_fit_sweeps=2,
    serve_rate=100.0,
    ladder_step_s=0.3,
    stream_boot_sweeps=3,
    stream_batches=4,
    burst_size=8,
)

SCALES = {"medium": MEDIUM, "smoke": SMOKE}


def _percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


class Run:
    """Samples, checks, counts and spans of one workload run."""

    def __init__(self, *, trace: bool, workdir: Path, scale: Scale, seed: int,
                 seconds: float):
        self.trace = trace
        #: Length of the one time-boxed phase, serve's open loop.
        self.seconds = seconds
        self.workdir = workdir
        self.scale = scale
        self.seed = seed
        self.samples: dict[str, list[float]] = {}
        self.checks: dict[str, bool] = {}
        #: Raw per-phase records kept in the result file (e.g. ladder steps).
        self.details: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer() if trace else None
        self.profiler = PhaseProfiler() if trace else None

    # -- recording -------------------------------------------------------------

    def record(self, name: str, value: float) -> None:
        """Add one sample; the reported value is the median of a name's samples."""
        self.samples.setdefault(name, []).append(float(value))

    def count(self, name: str, amount: float) -> None:
        """Add to a running total (reported as is)."""
        self.samples[name] = [self.value(name) + amount]

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def value(self, name: str) -> float:
        return _percentile(self.samples.get(name, ()), 50)

    def span(self, name: str, **args):
        """A benchmark-side span around one call; recorded when tracing."""
        return self.tracer.span(name, **args) if self.tracer else nullcontext()

    @contextmanager
    def profiled(self, on: bool):
        """Activate the repro phase profiler around a block (traced runs only)."""
        if not (on and self.profiler is not None):
            yield
            return
        previous = set_profiler(self.profiler)
        try:
            yield
        finally:
            set_profiler(previous)

    def setup(self, build, teardown):
        """Build the system ``setup_reps`` times; keep the last one."""
        system = None
        for rep in range(self.scale.setup_reps):
            if system is not None:
                teardown(system)
            with self.span("setup", rep=rep):
                start = time.perf_counter()
                system = build(rep)
                self.record("setup_s", time.perf_counter() - start)
        return system

    def timed(self):
        """The timed window: the root span every phase span must tile."""
        return self.span("timed")

    def peak_rss(self, children: bool = False) -> None:
        """Record peak resident memory now (KiB from getrusage on Linux)."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if children:
            # Parent plus the largest waited-for worker process.
            peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.record("peak_rss_mb", peak / 1024.0)

    def add_loadgen_spans(self, pid: int, records: list, label: str) -> None:
        """The load generator's per-request records as spans of its process.

        Its stamps are ``time.perf_counter`` values, which on Linux share
        one monotonic clock across processes.
        """
        if self.tracer is None:
            return
        to_us = (time.time() - time.perf_counter()) * 1e6
        events = []
        for index, (family, due, sent, done, status, slot) in enumerate(records):
            args = {"request": f"{label}-{index}", "status": status}
            for name, start, end in (("wait", due, sent), (family, sent, done)):
                events.append({
                    "name": name, "cat": "loadgen", "ph": "X",
                    "ts": start * 1e6 + to_us, "dur": (end - start) * 1e6,
                    "pid": pid, "tid": slot, "args": args,
                })
        self.tracer.extend(events)

    def span_coverage(self) -> float:
        """Share of the last timed window covered by its direct child spans."""
        events = self.tracer.events
        roots = [e for e in events if e["name"] == "timed"]
        if not roots:
            return 0.0
        root = roots[-1]
        covered = sum(e["dur"] for e in events
                      if e["args"].get("parent") == root["args"]["id"])
        return covered / root["dur"]

    def profile_layers(self) -> None:
        """Per-call sweep phases from the repro profiler, matched by path suffix."""
        rows = self.profiler.items()

        def total(*suffix: str) -> tuple[int, float]:
            count, seconds = 0, 0.0
            for path, calls, secs in rows:
                if tuple(path[-len(suffix):]) == suffix:
                    count, seconds = count + calls, seconds + secs
            return count, seconds

        leaves = 0.0
        for part in ("posts", "links"):
            for phase in ("resample", "draw", "update"):
                count, seconds = total(part, phase)
                leaves += seconds
                if count:
                    self.record(f"core.{part}.{phase}_us", seconds / count * 1e6)
        leaves += total("links", "permutation")[1]
        count, seconds = total("sweep")
        if count:
            self.record("core.sweep_s", seconds / count)
            self.record("core.attributed_frac", leaves / seconds)
            self.check("phases_attribute_sweep_time", leaves / seconds >= 0.95)
        count, seconds = total("cache_build")
        if count:
            self.record("core.cache_build_s", seconds / count)


# -- shared helpers ------------------------------------------------------------


def _world(run: Run, check: bool = False) -> SyntheticConfig:
    return SyntheticConfig(**(CHECK_WORLD if check else run.scale.world), seed=run.seed)


def _generate(run: Run):
    with run.span("generate_corpus"):
        start = time.perf_counter()
        corpus, _truth = generate_corpus(_world(run))
        run.record("datasets.generate_s", time.perf_counter() - start)
    return corpus


def _assignments(state) -> tuple:
    return (
        state.post_comm.copy(), state.post_topic.copy(),
        state.link_src_comm.copy(), state.link_dst_comm.copy(),
    )


def _same(a: tuple, b: tuple) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class Loadgen:
    """The load-generator process (``loadgen.py``), driven over a pipe."""

    def __init__(self, host: str, port: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), host, str(port)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("load generator exited")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.write('{"cmd": "quit"}\n')
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _Served:
    """A running ``api.serve`` server on a thread."""

    def __init__(self, stem: Path) -> None:
        self.server = api.serve(stem, port=0)
        self.thread = Thread(target=self.server.serve_until_shutdown, daemon=True)
        self.thread.start()
        self.host, self.port = self.server.server_address[:2]

    def close(self) -> None:
        self.server.begin_drain()
        self.thread.join(timeout=30)


def _add_requests(run: Run, reply: dict) -> None:
    run.attempted += reply["sent"]
    run.failed += reply["failed"]
    for key in ("sent", "ok", "failed"):
        run.count(f"loadgen.{key}", reply[key])


def _v1_result(family: str, engine, body: dict):
    """What ``/v1/query/<family>`` must answer, computed in-process."""
    if family == "retweet":
        scores = engine.retweet(body["source"], body["candidates"], body["words"])
        return {"scores": [float(s) for s in scores]}
    if family == "link":
        scores = engine.link(body["sources"], body["targets"])
        return {"scores": [float(s) for s in scores]}
    if family == "timestamp":
        slices, confidences = engine.timestamp([body["author"]], [body["words"]])
        return {"slices": [int(s) for s in slices],
                "confidences": [[float(p) for p in row] for row in confidences]}
    result = dict(engine.influential(body["topic"]))
    result.pop("cached")
    return result


def _close(expected, actual, tolerance: float) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            _close(value, actual.get(key), tolerance)
            for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(_close(e, a, tolerance) for e, a in zip(expected, actual)))
    if isinstance(expected, float):
        return isinstance(actual, (int, float)) and abs(expected - actual) <= tolerance
    return expected == actual


def check_v1_answers(served: _Served, stem: Path, requests: list) -> bool:
    """``/v1`` answers equal an in-process ModelServer on the same artefact.

    The server rounds scores to 9 decimals and confidences to 6, so values
    agree to within 1e-6.
    """
    config = served.server.config
    engine = api.ModelServer.from_path(
        stem, top_comm_size=config.top_comm_size,
        cache_size=config.cache_size, ic_simulations=config.ic_simulations,
    )
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        for family, path, body in requests:
            conn.request("POST", path, body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                return False
            expected = json.loads(json.dumps(_v1_result(family, engine, body)))
            if not _close(expected, payload["result"], 1e-6):
                return False
    finally:
        conn.close()
    return True


def _serving_counters(run: Run, served: _Served) -> None:
    """Server-side mean latency and shed share from the ``/metrics`` scrape."""
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        conn.request("GET", "/metrics", headers={"Accept": "text/plain"})
        scrape = parse_prometheus_text(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()

    def total(name: str) -> float:
        return sum(sample.value for sample in scrape.series(name))

    count = total("serving_latency_seconds_count")
    if count:
        run.record("serving.server_mean_ms",
                   total("serving_latency_seconds_sum") / count * 1e3)
    requests = total("serving_requests_total")
    if requests:
        run.record("serving.shed_frac", total("serving_shed_total") / requests)


def _engine_timings(run: Run, engine, mix: list, stem: Path) -> dict[str, float]:
    """Warm in-process engine time per family, plus cold-cache miss costs."""
    per_family: dict[str, list[float]] = {}
    for family, _path, body in mix:
        start = time.perf_counter()
        _v1_result(family, engine, body)
        per_family.setdefault(family, []).append(time.perf_counter() - start)
    engine_us = {}
    for family, seconds in per_family.items():
        engine_us[family] = _percentile(seconds, 50) * 1e6
        run.record(f"serving.engine.{family}_us", engine_us[family])
    cold = api.ModelServer.from_path(stem)
    users = cold.estimates.num_users
    for user in range(min(50, users)):
        start = time.perf_counter()
        cold.retweet(user, [(user + 1) % users], [0])
        run.record("serving.engine.fold_miss_ms", (time.perf_counter() - start) * 1e3)
    for topic in range(min(5, cold.estimates.num_topics)):
        start = time.perf_counter()
        cold.influential(topic)
        elapsed = time.perf_counter() - start
        run.record("serving.engine.influence_miss_ms", elapsed * 1e3)
    return engine_us


def _cache_counts(engine) -> tuple[int, int, int, int]:
    info = engine.describe()
    fold, influence = info["fold_cache"], info["influence_cache"]
    return fold["hits"], fold["misses"], influence["hits"], influence["misses"]


def _hit_fracs(run: Run, before: tuple, after: tuple) -> None:
    fold_hits, fold_misses, infl_hits, infl_misses = (
        a - b for a, b in zip(after, before)
    )
    if fold_hits + fold_misses:
        run.record("serving.fold_hit_frac", fold_hits / (fold_hits + fold_misses))
    if infl_hits + infl_misses:
        run.record("serving.influence_hit_frac", infl_hits / (infl_hits + infl_misses))


# -- fit-serial ------------------------------------------------------------------


def fit_serial(run: Run) -> None:
    """Serial fast-kernel fits of a fixed sweep count on the in-RAM world."""
    scale, seed = run.scale, run.seed
    corpus = run.setup(lambda rep: _generate(run), lambda corpus: None)

    def fit() -> COLDModel:
        model = COLDModel(num_communities=scale.num_communities,
                          num_topics=scale.num_topics, seed=seed)
        return model.fit(corpus, num_iterations=scale.fit_serial_sweeps)

    _fit_calls(run, fit, lambda model: model.state_)
    run.peak_rss()
    small, _ = generate_corpus(_world(run, check=True))
    fast, reference = (
        COLDModel(num_communities=8, num_topics=12, seed=seed, fast=flag)
        .fit(small, num_iterations=3)
        for flag in (True, False)
    )
    run.check("fast_matches_reference_kernels",
              _same(_assignments(fast.state_), _assignments(reference.state_)))


def _fit_calls(run: Run, fit, state_of, observe=None) -> None:
    """Time ``fit_calls`` identical fits from outside; ``fit_s`` is their median.

    The count is fixed, so a faster commit does the same work.  Traced runs
    follow each dark call with a profiled one, so the profiler's cost is
    measured within the run; ``observe(fitted, wall)`` then sees each dark
    fit before it is dropped.
    """
    kinds = (False, True) if run.trace else (False,)
    first = None
    with run.timed():
        for _call in range(run.scale.fit_calls):
            for profiled in kinds:
                with run.span("fit", profiled=profiled), run.profiled(profiled):
                    start = time.perf_counter()
                    fitted = fit()
                    wall = time.perf_counter() - start
                run.attempted += 1
                run.record("fit_profiled_s" if profiled else "fit_s", wall)
                assignments = _assignments(state_of(fitted))
                if first is None:
                    first = assignments
                run.check("repeated_fits_identical", _same(first, assignments))
                if observe is not None and run.trace and not profiled:
                    observe(fitted, wall)
                del fitted
    run.details["fit_s"] = run.samples["fit_s"]
    if run.trace:
        run.record("telemetry.trace_overhead_frac",
                   run.value("fit_profiled_s") / run.value("fit_s") - 1)
        run.profile_layers()


# -- fit-procs2 ------------------------------------------------------------------


def fit_procs2(run: Run) -> None:
    """``processes``-executor fits (2 nodes, 2 workers) on the memory-mapped world."""
    scale, seed = run.scale, run.seed

    def build(rep: int):
        with run.span("generate_packed_corpus"):
            start = time.perf_counter()
            packed, _truth = generate_packed_corpus(
                _world(run), path=run.workdir / f"world-{rep}.coldpack"
            )
            run.record("datasets.pack_s", time.perf_counter() - start)
        return packed

    packed = run.setup(build, lambda packed: packed.close())

    def fit() -> ParallelCOLDSampler:
        sampler = ParallelCOLDSampler(
            num_communities=scale.num_communities, num_topics=scale.num_topics,
            num_nodes=2, executor="processes", num_workers=2, seed=seed,
        )
        return sampler.fit(packed, num_iterations=scale.fit_procs_sweeps)

    def supersteps(sampler: ParallelCOLDSampler, wall: float) -> None:
        steps = sampler.report_.supersteps
        superstep = [s.dispatch_wall_seconds + s.merge_seconds for s in steps]
        for step, total in zip(steps, superstep):
            run.record("parallel.superstep_s", total)
            dispatch = step.dispatch_wall_seconds
            run.record("parallel.compute_s", dispatch - step.barrier_seconds)
            run.record("parallel.barrier_s", step.barrier_seconds)
            run.record("parallel.merge_s", step.merge_seconds)
            if dispatch > 0:
                busy = sum(t.compute_seconds for t in step.node_timings)
                run.record("parallel.busy_frac",
                           busy / (len(step.node_timings) * dispatch))
        run.record("parallel.overhead_s", wall - sum(superstep))

    _fit_calls(run, fit, lambda sampler: sampler.state_, observe=supersteps)
    run.peak_rss(children=True)
    packed.close()

    check_corpus, _ = generate_packed_corpus(
        _world(run, check=True), path=run.workdir / "check.coldpack"
    )
    with check_corpus:
        states = [
            ParallelCOLDSampler(
                num_communities=8, num_topics=12, num_nodes=2, executor=executor,
                num_workers=workers, seed=seed,
            ).fit(check_corpus, num_iterations=2).state_
            for executor, workers in (("simulated", None), ("processes", 2))
        ]
    run.check("processes_matches_simulated",
              _same(_assignments(states[0]), _assignments(states[1])))


# -- serve -----------------------------------------------------------------------


def serve(run: Run) -> None:
    """Open-loop ``/v1`` traffic for ``run.seconds`` on warm caches."""
    scale, seed, seconds = run.scale, run.seed, run.seconds

    def build(rep: int) -> tuple[_Served, Path]:
        corpus = _generate(run)
        model = COLDModel(num_communities=scale.num_communities,
                          num_topics=scale.num_topics, seed=seed)
        with run.span("fit"):
            model.fit(corpus, num_iterations=scale.serve_fit_sweeps)
        stem = run.workdir / f"serve-{rep}"
        api.save(model, stem)
        with run.span("serve"):
            served = _Served(stem)
        engine = served.server.engine
        users, topics = engine.estimates.num_users, engine.estimates.num_topics
        with run.span("warm_caches"):
            for user in range(users):
                engine.retweet(user, [(user + 1) % users], [0])
            for topic in range(topics):
                engine.influential(topic)
        return served, stem

    with ExitStack() as stack:
        served, stem = run.setup(build, lambda system: system[0].close())
        stack.callback(served.close)
        engine = served.server.engine
        est = engine.estimates
        mix = loadgen.build_mix(seed + 1, 4000, est.num_users, est.vocab_size,
                                est.num_topics)
        generator = Loadgen(served.host, served.port)
        stack.callback(generator.close)
        generator.call("mix", name="serve", requests=mix)
        before = _cache_counts(engine)
        with run.timed():
            with run.span("open_loop", rate=scale.serve_rate):
                reply = generator.call("open", mix="serve", rate=scale.serve_rate,
                                       seconds=seconds)
            _add_requests(run, reply)
            if run.trace:
                with run.span("open_loop_traced", rate=scale.serve_rate):
                    traced = generator.call("open", mix="serve", rate=scale.serve_rate,
                                            seconds=seconds / 3, spans=True)
                _add_requests(run, traced)
                run.add_loadgen_spans(generator.proc.pid, traced["spans"], "open")
                passed = (reply["failed"] == 0 and not reply["backlog_growing"]
                          and reply["latency_p99_ms"] <= LATENCY_LIMIT_MS)
                # The ladder probes past capacity on purpose, so its shed or
                # failed requests are kept in its steps, not in run.failed.
                with run.span("ladder"):
                    ladder = generator.call(
                        "ladder", mix="serve", start=scale.serve_rate,
                        start_passed=passed, step_seconds=scale.ladder_step_s,
                        limit_ms=LATENCY_LIMIT_MS, resolution=1.05,
                    )
        run.peak_rss()
        after = _cache_counts(engine)
        run.record("query_p50_ms", reply["latency_p50_ms"])
        run.record("query_p90_ms", reply["latency_p90_ms"])
        run.record("serving.query_p99_ms", reply["latency_p99_ms"])
        run.record("query_error_frac", run.failed / run.attempted)
        run.record("loadgen.late_p99_ms", reply["late_p99_ms"])
        run.check("no_failed_queries", run.failed == 0)
        run.check("caches_stayed_warm", after[1] == before[1] and after[3] == before[3])
        _hit_fracs(run, before, after)
        if run.trace:
            run.record("serve_max_rps", ladder["max_rps"])
            run.details["ladder"] = [
                {key: step[key] for key in ("rate", "passed", "kept_up", "sent",
                                            "failed", "dropped", "latency_p99_ms")}
                for step in ladder["steps"]
            ]
            run.record("telemetry.trace_overhead_frac",
                       traced["latency_p50_ms"] / reply["latency_p50_ms"] - 1)
            _serving_counters(run, served)
            engine_us = _engine_timings(run, engine, mix[:400], stem)
            client_us = traced["service_p50_ms"]
            # The mix is round-robin, so each family weighs a quarter.
            run.record("serving.http_overhead_us", statistics.fmean(
                client_us[family] * 1e3 - engine_us[family] for family in engine_us
            ))
        run.check("v1_matches_engine", check_v1_answers(served, stem, mix[:40]))


# -- stream ----------------------------------------------------------------------


@dataclass
class _Stream:
    trainer: OnlineTrainer
    watcher: ModelWatcher
    served: _Served
    remainder: list
    swaps: list

    def close(self) -> None:
        self.trainer.close()
        self.served.close()


def _stream_build(run: Run, rep: int) -> _Stream:
    scale, seed = run.scale, run.seed
    corpus = _generate(run)
    bootstrap, remainder = split_events(corpus_to_events(corpus), 0.6)
    builder = CorpusStreamBuilder(num_time_slices=corpus.num_time_slices)
    for event in bootstrap:
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)
    model = COLDModel(num_communities=scale.num_communities,
                      num_topics=scale.num_topics, seed=seed, stream=StreamConfig())
    with run.span("fit"):
        model.fit(builder.build(incremental=True),
                  num_iterations=scale.stream_boot_sweeps)
    publish_dir = run.workdir / f"publish-{rep}"
    trainer = OnlineTrainer(model, builder, publish_dir=publish_dir)
    trainer.publish()
    with run.span("serve"):
        served = _Served(publish_dir / f"model-{trainer.generation:06d}")
    watcher = api.watch(served.server, publish_dir, start=False)
    watcher.seen_generation = trainer.generation
    swaps: list[float] = []

    def swap(generation: int, path: Path) -> None:
        with run.span("poke", generation=generation):
            start = time.perf_counter()
            watcher.poke()
            swaps.append(time.perf_counter() - start)

    trainer.subscribe(swap)
    return _Stream(trainer, watcher, served, remainder, swaps)


def _stream_session(run: Run, system: _Stream, mix: list, traced: bool) -> list[float]:
    """Feed the batches; after each swap, a ``/v1`` burst whose first request
    is the freshness probe.  Returns event-to-servable seconds per batch.

    The burst command is written only after ``step()`` returned, so queries
    never overlap an update.  Closes the system and the load generator.
    """
    rest = system.remainder
    size = -(-len(rest) // run.scale.stream_batches)
    server = system.served.server
    e2s, latencies = [], []
    events = busy = 0.0
    with ExitStack() as stack:
        stack.callback(system.close)
        generator = Loadgen(system.served.host, system.served.port)
        stack.callback(generator.close)
        generator.call("mix", name="burst", requests=mix)
        generation = server.generation
        with run.timed(), run.profiled(traced):
            for index in range(0, len(rest), size):
                batch = rest[index:index + size]
                with run.span("feed", events=len(batch)):
                    fed_at = time.perf_counter()
                    system.trainer.feed(batch)
                    fed = time.perf_counter()
                with run.span("step"):
                    report = system.trainer.step()
                    stepped = time.perf_counter()
                before = _cache_counts(server.engine)
                with run.span("burst"):
                    sent = time.perf_counter()
                    burst = generator.call("burst", mix="burst", spans=True)
                _hit_fracs(run, before, _cache_counts(server.engine))
                generation += 1
                run.check("every_swap_advances_generation",
                          all(g == generation for g in burst["generations"]))
                # Feed start to the probe's answer; the probe is timed from
                # when the load generator read the burst command.
                e2s.append(sent - fed_at + burst["probe_ms"] / 1e3)
                events += len(batch)
                busy += stepped - fed_at
                run.attempted += 1
                _add_requests(run, burst)
                latencies += [(done - due) * 1e3
                              for _f, due, _s, done, status, _slot in burst["spans"]
                              if status == 200]
                run.record("loadgen.late_p99_ms", burst["late_p99_ms"])
                if traced:
                    run.add_loadgen_spans(generator.proc.pid, burst["spans"],
                                          f"burst{len(e2s)}")
                    swap = system.swaps[-1]
                    run.record("datasets.feed_ms", (fed - fed_at) * 1e3)
                    run.record("core.update_ms", report.seconds * 1e3)
                    run.record("core.window_posts", report.window_posts)
                    run.record("core.window_links", report.window_links)
                    run.record("streaming.swap_ms", swap * 1e3)
                    run.record("streaming.publish_ms",
                               (stepped - fed - report.seconds - swap) * 1e3)
                    run.record("streaming.probe_ms", burst["probe_ms"])
        run.peak_rss()
        watcher = system.watcher
        run.failed += watcher.failed_reloads
        run.record("streaming.reload_ok_frac",
                   watcher.reloads / max(1, watcher.reloads + watcher.failed_reloads))
        run.check("no_failed_reloads",
                  watcher.failed_reloads == 0 and watcher.reloads == len(e2s))
        run.check("no_failed_queries", run.failed == 0)
        final = system.trainer.publish_dir / f"model-{system.trainer.generation:06d}"
        run.check("v1_matches_engine", check_v1_answers(system.served, final, mix))
        if traced:
            _serving_counters(run, system.served)
            _engine_timings(run, server.engine, mix * 10, final)
    if not traced:
        run.details["event_to_servable_s"] = e2s
        run.record("event_to_servable_p50_s", _percentile(e2s, 50))
        run.record("stream_events_per_s", events / busy)
        run.record("swap_query_p50_ms", _percentile(latencies, 50))
        run.record("swap_query_p90_ms", _percentile(latencies, 90))
        run.record("query_error_frac", run.failed / run.attempted)
    return e2s


def stream(run: Run) -> None:
    """Bootstrap fit, then batches through feed -> step (publish, poke) -> burst."""
    scale, seed = run.scale, run.seed
    system = run.setup(lambda rep: _stream_build(run, rep), _Stream.close)
    est = system.served.server.engine.estimates
    mix = loadgen.build_mix(seed + 2, scale.burst_size, est.num_users,
                            est.vocab_size, est.num_topics, zipf=1.1)
    e2s = _stream_session(run, system, mix, traced=False)
    if run.trace:
        # A second pass over the same stream from a fresh set-up, traced.
        system = _stream_build(run, scale.setup_reps)
        traced = _stream_session(run, system, mix, traced=True)
        run.record("telemetry.trace_overhead_frac",
                   _percentile(traced, 50) / _percentile(e2s, 50) - 1)
        run.profile_layers()


WORKLOADS = {
    "fit-serial": fit_serial,
    "fit-procs2": fit_procs2,
    "serve": serve,
    "stream": stream,
}
