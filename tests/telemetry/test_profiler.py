"""Unit tests for the training-plane performance observatory.

Covers the :class:`~repro.telemetry.profiler.PhaseProfiler` accounting
primitives (nesting, absorb, drain round-trip), the attribution report
and its collapsed-stack rendering, the phase rows and bit-identical-draws
contract of the fast sweep kernel (which times its phases only while a
profiler is active and never reads the RNG for it), and the
synthetic-slowdown detection path
(:func:`~repro.telemetry.profiler.compare_profiles`).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.fastgibbs import SweepCache
from repro.core.gibbs import sweep
from repro.core.params import Hyperparameters
from repro.core.state import CountState
from repro.datasets.synthetic import SyntheticConfig, generate_corpus
from repro.parallel.sampler import ParallelCOLDSampler
from repro.telemetry import profiler as profiling
from repro.telemetry.profiler import (
    PhaseProfiler,
    build_profile_report,
    compare_profiles,
    escape_phase,
    memory_gauges,
    parse_collapsed,
    render_collapsed,
    render_profile_report,
    unescape_phase,
    worker_utilization,
)


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with profiling off."""
    previous = profiling.set_profiler(None)
    yield
    profiling.set_profiler(previous)


def small_corpus(seed: int = 7):
    corpus, _truth = generate_corpus(
        SyntheticConfig(
            num_users=30,
            num_communities=3,
            num_topics=4,
            vocab_size=60,
            num_time_slices=6,
            seed=seed,
        )
    )
    return corpus


class TestPhaseProfiler:
    def test_add_and_items(self):
        prof = PhaseProfiler()
        prof.add(("a",), 1.0)
        prof.add(("a", "b"), 0.25, count=5)
        prof.add(("a", "b"), 0.25, count=5)
        assert prof.items() == [
            (("a",), 1, 1.0),
            (("a", "b"), 10, 0.5),
        ]
        assert prof.seconds(("a", "b")) == 0.5
        assert len(prof) == 2

    def test_phase_nesting_builds_paths(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            assert prof.current_path() == ("outer",)
            with prof.phase("inner"):
                assert prof.current_path() == ("outer", "inner")
        paths = [path for path, _, _ in prof.items()]
        assert paths == [("outer",), ("outer", "inner")]

    def test_relative_add_prefixes_current_stack(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            prof.add(("leaf",), 0.5, relative=True)
        assert prof.seconds(("outer", "leaf")) == 0.5

    def test_drain_absorb_round_trip(self):
        worker = PhaseProfiler()
        worker.add(("shard",), 2.0)
        worker.add(("shard", "sweep"), 1.5, count=3)
        rows = worker.drain()
        assert len(worker) == 0
        parent = PhaseProfiler()
        parent.absorb(rows, prefix="worker")
        assert parent.seconds(("worker", "shard")) == 2.0
        assert parent.seconds(("worker", "shard", "sweep")) == 1.5
        # Absorbing a second shard accumulates instead of replacing.
        parent.absorb([[["shard"], 1, 1.0]], prefix="worker")
        assert parent.seconds(("worker", "shard")) == 3.0

    def test_module_activation(self):
        assert profiling.get_profiler() is None
        with profiling.phase("noop"):
            pass  # null context when off
        prof = PhaseProfiler()
        previous = profiling.set_profiler(prof)
        assert previous is None
        with profiling.phase("real"):
            pass
        assert profiling.get_profiler() is prof
        assert [path for path, _, _ in prof.items()] == [("real",)]


class TestEscaping:
    @pytest.mark.parametrize(
        "name",
        ["plain", "with space", "semi;colon", "per%cent", "tab\there", "nl\nhere"],
    )
    def test_round_trip(self, name):
        assert unescape_phase(escape_phase(name)) == name
        assert ";" not in escape_phase(name)
        assert " " not in escape_phase(name)


class TestCollapsed:
    def test_self_time_conserved_with_skipped_levels(self):
        # The sweep kernel records a;b;c without an intermediate a;b node
        # — self time must charge to the nearest *recorded* ancestor.
        prof = PhaseProfiler()
        prof.add(("root",), 1.0)
        prof.add(("root", "x", "deep"), 0.3)
        prof.add(("root", "y"), 0.2)
        parsed = parse_collapsed(render_collapsed(prof))
        assert sum(parsed.values()) == 1_000_000
        assert parsed[("root",)] == 500_000

    def test_negative_self_clamped(self):
        prof = PhaseProfiler()
        prof.add(("root",), 1.0)
        prof.add(("root", "a"), 1.2)  # timer jitter: child > parent
        parsed = parse_collapsed(render_collapsed(prof))
        # Clamped-to-zero self time renders no line at all (flamegraph
        # tools reject zero/negative samples).
        assert ("root",) not in parsed
        assert parsed[("root", "a")] == 1_200_000

    def test_parse_skips_garbage_lines(self):
        text = "a;b 100\nnot a line\nc 5\n"
        assert parse_collapsed(text) == {("a", "b"): 100, ("c",): 5}


class TestReport:
    def test_report_and_render(self):
        prof = PhaseProfiler()
        prof.add(("sweep",), 0.9, count=3)
        prof.add(("sweep", "posts", "resample"), 0.6, count=300)
        prof.add(("sweep", "posts", "draw"), 0.25, count=300)
        report = build_profile_report(prof, total_wall_seconds=1.0, sweeps=3)
        assert report["sweeps"] == 3
        assert report["attributed_fraction"] == pytest.approx(0.85)
        leaves = {p["phase"] for p in report["phases"] if p["leaf"]}
        assert leaves == {"sweep;posts;resample", "sweep;posts;draw"}
        text = render_profile_report(report)
        assert "sweep;posts;resample" in text
        assert "attributed 85" in text

    def test_concurrent_worker_trees_excluded_from_parent(self):
        prof = PhaseProfiler()
        prof.add(("dispatch",), 0.5)
        prof.add(("worker", "shard"), 0.9)
        prof.add(("worker", "shard", "sweep"), 0.8)
        report = build_profile_report(prof, total_wall_seconds=0.5, sweeps=1)
        # Parent attribution counts dispatch only; worker time overlaps it.
        assert report["attributed_fraction"] == pytest.approx(1.0)
        assert report["worker_attributed_fraction"] == pytest.approx(
            0.8 / 0.9, rel=1e-3
        )

    def test_compare_profiles_flags_synthetic_slowdown(self):
        baseline = PhaseProfiler()
        current = PhaseProfiler()
        for prof in (baseline, current):
            prof.add(("sweep", "posts", "draw"), 0.2, count=100)
        baseline.add(("sweep", "posts", "resample"), 0.4, count=100)
        current.add(("sweep", "posts", "resample"), 0.8, count=100)  # 2x
        base_report = build_profile_report(baseline, 0.7, 1)
        cur_report = build_profile_report(current, 1.1, 1)
        verdicts = {
            row["phase"]: row["verdict"]
            for row in compare_profiles(cur_report, base_report)
        }
        assert verdicts["sweep;posts;resample"] == "regressed"
        assert verdicts["sweep;posts;draw"] == "ok"


class TestKernelInstrumentation:
    def test_profiled_sweeps_draw_identical_chain(self):
        corpus = small_corpus()
        states = []
        for enabled in (False, True):
            rng = np.random.default_rng(11)
            state = CountState.initialize(corpus, 3, 4, rng)
            hp = Hyperparameters.default(3, 4, corpus)
            cache = SweepCache(state, hp)
            previous = profiling.set_profiler(
                PhaseProfiler() if enabled else None
            )
            try:
                for _ in range(3):
                    sweep(state, hp, rng, cache=cache)
            finally:
                profiling.set_profiler(previous)
            states.append(state)
        dark, lit = states
        assert np.array_equal(dark.post_comm, lit.post_comm)
        assert np.array_equal(dark.post_topic, lit.post_topic)
        assert np.array_equal(dark.link_src_comm, lit.link_src_comm)

    def test_profiled_sweep_attributes_phases(self):
        corpus = small_corpus()
        rng = np.random.default_rng(3)
        state = CountState.initialize(corpus, 3, 4, rng)
        hp = Hyperparameters.default(3, 4, corpus)
        cache = SweepCache(state, hp)
        prof = PhaseProfiler()
        previous = profiling.set_profiler(prof)
        try:
            sweep(state, hp, rng, cache=cache)
        finally:
            profiling.set_profiler(previous)
        counts = {path: count for path, count, _ in prof.items()}
        assert counts[("sweep",)] == 1
        for phase in ("resample", "draw", "update"):
            assert counts[("sweep", "posts", phase)] == state.num_posts
            assert counts[("sweep", "links", phase)] == state.num_links
        assert counts[("sweep", "links", "permutation")] == 1


class TestConcurrentShards:
    """Each thread nests phases on its own stack (the ``threads`` executor)."""

    def test_phase_stacks_are_per_thread(self):
        prof = PhaseProfiler()
        both_open = threading.Barrier(2, timeout=10)

        def shard(name: str) -> None:
            with prof.phase(name):
                both_open.wait()  # the other thread's phase is open too
                with prof.phase("inner"):
                    both_open.wait()

        threads = [
            threading.Thread(target=shard, args=(name,)) for name in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert [path for path, _, _ in prof.items()] == [
            ("a",), ("a", "inner"), ("b",), ("b", "inner"),
        ]

    def test_concurrent_adds_and_drains_lose_no_update(self):
        prof = PhaseProfiler()
        workers, adds = 8, 2_000
        drained = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [prof.add(("x",), 1.0) for _ in range(adds)]
                )
                for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                drained += prof.drain()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        drained += prof.drain()
        assert sum(count for _path, count, _seconds in drained) == workers * adds

    def test_threads_fit_keeps_simulated_phase_paths(self):
        corpus = small_corpus()
        nodes, sweeps = 4, 4
        paths = {}
        for executor in ("simulated", "threads"):
            prof = PhaseProfiler()
            previous = profiling.set_profiler(prof)
            try:
                ParallelCOLDSampler(
                    num_communities=3,
                    num_topics=4,
                    num_nodes=nodes,
                    executor=executor,
                    seed=5,
                ).fit(corpus, num_iterations=sweeps)
            finally:
                profiling.set_profiler(previous)
            paths[executor] = {path: count for path, count, _ in prof.items()}
        threads = paths["threads"]
        assert not [
            path
            for path in threads
            if path[0] in ("cache_build", "cache_refresh") and len(path) > 1
        ]
        assert threads[("sweep",)] == nodes * sweeps
        assert set(threads) <= set(paths["simulated"]) | {("dispatch", "barrier")}


class TestGauges:
    def test_worker_utilization(self):
        util = worker_utilization([2.0, 1.0], [1.5, 0.9], wall_seconds=2.0)
        assert util["busy_fraction"] == pytest.approx(2.4 / 4.0)
        assert util["straggler_ratio"] == pytest.approx(2.0 / 1.5, rel=1e-3)

    def test_worker_utilization_empty(self):
        util = worker_utilization([], [], wall_seconds=1.0)
        assert util["busy_fraction"] == 0.0
        assert util["straggler_ratio"] == 1.0

    def test_memory_gauges_shape(self):
        gauges = memory_gauges()
        # A Python process with numpy loaded sits well above 10MB; a
        # plausibility window guards against unit slips (KiB vs bytes).
        assert 10 < gauges["rss_peak_mb"] < 1024 * 1024
        assert gauges["major_page_faults"] >= 0
        children = memory_gauges(include_children=True)
        assert children["rss_peak_mb"] >= gauges["rss_peak_mb"]
