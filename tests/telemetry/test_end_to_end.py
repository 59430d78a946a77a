"""End-to-end observability smoke tests.

The contract under test: enabling ``metrics_out`` / ``trace_out`` on a
real fit produces a non-empty ``metrics.jsonl``, an attributable
``run.json``, and a loadable Chrome trace — while drawing a chain
bit-identical to the same fit run dark.  Covers the serial model, the
2-node ``processes`` cluster (tier-1 requirement), CLI flag plumbing,
and the config/api surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.api as api
from repro.cli import main
from repro.core.config import COLDConfig, ConfigError
from repro.core.likelihood import ConvergenceMonitor, joint_log_likelihood
from repro.core.model import COLDModel
from repro.datasets.synthetic import SyntheticConfig, generate_corpus
from repro.parallel.sampler import ParallelCOLDSampler
from repro.telemetry import profiler as profiling
from repro.telemetry.metrics import read_jsonl


@pytest.fixture(scope="module")
def smoke_corpus():
    corpus, _ = generate_corpus(
        SyntheticConfig(num_users=20, mean_posts_per_user=3.0, seed=1)
    )
    return corpus


FIT_KW = dict(num_iterations=4, burn_in=2, sample_interval=1, likelihood_interval=2)
MODEL_KW = dict(num_communities=3, num_topics=4, seed=11)


def _assignments(model):
    state = model.state_
    return {
        "post_comm": state.post_comm.copy(),
        "post_topic": state.post_topic.copy(),
        "link_src": state.link_src_comm.copy(),
        "link_dst": state.link_dst_comm.copy(),
    }


def _assert_same_chain(dark, instrumented):
    for key, value in _assignments(dark).items():
        np.testing.assert_array_equal(
            value, _assignments(instrumented)[key], err_msg=key
        )


class TestSerialModel:
    def test_metrics_trace_and_identical_draws(self, smoke_corpus, tmp_path):
        dark = COLDModel(**MODEL_KW).fit(smoke_corpus, **FIT_KW)
        metrics = tmp_path / "metrics.jsonl"
        trace = tmp_path / "trace.json"
        lit = COLDModel(**MODEL_KW, metrics_out=metrics, trace_out=trace).fit(
            smoke_corpus, **FIT_KW
        )
        _assert_same_chain(dark, lit)

        records = read_jsonl(metrics)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "fit_start"
        assert kinds[-1] == "fit_end"
        assert kinds.count("sweep") == FIT_KW["num_iterations"]
        assert "metrics" in kinds

        sweeps = [r for r in records if r["kind"] == "sweep"]
        num_posts = len(smoke_corpus.posts)
        num_links = len(smoke_corpus.links)
        for record in sweeps:
            assert record["rng_draws"] == num_posts + num_links
            assert record["wall_seconds"] > 0
            assert record["cpu_seconds"] > 0
            assert record["total_sweeps"] == FIT_KW["num_iterations"]
            assert set(record["churn"]) == {"post_comm", "post_topic"}
        # Likelihood lands on the sweeps where the monitor evaluated.
        assert any(r.get("log_likelihood") is not None for r in sweeps)
        assert any(r.get("perplexity") is not None for r in sweeps)

        aggregate = next(r for r in records if r["kind"] == "metrics")
        assert aggregate["counters"]["sweeps_total"] == FIT_KW["num_iterations"]
        assert aggregate["counters"]["gibbs_draws_total"] == (
            (num_posts + num_links) * FIT_KW["num_iterations"]
        )
        assert (
            aggregate["histograms"]["sweep_seconds"]["count"]
            == FIT_KW["num_iterations"]
        )

        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["seed"] == MODEL_KW["seed"]
        assert manifest["executor"] == "serial"
        assert manifest["config"]["num_communities"] == 3

        loaded = json.loads(trace.read_text())
        names = {e["name"] for e in loaded["traceEvents"]}
        assert {"sweep", "cache_build"} <= names

    def test_checkpointing_defaults_metrics_into_run_dir(
        self, smoke_corpus, tmp_path
    ):
        run_dir = tmp_path / "run"
        COLDModel(**MODEL_KW).fit(
            smoke_corpus,
            **FIT_KW,
            checkpoint_every=2,
            checkpoint_dir=run_dir,
        )
        records = read_jsonl(run_dir / "metrics.jsonl")
        assert any(r["kind"] == "sweep" for r in records)
        assert (run_dir / "run.json").exists()
        aggregate = next(r for r in records if r["kind"] == "metrics")
        assert aggregate["counters"]["checkpoints_total"] >= 1


class TestProcessesCluster:
    def test_two_node_processes_run_emits_and_matches(
        self, smoke_corpus, tmp_path
    ):
        dark = ParallelCOLDSampler(
            **MODEL_KW, num_nodes=2, executor="simulated"
        ).fit(smoke_corpus, **FIT_KW)
        metrics = tmp_path / "metrics.jsonl"
        trace = tmp_path / "trace.json"
        lit = ParallelCOLDSampler(
            **MODEL_KW,
            num_nodes=2,
            executor="processes",
            metrics_out=metrics,
            trace_out=trace,
        ).fit(smoke_corpus, **FIT_KW)
        # Executor choice and telemetry both leave the chain untouched.
        _assert_same_chain(dark, lit)

        records = read_jsonl(metrics)
        assert records, "processes run wrote an empty metrics.jsonl"
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "fit_start"
        assert kinds[-1] == "fit_end"
        sweeps = [r for r in records if r["kind"] == "sweep"]
        assert len(sweeps) == FIT_KW["num_iterations"]
        num_posts = len(smoke_corpus.posts)
        num_links = len(smoke_corpus.links)
        for record in sweeps:
            assert record["rng_draws"] == num_posts + num_links
            assert record["merge_seconds"] >= 0
            assert len(record["node_compute_seconds"]) == 2
            assert set(record["churn"]) == {"post_comm", "post_topic", "link"}

        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["executor"] == "processes"
        assert manifest["num_nodes"] == 2

        aggregate = next(r for r in records if r["kind"] == "metrics")
        assert aggregate["counters"]["supersteps_total"] == FIT_KW["num_iterations"]
        assert aggregate["histograms"]["node_compute_seconds"]["count"] == (
            2 * FIT_KW["num_iterations"]
        )

        loaded = json.loads(trace.read_text())
        events = loaded["traceEvents"]
        names = {e["name"] for e in events}
        assert {"superstep", "node", "barrier_merge", "worker_shard"} <= names
        parent_pid = next(e["pid"] for e in events if e["name"] == "superstep")
        worker_pids = {e["pid"] for e in events if e["name"] == "worker_shard"}
        assert worker_pids and parent_pid not in worker_pids

    def test_phases_and_spans_share_one_timing_core(self, smoke_corpus, tmp_path):
        trace = tmp_path / "trace.json"
        prof = profiling.PhaseProfiler()
        previous = profiling.set_profiler(prof)
        try:
            ParallelCOLDSampler(
                **MODEL_KW, num_nodes=2, executor="processes", trace_out=trace
            ).fit(smoke_corpus, **FIT_KW)
        finally:
            profiling.set_profiler(previous)

        events = json.loads(trace.read_text())["traceEvents"]
        parent_pid = next(e["pid"] for e in events if e["name"] == "snapshot")
        worker_names = {e["name"] for e in events if e["pid"] != parent_pid}
        assert "worker_shard" in worker_names
        assert worker_names & {"cache_build", "cache_refresh"}

        paths = [path for path, _count, _seconds in prof.items()]
        assert ("worker", "shard") in paths
        worker_phases = {"shard", "reset", "delta_write", "cache_build", "cache_refresh"}
        for path in paths:
            if worker_phases & set(path):
                assert path[0] == "worker", path


class TestCLI:
    def test_train_flags_and_monitor(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        assert (
            main(
                [
                    "generate",
                    str(corpus_path),
                    "--users", "20",
                    "--communities", "3",
                    "--topics", "4",
                    "--seed", "5",
                ]
            )
            == 0
        )
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "train",
                str(corpus_path),
                str(tmp_path / "model"),
                "--communities", "3",
                "--topics", "4",
                "--iterations", "6",
                "--metrics-out", str(metrics),
                "--trace-out", str(tmp_path / "trace.json"),
            ]
        )
        assert code == 0
        assert any(r["kind"] == "fit_end" for r in read_jsonl(metrics))
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "run.json").exists()

        capsys.readouterr()
        assert main(["monitor", str(metrics)]) == 0
        line = capsys.readouterr().out
        assert "sweep 6/6" in line
        assert "run finished" in line

    def test_monitor_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["monitor", str(tmp_path / "absent.jsonl")])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_monitor_rejects_bad_interval(self, tmp_path, capsys):
        (tmp_path / "m.jsonl").write_text("")
        code = main(
            ["monitor", str(tmp_path / "m.jsonl"), "--interval", "0"]
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err


class TestConfigAndApi:
    def test_config_accepts_telemetry_fields(self):
        config = COLDConfig(
            num_communities=3,
            num_topics=4,
            metrics_out="m.jsonl",
            trace_out="t.json",
            log_level="info",
        )
        assert config.metrics_out == "m.jsonl"
        assert config.trace_out == "t.json"

    def test_config_rejects_bad_log_level(self):
        with pytest.raises(ConfigError, match="log level"):
            COLDConfig(num_communities=3, num_topics=4, log_level="chatty")

    def test_api_exports_convergence_tools(self):
        assert api.ConvergenceMonitor is ConvergenceMonitor
        assert api.joint_log_likelihood is joint_log_likelihood
        assert "configure_logging" in api.__all__
        assert "ConvergenceMonitor" in api.__all__
        assert "joint_log_likelihood" in api.__all__

    def test_api_fit_threads_telemetry_paths(self, smoke_corpus, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        config = COLDConfig(
            num_communities=3,
            num_topics=4,
            seed=2,
            num_iterations=3,
            burn_in=1,
            sample_interval=1,
            metrics_out=str(metrics),
        )
        model = api.fit(smoke_corpus, config)
        assert model.fitted
        records = read_jsonl(metrics)
        assert [r["kind"] for r in records][0] == "fit_start"
        assert any(r["kind"] == "fit_end" for r in records)
