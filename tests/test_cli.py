"""End-to-end tests for the `cold` command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    code = main(
        [
            "generate",
            str(path),
            "--users", "25",
            "--communities", "3",
            "--topics", "4",
            "--time-slices", "6",
            "--vocab", "100",
            "--seed", "5",
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def model_path(tmp_path, corpus_path):
    path = tmp_path / "model"
    code = main(
        [
            "train",
            str(corpus_path),
            str(path),
            "--communities", "3",
            "--topics", "4",
            "--iterations", "12",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_loadable_corpus(self, corpus_path):
        from repro.datasets.io import load_corpus

        corpus = load_corpus(corpus_path)
        assert corpus.num_users == 25
        assert corpus.num_time_slices == 6

    def test_themed_flag(self, tmp_path):
        path = tmp_path / "themed.jsonl"
        assert main(["generate", str(path), "--themed", "--users", "20"]) == 0
        from repro.datasets.io import load_corpus

        corpus = load_corpus(path)
        assert corpus.vocabulary is not None
        assert not corpus.vocabulary.token_of(0).startswith("term")


class TestTrain:
    def test_writes_model_files(self, model_path):
        assert model_path.with_suffix(".json").exists()
        assert model_path.with_suffix(".npz").exists()

    def test_loaded_model_valid(self, model_path):
        from repro.core.model import COLDModel

        model = COLDModel.load(model_path)
        assert model.estimates_ is not None
        model.estimates_.validate()

    def test_parallel_training(self, tmp_path, corpus_path, capsys):
        path = tmp_path / "par_model"
        code = main(
            [
                "train",
                str(corpus_path),
                str(path),
                "--communities", "3",
                "--topics", "4",
                "--iterations", "6",
                "--nodes", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert path.with_suffix(".npz").exists()

    def test_no_network_flag(self, tmp_path, corpus_path):
        path = tmp_path / "nolink"
        code = main(
            [
                "train", str(corpus_path), str(path),
                "--communities", "3", "--topics", "4",
                "--iterations", "6", "--no-network",
            ]
        )
        assert code == 0


class TestAnalyze:
    def test_prints_all_sections(self, model_path, corpus_path, capsys):
        code = main(["analyze", str(model_path), str(corpus_path), "--topic", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "word cloud" in out
        assert "diffusion graph" in out
        assert "influential communities" in out


class TestPredict:
    def test_prints_accuracy_per_tolerance(self, model_path, corpus_path, capsys):
        code = main(
            [
                "predict", str(model_path), str(corpus_path),
                "--tolerances", "0", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tolerance" in out
        assert out.count("accuracy") == 2


class TestProfile:
    def test_smoke_profile_writes_reports(self, tmp_path, capsys):
        json_out = tmp_path / "profile.json"
        collapsed_out = tmp_path / "profile.collapsed"
        code = main(
            [
                "profile", "--case", "smoke", "--sweeps", "2",
                "--warmup", "1",
                "--json", str(json_out),
                "--collapsed", str(collapsed_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attributed" in out
        assert "sweep;posts;resample" in out
        import json as json_module

        record = json_module.loads(json_out.read_text())
        assert record["phases"]
        assert record["attributed_fraction"] > 0
        assert collapsed_out.read_text().strip()

    def test_rejects_nonpositive_sweeps(self, capsys):
        assert main(["profile", "--case", "smoke", "--sweeps", "0"]) == 2
        assert "sweeps must be positive" in capsys.readouterr().err


class TestBenchCompare:
    """--compare/--strict against canned (monkeypatched) bench runs."""

    # Each suite's ``benchmark`` name, which ledger baselines filter on.
    PAYLOAD = {
        "benchmark": "collapsed Gibbs sweep, reference vs fast kernels",
        "git_describe": "test-stamp",
        "machine": {"cpu_count": 1},
        "cases": [
            {
                "name": "smoke",
                "reference_seconds_per_sweep": 0.03,
                "fast_seconds_per_sweep": 0.01,
                "speedup": 3.0,
                "draws_match": True,
                "peak_rss_mb": 80.0,
            },
        ],
    }

    DIAGNOSTICS_PAYLOAD = {
        "benchmark": "quality-streaming diagnostics overhead per Gibbs sweep",
        "git_describe": "test-stamp",
        "machine": {"cpu_count": 1},
        "cases": [
            {
                "name": "smoke",
                "stride": 10,
                "off_seconds_per_sweep": 0.01,
                "on_seconds_per_sweep": 0.0102,
                "overhead_fraction": 0.02,
                "draws_match": True,
                "peak_rss_mb": 80.0,
            },
        ],
    }

    @pytest.fixture()
    def fake_bench(self, monkeypatch):
        """Make both `cold bench` suites write their canned payload instantly.

        The gibbs payload is mutable through the returned ``payload`` key.
        """
        import copy
        import json as json_module
        import pathlib

        state = {"payload": copy.deepcopy(self.PAYLOAD)}

        def writer(source):
            def fake_write(path, **kwargs):
                payload = copy.deepcopy(source())
                pathlib.Path(path).write_text(json_module.dumps(payload))
                return payload

            return fake_write

        monkeypatch.setattr(
            "repro.perf.write_benchmark", writer(lambda: state["payload"])
        )
        monkeypatch.setattr(
            "repro.perf.write_diagnostics_benchmark",
            writer(lambda: self.DIAGNOSTICS_PAYLOAD),
        )
        return state

    def test_unchanged_rerun_passes_strict(self, tmp_path, capsys, fake_bench):
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        base = ["bench", str(out_path), "--history", str(history)]
        assert main(base) == 0
        assert main(base + ["--compare", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out
        assert history.exists()

    def test_injected_regression_fails_strict(
        self, tmp_path, capsys, fake_bench
    ):
        out_path = tmp_path / "bench.json"
        args = [
            "bench", str(out_path), "--no-history", "--compare", "--strict",
        ]
        assert main(args) == 0  # no baseline yet: nothing to compare
        fake_bench["payload"]["cases"][0]["fast_seconds_per_sweep"] = 0.02
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "regression" in captured.err

    def test_ledger_appends_and_no_history_skips(
        self, tmp_path, capsys, fake_bench
    ):
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        assert main(["bench", str(out_path), "--history", str(history)]) == 0
        assert main(["bench", str(out_path), "--history", str(history)]) == 0
        from repro.perf import read_history

        assert len(read_history(history)) == 2
        assert (
            main(["bench", str(out_path), "--no-history",
                  "--history", str(history)])
            == 0
        )
        assert len(read_history(history)) == 2

    def test_baseline_ledger_spec(self, tmp_path, capsys, fake_bench):
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        assert main(["bench", str(out_path), "--history", str(history)]) == 0
        fake_bench["payload"]["cases"][0]["fast_seconds_per_sweep"] = 0.02
        code = main(
            [
                "bench", str(out_path), "--history", str(history),
                "--compare", "--strict", "--baseline", str(history),
            ]
        )
        assert code == 1

    def test_ledger_baseline_is_read_per_suite(
        self, tmp_path, capsys, fake_bench
    ):
        # A shared ledger whose last record is a gibbs run must not serve
        # as the baseline of a diagnostics run: only one metric
        # (peak_rss_mb) overlaps, so the suite's own timings would go
        # unjudged.
        history = tmp_path / "history.jsonl"
        diagnostics = [
            "bench", str(tmp_path / "diagnostics.json"), "--diagnostics",
            "--cases", "smoke", "--history", str(history),
        ]
        assert main(diagnostics) == 0
        assert main(
            ["bench", str(tmp_path / "gibbs.json"), "--history", str(history)]
        ) == 0
        capsys.readouterr()
        assert main(diagnostics + ["--compare", "--baseline", str(history)]) == 0
        out = capsys.readouterr().out
        assert "smoke.on_seconds_per_sweep" in out
        assert "smoke.off_seconds_per_sweep" in out
        assert "smoke.fast_seconds_per_sweep" not in out


class TestRetiredBenchFlags:
    """The parallel-scaling and streaming suites left ``cold bench``.

    Their timings live in the end-to-end harness (``fit-procs2``,
    ``stream``) and their gates in ``benchmarks/perf``; the flags that
    selected them are unknown to argparse now, not silently ignored.
    """

    RETIRED = [
        ["--parallel"],
        ["--packed-large"],
        ["--streaming"],
        ["--updates", "5"],
        ["--bootstrap-fraction", "0.6"],
        ["--nodes", "1", "2"],
        ["--executor", "processes"],
        ["--workers", "2"],
        # Diagnostics settings with one value in use, now constants.
        ["--stride", "10"],
        ["--sweeps", "20"],
        ["--equivalence-sweeps", "2"],
    ]

    @pytest.mark.parametrize("flag", RETIRED, ids=lambda flag: flag[0])
    def test_retired_flag_exits_2(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path / "bench.json"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()
