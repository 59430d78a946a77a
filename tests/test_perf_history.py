"""Tests for the benchmark regression ledger and comparison machinery.

Pure-data coverage of :mod:`repro.perf`'s observability additions:
environment stamping, metric flattening/classification, per-metric
verdicts (including the injected-2x-regression acceptance case),
baseline resolution from snapshots, ledgers, and git refs, and the
profile harness record shape on the smoke case.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.perf import (
    SMOKE,
    append_history,
    comparable_metrics,
    compare_benchmarks,
    comparison_regressed,
    environment_stamp,
    machine_fingerprint,
    metric_direction,
    read_history,
    render_comparison,
    resolve_baseline,
    run_diagnostics_overhead_case,
    run_profile_case,
    run_profiler_overhead_case,
    run_telemetry_overhead_case,
)

PAYLOAD = {
    "benchmark": "unit",
    "cases": [
        {
            "name": "smoke",
            "fast_seconds_per_sweep": 0.010,
            "reference_seconds_per_sweep": 0.030,
            "speedup": 3.0,
            "peak_rss_mb": 80.0,
            "draws_match": True,  # non-numeric: never a metric
            "num_posts": 420,  # unclassified: never a metric
        },
        {
            "name": "medium",
            "fast_seconds_per_sweep": 0.200,
            "speedup": 4.0,
            "peak_rss_mb": 150.0,
        },
    ],
}


class TestEnvironmentStamp:
    def test_fingerprint_keys(self):
        fingerprint = machine_fingerprint()
        assert set(fingerprint) == {
            "cpu_count", "cpu_model", "platform", "python", "numpy",
        }
        assert fingerprint["cpu_count"] >= 1

    def test_stamp_carries_git_and_machine(self):
        stamp = environment_stamp()
        assert stamp["python"] and stamp["numpy"]
        assert "git_describe" in stamp
        assert stamp["machine"] == machine_fingerprint()

    def test_stamp_is_json_serialisable(self):
        json.dumps(environment_stamp())

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_dirty_tree_stamps_its_content(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(
                ["git", *args], cwd=tmp_path, check=True, capture_output=True
            )

        git("init", "-q")
        git("config", "user.name", "bench")
        git("config", "user.email", "bench@example.com")
        tracked = tmp_path / "code.py"
        tracked.write_text("x = 1\n")
        git("add", "code.py")
        git("commit", "-q", "-m", "initial")
        monkeypatch.chdir(tmp_path)
        assert "git_worktree" not in environment_stamp()

        tracked.write_text("x = 2\n")
        dirty = environment_stamp()
        assert dirty["git_describe"].endswith("-dirty")
        assert re.fullmatch(r"[0-9a-f]{40}", dirty["git_worktree"])
        # The same content keeps its id; other content gets another.
        assert environment_stamp()["git_worktree"] == dirty["git_worktree"]
        tracked.write_text("x = 3\n")
        assert environment_stamp()["git_worktree"] != dirty["git_worktree"]
        # Stamping moved no ref: the tree is still dirty, no stash listed.
        listed = subprocess.run(
            ["git", "stash", "list"], cwd=tmp_path, capture_output=True, text=True
        )
        assert listed.stdout == ""


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("fast_seconds_per_sweep", "lower"),
            ("p99_ms", "lower"),
            ("peak_rss_mb", "lower"),
            ("overhead_fraction", "lower"),
            ("speedup", "higher"),
            ("qps", "higher"),
            ("events_per_second", "higher"),  # higher-better wins ties
            ("num_posts", None),
            ("draws_match", None),
        ],
    )
    def test_classification(self, name, expected):
        assert metric_direction(name) == expected


class TestComparableMetrics:
    def test_flattens_cases_by_name(self):
        metrics = comparable_metrics(PAYLOAD)
        assert metrics["smoke.fast_seconds_per_sweep"] == 0.010
        assert metrics["medium.speedup"] == 4.0
        assert "smoke.draws_match" not in metrics
        assert "smoke.num_posts" not in metrics

    def test_real_snapshot_produces_metrics(self):
        snapshot = Path(__file__).resolve().parent.parent / "BENCH_gibbs.json"
        if not snapshot.exists():
            pytest.skip("no committed gibbs snapshot")
        metrics = comparable_metrics(
            json.loads(snapshot.read_text(encoding="utf-8"))
        )
        assert any(key.endswith("fast_seconds_per_sweep") for key in metrics)


class TestCompare:
    def test_identical_payloads_all_ok(self):
        verdicts = compare_benchmarks(PAYLOAD, PAYLOAD)
        assert verdicts
        assert all(row["verdict"] == "ok" for row in verdicts)
        assert not comparison_regressed(verdicts)

    def test_injected_2x_slowdown_regresses(self):
        slowed = copy.deepcopy(PAYLOAD)
        slowed["cases"][0]["fast_seconds_per_sweep"] *= 2
        verdicts = compare_benchmarks(slowed, PAYLOAD)
        by_metric = {row["metric"]: row for row in verdicts}
        assert by_metric["smoke.fast_seconds_per_sweep"]["verdict"] == "regressed"
        assert by_metric["smoke.speedup"]["verdict"] == "ok"
        assert comparison_regressed(verdicts)

    def test_higher_better_direction(self):
        faster = copy.deepcopy(PAYLOAD)
        faster["cases"][0]["speedup"] = 6.0
        verdicts = compare_benchmarks(faster, PAYLOAD)
        by_metric = {row["metric"]: row for row in verdicts}
        assert by_metric["smoke.speedup"]["verdict"] == "improved"
        slower = copy.deepcopy(PAYLOAD)
        slower["cases"][0]["speedup"] = 1.0
        verdicts = compare_benchmarks(slower, PAYLOAD)
        assert comparison_regressed(verdicts)

    def test_threshold_is_respected(self):
        slowed = copy.deepcopy(PAYLOAD)
        slowed["cases"][0]["fast_seconds_per_sweep"] *= 1.15
        assert comparison_regressed(compare_benchmarks(slowed, PAYLOAD))
        assert not comparison_regressed(
            compare_benchmarks(slowed, PAYLOAD, threshold=0.25)
        )

    def test_render_lists_counts(self):
        slowed = copy.deepcopy(PAYLOAD)
        slowed["cases"][0]["fast_seconds_per_sweep"] *= 2
        text = render_comparison(compare_benchmarks(slowed, PAYLOAD))
        assert "regressed" in text
        assert "1 regressed" in text
        assert render_comparison([]) == "no overlapping metrics to compare"


class TestLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        record = append_history({**PAYLOAD, **environment_stamp()}, path)
        assert record["metrics"] == comparable_metrics(PAYLOAD)
        back = read_history(path)
        assert len(back) == 1
        assert back[0]["benchmark"] == "unit"
        assert back[0]["machine"] == machine_fingerprint()
        assert read_history(path, benchmark="other") == []

    def test_ledger_record_usable_as_baseline(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(PAYLOAD, path)
        slowed = copy.deepcopy(PAYLOAD)
        slowed["cases"][0]["fast_seconds_per_sweep"] *= 2
        baseline = read_history(path)[-1]
        assert comparison_regressed(compare_benchmarks(slowed, baseline))

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []


class TestResolveBaseline:
    def test_none_reads_snapshot(self, tmp_path):
        snapshot = tmp_path / "BENCH.json"
        snapshot.write_text(json.dumps(PAYLOAD), encoding="utf-8")
        assert resolve_baseline(None, snapshot) == PAYLOAD

    def test_none_with_missing_snapshot(self, tmp_path):
        assert resolve_baseline(None, tmp_path / "absent.json") is None

    def test_explicit_json_file(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(PAYLOAD), encoding="utf-8")
        assert resolve_baseline(str(other), tmp_path / "x.json") == PAYLOAD

    def test_ledger_file_takes_last_record(self, tmp_path):
        ledger = tmp_path / "history.jsonl"
        append_history(PAYLOAD, ledger)
        second = copy.deepcopy(PAYLOAD)
        second["cases"][0]["speedup"] = 9.0
        append_history(second, ledger)
        baseline = resolve_baseline(str(ledger), tmp_path / "x.json")
        assert baseline["metrics"]["smoke.speedup"] == 9.0

    def test_git_ref_reads_committed_snapshot(self):
        root = Path(__file__).resolve().parent.parent
        tracked = (
            subprocess.run(
                ["git", "ls-files", "BENCH_gibbs.json"],
                capture_output=True,
                text=True,
                cwd=root,
            ).stdout.strip()
        )
        if not tracked:
            pytest.skip("BENCH_gibbs.json not tracked")
        baseline = resolve_baseline("HEAD", root / "BENCH_gibbs.json")
        assert baseline is not None
        assert "cases" in baseline

    def test_unresolvable_ref_is_none(self, tmp_path):
        assert (
            resolve_baseline("no-such-ref-xyz", tmp_path / "x.json") is None
        )


class TestProfileHarness:
    def test_smoke_serial_record(self):
        record = run_profile_case(SMOKE, sweeps=2, warmup=1)
        assert record["name"] == "smoke"
        assert record["executor"] == "serial"
        assert 0 < record["attributed_fraction"] <= 1.05
        assert record["phases"]
        assert record["collapsed"]
        assert "git_describe" in record
        assert "machine" in record

    def test_smoke_overhead_record(self):
        # Every overhead suite runs on SMOKE, each record keeping the key
        # set its ledger rows were written with, so comparisons against
        # older runs stay valid.
        common = {
            "name", "config", "sweeps", "reps", "off_seconds_per_sweep",
            "on_seconds_per_sweep", "overhead_fraction", "draws_match",
            "peak_rss_mb",
        }
        suites = (
            (run_telemetry_overhead_case, {}, set()),
            (run_profiler_overhead_case, {}, set()),
            (
                run_diagnostics_overhead_case,
                {"stride": 1},
                {"stride", "index_build_seconds"},
            ),
        )
        for run, kwargs, extra in suites:
            record = run(SMOKE, sweeps=2, reps=1, equivalence_sweeps=2, **kwargs)
            assert set(record) == common | extra, run.__name__
            assert record["draws_match"] is True, run.__name__
            assert record["off_seconds_per_sweep"] > 0
            assert record["on_seconds_per_sweep"] > 0
