"""Smoke coverage for the benchmark harness (:mod:`repro.perf`).

Runs the SMOKE case at minimal settings so the harness itself — corpus
construction, both kernel paths, the equivalence replay, occupancy
reporting, JSON serialisation — is exercised on every test run.  Timing
*ratios* are asserted only in the opt-in perf gate
(``benchmarks/perf/``); here we require only that both paths ran and the
draws matched.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from repro.perf import (
    MEDIUM,
    SMOKE,
    _overhead_case,
    packed_scale_config,
    run_benchmark,
    run_case,
    write_benchmark,
)


class TestRunCase:
    def test_smoke_case_record(self):
        record = run_case(SMOKE, warmup=1, reps=1, sweeps_per_rep=1,
                          equivalence_sweeps=2)
        assert record["name"] == "smoke"
        assert record["draws_match"] is True
        assert record["reference_seconds_per_sweep"] > 0
        assert record["fast_seconds_per_sweep"] > 0
        assert record["speedup"] > 0
        assert record["corpus"]["num_posts"] > 0
        assert record["corpus"]["num_links"] > 0

    def test_occupancy_summary_is_consistent(self):
        record = run_case(SMOKE, warmup=1, reps=1, sweeps_per_rep=1,
                          equivalence_sweeps=1)
        occupancy = record["occupancy"]
        assert occupancy["total_cells"] == (
            SMOKE.num_communities * SMOKE.num_topics
        )
        assert 0 < occupancy["active_cells"] <= occupancy["total_cells"]
        counts = [n for _c, _k, n in occupancy["top_cells"]]
        assert counts == sorted(counts, reverse=True)

    def test_every_case_record_carries_peak_rss(self):
        record = run_case(SMOKE, warmup=1, reps=1, sweeps_per_rep=1,
                          equivalence_sweeps=1)
        assert record["peak_rss_mb"] > 0

    def test_medium_case_dimensions_meet_floors(self):
        # The acceptance floors for the headline benchmark config.
        assert MEDIUM.num_users >= 500
        assert MEDIUM.num_topics >= 20


class TestWriteBenchmark:
    def test_writes_valid_json(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = write_benchmark(
            path, cases=(SMOKE,), warmup=1, reps=1, sweeps_per_rep=1
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["cases"][0]["name"] == "smoke"
        assert on_disk["method"]["reps"] == 1

    def test_payload_records_environment(self):
        payload = run_benchmark(cases=(SMOKE,), warmup=1, reps=1,
                                sweeps_per_rep=1)
        assert payload["python"]
        assert payload["numpy"]
        assert payload["harness"] == "repro.perf"


@contextmanager
def _noop_arm(on, run_dir, make_model):
    yield make_model(), {}


@contextmanager
def _extra_draw_arm(on, run_dir, make_model):
    model = make_model()
    if on:
        model._rng.random()  # one draw the dark side never takes
    yield model, {}


class TestChainCheck:
    """``draws_match`` can read False: the overhead runner's chain check
    compares the two sides' draws, not just that both fits ran."""

    def _record(self, arm):
        return _overhead_case(
            SMOKE, SMOKE.build_corpus(), arm, min,
            sweeps=2, reps=1, equivalence_sweeps=2,
        )

    def test_extra_rng_draw_breaks_the_match(self):
        assert self._record(_extra_draw_arm)["draws_match"] is False

    def test_noop_arm_matches(self):
        assert self._record(_noop_arm)["draws_match"] is True


class TestPackedScaleConfig:
    def test_only_users_vary_across_scale_points(self):
        small = packed_scale_config(1_000)
        large = packed_scale_config(100_000)
        assert small.num_users == 1_000
        assert large.num_users == 100_000
        small_rest = {
            k: v for k, v in vars(small).items() if k != "num_users"
        }
        large_rest = {
            k: v for k, v in vars(large).items() if k != "num_users"
        }
        assert small_rest == large_rest
