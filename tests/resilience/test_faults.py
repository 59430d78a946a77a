"""Fault injection and superstep replay in the parallel engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastgibbs import SweepCache
from repro.parallel.engine import EngineError, SimulatedCluster
from repro.parallel.sampler import ParallelCOLDSampler
from repro.resilience.faults import (
    FaultError,
    FaultPlan,
    MergeFailure,
    NodeCrash,
    StragglerDelay,
)
from repro.resilience.retry import RetryError, RetryPolicy


def _sampler(plan=None, retry=None, node_timeout=None, num_nodes=3, seed=0):
    return ParallelCOLDSampler(
        num_communities=3,
        num_topics=4,
        num_nodes=num_nodes,
        prior="scaled",
        seed=seed,
        fault_plan=plan,
        retry=retry or RetryPolicy(max_attempts=3),
        node_timeout=node_timeout,
    )


class TestFaultPlan:
    def test_crash_fires_for_times_attempts(self):
        plan = FaultPlan(crashes=(NodeCrash(superstep=1, node=0, times=2),))
        assert plan.crash_for(1, 0, 0) is not None
        assert plan.crash_for(1, 0, 1) is not None
        assert plan.crash_for(1, 0, 2) is None
        assert plan.crash_for(1, 1, 0) is None
        assert plan.crash_for(2, 0, 0) is None

    def test_straggler_delay_accumulates(self):
        plan = FaultPlan(
            stragglers=(
                StragglerDelay(superstep=1, node=0, seconds=0.5),
                StragglerDelay(superstep=1, node=0, seconds=0.25),
            )
        )
        assert plan.straggler_delay(1, 0, 0) == 0.75
        assert plan.straggler_delay(1, 0, 1) == 0.0

    def test_merge_failure_schedule(self):
        plan = FaultPlan(merge_failures=(MergeFailure(superstep=2, times=1),))
        assert plan.merge_fails(2, 0)
        assert not plan.merge_fails(2, 1)
        assert not plan.merge_fails(1, 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="progress"):
            NodeCrash(superstep=0, node=0, progress=1.5)
        with pytest.raises(ValueError, match="times"):
            NodeCrash(superstep=0, node=0, times=0)
        with pytest.raises(ValueError, match="seconds"):
            StragglerDelay(superstep=0, node=0, seconds=-1.0)

    def test_injection_tally(self):
        plan = FaultPlan(crashes=(NodeCrash(superstep=1, node=0),))
        plan.crash_for(1, 0, 0)
        assert plan.injected_crashes == 1
        assert plan.total_injected == 1


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3
        )
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestEngineRecovery:
    def test_crashing_task_is_replayed_after_reset(self):
        calls = {"task": 0, "reset": 0}

        def task():
            calls["task"] += 1
            if calls["task"] == 1:
                raise FaultError("boom")

        cluster = SimulatedCluster(num_nodes=1, retry=RetryPolicy(max_attempts=3))
        report = cluster.superstep(
            [task], reset=lambda node: calls.__setitem__("reset", calls["reset"] + 1)
        )
        assert calls == {"task": 2, "reset": 1}
        assert report.node_timings[0].attempts == 2
        assert report.retries == 1

    def test_exhausted_retries_raise(self):
        def task():
            raise FaultError("always")

        cluster = SimulatedCluster(num_nodes=1, retry=RetryPolicy(max_attempts=2))
        with pytest.raises(RetryError, match="after 2 attempts"):
            cluster.superstep([task], reset=lambda node: None)

    def test_failure_without_reset_hook_is_an_error(self):
        def task():
            raise FaultError("boom")

        cluster = SimulatedCluster(num_nodes=1, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(EngineError, match="reset"):
            cluster.superstep([task])

    def test_straggler_timeout_forces_replay(self):
        plan = FaultPlan(stragglers=(StragglerDelay(superstep=0, node=0, seconds=9.0),))
        cluster = SimulatedCluster(
            num_nodes=1, fault_plan=plan, node_timeout=1.0, retry=RetryPolicy(max_attempts=2)
        )
        report = cluster.superstep([lambda: None], reset=lambda node: None)
        assert report.node_timings[0].attempts == 2
        assert report.node_timings[0].retry_wait_seconds > 0

    def test_merge_failure_is_retried(self):
        plan = FaultPlan(merge_failures=(MergeFailure(superstep=0),))
        merges = []
        cluster = SimulatedCluster(num_nodes=1, fault_plan=plan, retry=RetryPolicy())
        report = cluster.superstep([lambda: None], merge=lambda: merges.append(1))
        assert merges == [1]
        assert report.merge_attempts == 2
        assert report.retries == 1

    def test_invalid_node_timeout_rejected(self):
        with pytest.raises(EngineError, match="node_timeout"):
            SimulatedCluster(num_nodes=1, node_timeout=0.0)


class TestSamplerRecovery:
    def test_crash_and_straggler_in_same_run(self, tiny_corpus):
        plan = FaultPlan(
            crashes=(NodeCrash(superstep=2, node=1, progress=0.6),),
            stragglers=(StragglerDelay(superstep=3, node=0, seconds=5.0),),
        )
        sampler = _sampler(plan=plan, node_timeout=1.0)
        sampler.fit(tiny_corpus, num_iterations=5)
        # Completed despite the faults, recorded the retries, and every
        # recovered superstep left exact counters (verify_recovery runs
        # check_invariants after each recovery; run it again to be sure).
        sampler.state_.check_invariants()
        assert sampler.report_.total_retries == 2
        assert sampler.report_.supersteps[1].retries == 1  # crash at superstep 2
        assert sampler.report_.supersteps[2].retries == 1  # straggler timeout
        assert plan.injected_crashes == 1
        sampler.estimates_.validate()

    def test_mid_shard_crash_does_not_corrupt_merged_counters(self, tiny_corpus):
        plan = FaultPlan(
            crashes=(
                NodeCrash(superstep=1, node=0, progress=0.9),
                NodeCrash(superstep=3, node=2, progress=0.1, times=2),
            )
        )
        sampler = _sampler(plan=plan)
        sampler.fit(tiny_corpus, num_iterations=4)
        sampler.state_.check_invariants()
        assert sampler.report_.total_retries == 3

    def test_merge_failure_recovery(self, tiny_corpus):
        plan = FaultPlan(merge_failures=(MergeFailure(superstep=2),))
        sampler = _sampler(plan=plan)
        sampler.fit(tiny_corpus, num_iterations=3)
        sampler.state_.check_invariants()
        assert sampler.report_.supersteps[1].merge_attempts == 2

    def test_unrecoverable_crash_raises_retry_error(self, tiny_corpus):
        plan = FaultPlan(crashes=(NodeCrash(superstep=1, node=0, times=10),))
        sampler = _sampler(plan=plan, retry=RetryPolicy(max_attempts=2))
        with pytest.raises(RetryError, match="node 0"):
            sampler.fit(tiny_corpus, num_iterations=2)

    def test_faulted_run_matches_estimate_shapes(self, tiny_corpus):
        plan = FaultPlan(crashes=(NodeCrash(superstep=1, node=1),))
        sampler = _sampler(plan=plan)
        sampler.fit(tiny_corpus, num_iterations=3)
        clean = _sampler()
        clean.fit(tiny_corpus, num_iterations=3)
        assert sampler.estimates_.pi.shape == clean.estimates_.pi.shape
        assert clean.report_.total_retries == 0

    def test_degenerate_draw_tally_merged_across_nodes(self, tiny_corpus):
        sampler = _sampler()
        sampler.fit(tiny_corpus, num_iterations=3)
        assert sampler.state_.degenerate_draws >= 0
        assert sampler.monitor_.degenerate_draws == sampler.state_.degenerate_draws

    def test_fault_free_run_unchanged_by_recovery_machinery(self, tiny_corpus):
        # With no fault plan the sampler must produce exactly what the
        # pre-resilience engine produced (same seed, same draws).
        a = _sampler()
        a.fit(tiny_corpus, num_iterations=4)
        b = ParallelCOLDSampler(
            num_communities=3, num_topics=4, num_nodes=3, prior="scaled", seed=0
        )
        b.fit(tiny_corpus, num_iterations=4)
        assert np.array_equal(a.estimates_.theta, b.estimates_.theta)
        assert np.array_equal(a.estimates_.phi, b.estimates_.phi)


class TestNodeCacheRefresh:
    """Each node keeps one SweepCache for the fit and refreshes it on every
    attempt after the first, crash replays included."""

    @staticmethod
    def _plan() -> FaultPlan:
        return FaultPlan(
            crashes=(
                NodeCrash(superstep=2, node=1, progress=0.6),
                NodeCrash(superstep=3, node=0, progress=0.3, times=2),
            )
        )

    def test_crash_replay_refresh_matches_fresh_build(self, tiny_corpus, monkeypatch):
        refreshes = []
        original = SweepCache.refresh

        def refresh_and_check(cache, state):
            original(cache, state)
            cache.check_consistency(state)
            refreshes.append(cache)

        monkeypatch.setattr(SweepCache, "refresh", refresh_and_check)
        refreshed = _sampler(plan=self._plan()).fit(tiny_corpus, num_iterations=4)
        # Three nodes build once, then refresh on 3 x 3 later attempts and
        # on the 3 replays of crashed attempts.
        assert len(refreshes) == 12
        assert len({id(cache) for cache in refreshes}) == 3
        refreshed.state_.check_invariants()

        monkeypatch.setattr(
            SweepCache, "refresh", lambda cache, state: cache.__init__(state, cache.hp)
        )
        rebuilt = _sampler(plan=self._plan()).fit(tiny_corpus, num_iterations=4)
        for name in ("post_comm", "post_topic", "link_src_comm", "link_dst_comm"):
            np.testing.assert_array_equal(
                getattr(refreshed.state_, name), getattr(rebuilt.state_, name)
            )
