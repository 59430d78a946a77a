"""Opt-in perf gate: parallel sampling must scale on the medium case.

Run with ``pytest benchmarks/perf -m perf``.  Excluded from the default
suite (``-m 'not perf'`` in pyproject) because the medium case costs
minutes of wall time and asserts on machine-dependent timings.

Per node count, the statistic is the best per-sweep simulated-cluster
time (slowest node + merge, the Fig. 13/14 metric) over a short
``processes`` fit, with node seconds self-reported by the worker
processes as CPU time — so the scaling holds even on hosts with fewer
cores than workers.  This is a modelled metric; the end-to-end harness
(``benchmarks/e2e``, workload ``fit-procs2``) times the same executor as
wall time.  Executor equivalence is asserted alongside: a speedup over
an executor that draws a different chain than the sequential
``simulated`` oracle would be meaningless.
"""

from __future__ import annotations

import pytest

from repro.parallel.sampler import ParallelCOLDSampler
from repro.perf import MEDIUM, _states_identical

pytestmark = pytest.mark.perf


def _fit(corpus, num_nodes: int, executor: str, seed: int, sweeps: int):
    return ParallelCOLDSampler(
        num_communities=MEDIUM.num_communities,
        num_topics=MEDIUM.num_topics,
        num_nodes=num_nodes,
        executor=executor,
        seed=seed,
        fast=True,
    ).fit(corpus, num_iterations=sweeps)


def test_medium_case_scaling_and_exactness():
    corpus = MEDIUM.build_corpus()
    cluster_seconds = {}
    for nodes in (1, 4):
        report = _fit(corpus, nodes, "processes", MEDIUM.seed, 5).report_
        cluster_seconds[nodes] = min(
            step.cluster_seconds for step in report.supersteps
        )
    oracle, candidate = (
        _fit(corpus, 4, executor, MEDIUM.seed + 1, 2).state_
        for executor in ("simulated", "processes")
    )
    assert _states_identical(oracle, candidate), (
        "processes executor diverged from the simulated oracle"
    )
    speedup = round(cluster_seconds[1] / cluster_seconds[4], 2)
    print(f"4-node cluster-time speedup {speedup:.2f}x {cluster_seconds}")
    assert speedup >= 2.5, (
        f"4-node processes fit only {speedup:.2f}x over 1 node "
        f"({cluster_seconds[1]:.4f}s -> {cluster_seconds[4]:.4f}s per sweep)"
    )
