"""Parallel COLD inference on the simulated GAS engine (paper §4.3, Alg. 2).

Each superstep is one Gibbs sweep executed shard-by-shard:

1. **snapshot** — the global counters are frozen (GraphLab's gather/apply
   phases materialise exactly this per-vertex view);
2. **scatter** — every node resamples the posts and links on its shard with
   the serial kernels of :mod:`repro.core.gibbs`, against its private copy
   of the snapshot (assignments are shared: shards own disjoint posts/links);
3. **merge** — node counter deltas are summed into the new global state.

Because shards partition the posts and links exactly, the merged counters
equal a from-scratch recount of the new assignments; staleness only affects
*which* conditional each draw used, the standard approximate-parallel-Gibbs
trade-off (the GraphLab implementation shares it).

``executor="processes"`` runs the same superstep through a
:class:`~repro.parallel.worker.ProcessWorkerPool`: snapshot, corpus, and
assignment arrays live in shared memory, each node's sweep executes in a
real worker process, and the barrier merge sums per-node delta buffers in
fixed node order.  Per-node RNG streams stay parent-owned (shipped with
each dispatch, returned advanced), so a fault-free ``processes`` fit draws
the identical chain to ``simulated``/``threads`` at equal ``num_nodes``,
for any ``num_workers``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..core.estimates import ParameterEstimates, average_estimates, estimate_from_state
from ..core.fastgibbs import SweepCache
from ..core.gibbs import sweep
from ..core.likelihood import ConvergenceMonitor, joint_log_likelihood
from ..core.params import Hyperparameters
from ..core.state import CountState
from ..datasets.corpus import SocialCorpus
from ..resilience.faults import FaultError, FaultPlan
from ..resilience.retry import RetryPolicy
from ..telemetry import profiler as profiling
from ..telemetry.logconfig import get_logger
from ..telemetry.profiler import memory_gauges, worker_utilization
from ..telemetry.session import TelemetrySession
from .engine import ClusterReport, EngineError, SimulatedCluster
from .graph import ComputationGraph
from .partition import PartitionStats, Shard, partition_graph
# The counter fields snapshotted/merged each superstep and the shared
# assignment fields captured for replay are defined canonically in
# repro.parallel.worker, which shares them with the process executor.
from .worker import ASSIGNMENT_FIELDS as _ASSIGNMENT_FIELDS
from .worker import COUNTER_FIELDS as _COUNTER_FIELDS
from .worker import ProcessWorkerPool

_log = get_logger(__name__)


@dataclass
class _Snapshot:
    """Frozen pre-barrier state: counters, assignments, degeneracy tally."""

    arrays: dict[str, np.ndarray]
    assignments: dict[str, np.ndarray]
    degenerate_draws: int

    @classmethod
    def of(cls, state: CountState) -> "_Snapshot":
        return cls(
            arrays={name: getattr(state, name).copy() for name in _COUNTER_FIELDS},
            assignments={
                name: getattr(state, name).copy() for name in _ASSIGNMENT_FIELDS
            },
            degenerate_draws=state.degenerate_draws,
        )

    def local_state(self, state: CountState) -> CountState:
        """A node-private state: copied counters, shared data/assignments."""
        return replace(
            state, **{name: array.copy() for name, array in self.arrays.items()}
        )

    def restore_shard(self, state: CountState, shard: Shard) -> None:
        """Roll one shard's shared assignments back to the snapshot.

        Shards own disjoint posts/links, so this never touches slots that
        surviving nodes have already resampled this superstep.
        """
        posts = shard.post_ids
        if len(posts):
            state.post_comm[posts] = self.assignments["post_comm"][posts]
            state.post_topic[posts] = self.assignments["post_topic"][posts]
        links = shard.link_ids
        if len(links):
            state.link_src_comm[links] = self.assignments["link_src_comm"][links]
            state.link_dst_comm[links] = self.assignments["link_dst_comm"][links]

    def merge_into(self, state: CountState, locals_: list[CountState]) -> None:
        """``global = snapshot + sum_n (local_n - snapshot)`` per counter."""
        for name in _COUNTER_FIELDS:
            base = self.arrays[name]
            merged = base.copy()
            for local in locals_:
                merged += getattr(local, name) - base
            getattr(state, name)[...] = merged
        state.degenerate_draws = self.degenerate_draws + sum(
            local.degenerate_draws - self.degenerate_draws for local in locals_
        )


class ParallelCOLDSampler:
    """COLD inference over ``num_nodes`` simulated cluster nodes.

    Mirrors :class:`~repro.core.model.COLDModel`'s interface; after
    :meth:`fit`, ``estimates_`` holds the averaged parameter estimates and
    ``report_`` the per-superstep cluster timings that Figures 13–14 use.
    Arguments are keyword-only.  ``fast`` selects the native sweep
    kernel per node — it draws the reference kernels' chain, so a seeded
    parallel fit produces the same chain either way.

    ``executor`` picks how node work runs: ``"simulated"`` (sequential,
    deterministic timing), ``"threads"`` (thread pool; shards overlap only
    inside the native sweep, a ctypes call that releases the GIL), or
    ``"processes"`` (a shared-memory worker pool; true multi-core).  All
    three draw the identical chain for a given ``seed`` and ``num_nodes``.
    ``num_workers`` (``processes`` only) caps the worker processes;
    fewer workers than nodes multiplexes shards over the pool without
    changing the draws.
    """

    def __init__(
        self,
        *,
        num_communities: int = 20,
        num_topics: int = 20,
        num_nodes: int = 4,
        executor: str = "simulated",
        num_workers: int | None = None,
        hyperparameters: Hyperparameters | None = None,
        include_network: bool = True,
        kappa: float = 1.0,
        prior: str = "paper",
        seed: int = 0,
        fast: bool = True,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        node_timeout: float | None = None,
        verify_recovery: bool = True,
        metrics_out: str | Path | None = None,
        trace_out: str | Path | None = None,
    ) -> None:
        if num_communities <= 0 or num_topics <= 0:
            raise EngineError("num_communities and num_topics must be positive")
        if prior not in ("paper", "scaled"):
            raise EngineError(f"prior must be 'paper' or 'scaled', got {prior!r}")
        if num_workers is not None and num_workers <= 0:
            raise EngineError(f"num_workers must be positive, got {num_workers}")
        if num_workers is not None and executor != "processes":
            raise EngineError(
                "num_workers only applies to the 'processes' executor"
            )
        self.num_communities = num_communities
        self.num_topics = num_topics
        self.num_nodes = num_nodes
        self.executor = executor
        self.num_workers = num_workers
        self.hyperparameters = hyperparameters
        self.include_network = include_network
        self.kappa = kappa
        self.prior = prior
        self.seed = seed
        self.fast = fast
        self.fault_plan = fault_plan
        self.retry = retry
        self.node_timeout = node_timeout
        #: When true, run ``CountState.check_invariants()`` after every
        #: superstep that recovered from a fault — the replay guarantee.
        self.verify_recovery = verify_recovery
        #: Telemetry destinations (see :mod:`repro.telemetry`): a JSONL
        #: metrics stream and/or a Chrome trace_event file; ``None`` keeps
        #: the instrumentation a no-op.
        self.metrics_out = None if metrics_out is None else str(metrics_out)
        self.trace_out = None if trace_out is None else str(trace_out)
        self._telemetry = TelemetrySession()
        self.state_: CountState | None = None
        self.estimates_: ParameterEstimates | None = None
        self.report_: ClusterReport | None = None
        self.partition_stats_: PartitionStats | None = None
        self.monitor_: ConvergenceMonitor | None = None

    def fit(
        self,
        corpus: SocialCorpus,
        num_iterations: int = 100,
        burn_in: int | None = None,
        sample_interval: int = 5,
        likelihood_interval: int = 0,
    ) -> "ParallelCOLDSampler":
        """Run ``num_iterations`` parallel sweeps and store estimates."""
        if num_iterations <= 0:
            raise EngineError("num_iterations must be positive")
        if burn_in is None:
            burn_in = num_iterations // 2
        if not 0 <= burn_in < num_iterations:
            raise EngineError("burn_in must lie in [0, num_iterations)")

        hp = Hyperparameters.resolve(
            self.hyperparameters,
            self.num_communities,
            self.num_topics,
            corpus,
            include_network=self.include_network,
            prior=self.prior,
            kappa=self.kappa,
        )
        seed_seq = np.random.SeedSequence(self.seed)
        init_rng = np.random.default_rng(seed_seq.spawn(1)[0])
        state = CountState.initialize(
            corpus,
            self.num_communities,
            self.num_topics,
            init_rng,
            include_network=self.include_network,
        )

        graph = ComputationGraph.from_corpus(corpus)
        if not self.include_network:
            graph.num_links = 0
        shards, stats = partition_graph(graph, self.num_nodes)
        cluster = SimulatedCluster(
            num_nodes=self.num_nodes,
            executor=self.executor,
            fault_plan=self.fault_plan,
            retry=self.retry,
            node_timeout=self.node_timeout,
        )
        node_rngs = [
            np.random.default_rng(child) for child in seed_seq.spawn(self.num_nodes)
        ]
        # One SweepCache per node for the whole fit (in-process executors).
        node_caches: list[SweepCache | None] = [None] * self.num_nodes

        telemetry = TelemetrySession(
            metrics_path=self.metrics_out, trace_path=self.trace_out
        )
        self._telemetry = telemetry
        telemetry.begin(
            config={
                "num_communities": self.num_communities,
                "num_topics": self.num_topics,
                "include_network": self.include_network,
                "kappa": self.kappa,
                "prior": self.prior,
                "fast": self.fast,
                "num_iterations": num_iterations,
                "burn_in": burn_in,
                "sample_interval": sample_interval,
                "likelihood_interval": likelihood_interval,
            },
            seed=self.seed,
            executor=self.executor,
            num_nodes=self.num_nodes,
            num_workers=self.num_workers,
            num_iterations=num_iterations,
        )

        pool: ProcessWorkerPool | None = None
        monitor = ConvergenceMonitor()
        if telemetry.enabled:
            monitor.attach(
                telemetry.likelihood_sink(int(state.posts.lengths.sum()))
            )
            _log.info(
                "parallel fit: %d node(s), executor=%s, %d sweep(s)",
                self.num_nodes,
                self.executor,
                num_iterations,
            )
        samples: list[ParameterEstimates] = []
        supersteps = []
        try:
            with telemetry:
                if self.executor == "processes":
                    # A packed corpus carries the path of its mmap-backed
                    # file; workers re-open it read-only instead of having
                    # the post/link columns copied into shared memory.
                    packed_path = getattr(corpus, "packed_path", None)
                    pool = ProcessWorkerPool(
                        state,
                        hp,
                        shards,
                        fast=self.fast,
                        num_workers=self.num_workers,
                        telemetry=telemetry,
                        packed_path=packed_path,
                    )
                for iteration in range(1, num_iterations + 1):
                    sweep_start = time.perf_counter()
                    report, churn = self._superstep(
                        state, hp, shards, cluster, node_rngs, node_caches,
                        iteration, pool,
                    )
                    sweep_wall = time.perf_counter() - sweep_start
                    prof = profiling.get_profiler()
                    if prof is not None:
                        # Parent-side phase attribution of the superstep:
                        # the dispatch window splits into the slowest
                        # node's compute and the synchronisation overhead
                        # beyond it (the engine's barrier reading), so the
                        # leaves sum to the superstep wall alongside
                        # snapshot + merge.
                        prof.add(("dispatch",), report.dispatch_wall_seconds)
                        prof.add(
                            ("dispatch", "compute"),
                            report.dispatch_wall_seconds
                            - report.barrier_seconds,
                        )
                        if report.barrier_seconds:
                            prof.add(
                                ("dispatch", "barrier"), report.barrier_seconds
                            )
                        prof.add(("merge",), report.merge_seconds)
                    supersteps.append(report)
                    if self.verify_recovery and report.retries:
                        # The superstep replayed at least one node (or re-ran
                        # the merge); prove the recovery corrupted nothing.
                        state.check_invariants()
                    likelihood = None
                    if (
                        likelihood_interval
                        and iteration % likelihood_interval == 0
                    ):
                        likelihood = joint_log_likelihood(state, hp)
                        monitor.record(likelihood)
                    if (
                        iteration > burn_in
                        and (iteration - burn_in) % sample_interval == 0
                    ):
                        samples.append(estimate_from_state(state, hp))
                    if telemetry.enabled:
                        self._record_superstep(
                            telemetry,
                            state,
                            iteration,
                            num_iterations,
                            report,
                            sweep_wall,
                            churn,
                            likelihood,
                        )
                telemetry.end(sweeps=num_iterations)
        finally:
            if pool is not None:
                pool.close()
            telemetry.close()
            self._telemetry = TelemetrySession()

        if not samples:
            samples.append(estimate_from_state(state, hp))
        monitor.degenerate_draws = state.degenerate_draws
        self.state_ = state
        self.estimates_ = average_estimates(samples)
        self.report_ = ClusterReport(supersteps=supersteps)
        self.partition_stats_ = stats
        self.monitor_ = monitor
        self.hyperparameters = hp
        return self

    def _superstep(
        self,
        state: CountState,
        hp: Hyperparameters,
        shards: list[Shard],
        cluster: SimulatedCluster,
        node_rngs: list[np.random.Generator],
        node_caches: list[SweepCache | None],
        iteration: int,
        pool: ProcessWorkerPool | None = None,
    ):
        if pool is not None:
            return self._process_superstep(
                state, shards, cluster, node_rngs, iteration, pool
            )
        with profiling.phase("snapshot"):
            snapshot = _Snapshot.of(state)
            locals_ = [snapshot.local_state(state) for _ in shards]
        attempt_counters = [0] * len(shards)
        plan = cluster.fault_plan

        def make_task(node: int):
            shard = shards[node]
            rng = node_rngs[node]

            def task() -> None:
                attempt = attempt_counters[node]
                attempt_counters[node] += 1
                local = locals_[node]  # re-read: reset() swaps in a fresh copy
                # The cache is derived entirely from the local snapshot, and
                # refresh is bit-identical to a fresh build, so refreshing
                # the node's cache per attempt keeps crash replays exact
                # while its log tables are built once per fit.
                cache = node_caches[node]
                if cache is not None:
                    cache.refresh(local)
                elif self.fast:
                    cache = node_caches[node] = SweepCache(local, hp)
                crash = (
                    plan.crash_for(iteration, node, attempt)
                    if plan is not None
                    else None
                )
                if crash is not None:
                    # Die mid-shard: do a fraction of the work (corrupting
                    # local counters and this shard's shared assignment
                    # slots), then fail.  The engine rolls it back via
                    # reset() and replays the full shard.
                    done = int(len(shard.post_ids) * crash.progress)
                    sweep(
                        local,
                        hp,
                        rng,
                        post_order=shard.post_ids[:done],
                        link_order=shard.link_ids[:0],
                        cache=cache,
                    )
                    raise FaultError(
                        f"injected crash of node {node} at superstep "
                        f"{iteration} ({done}/{len(shard.post_ids)} posts done)"
                    )
                sweep(
                    local,
                    hp,
                    rng,
                    post_order=shard.post_ids,
                    link_order=shard.link_ids,
                    cache=cache,
                )

            return task

        def reset(node: int) -> None:
            locals_[node] = snapshot.local_state(state)
            snapshot.restore_shard(state, shards[node])

        tasks = [make_task(n) for n in range(len(shards))]
        report = cluster.superstep(
            tasks,
            merge=lambda: snapshot.merge_into(state, locals_),
            reset=reset,
            superstep_index=iteration,
        )
        return report, self._compute_churn(state, snapshot)

    def _process_superstep(
        self,
        state: CountState,
        shards: list[Shard],
        cluster: SimulatedCluster,
        node_rngs: list[np.random.Generator],
        iteration: int,
        pool: ProcessWorkerPool,
    ):
        """One superstep through the shared-memory worker pool.

        Same structure as the in-process path — snapshot, scatter, merge —
        but the shard sweeps execute in worker processes against the
        shared snapshot, and the merge sums the preallocated per-node
        delta buffers.  RNG streams stay parent-owned: each dispatch
        ships the node's generator state and stores the advanced state
        from the reply, so draws match the ``simulated`` executor exactly
        in fault-free supersteps.  An injected crash becomes real worker
        death (the pool raises :class:`~repro.parallel.worker.WorkerCrashError`,
        a ``FaultError``), and the engine's reset/replay path restores
        the shard's shared assignment slots from the snapshot; the dead
        worker's consumed draws are lost, so the replay restarts from the
        pre-attempt RNG state.
        """
        with profiling.phase("snapshot"):
            snapshot = _Snapshot.of(state)
            pool.begin_superstep(state)
        plan = cluster.fault_plan
        attempt_counters = [0] * len(shards)
        node_degenerates = [0] * len(shards)

        def make_task(node: int):
            rng = node_rngs[node]

            def task() -> float:
                attempt = attempt_counters[node]
                attempt_counters[node] += 1
                crash = (
                    plan.crash_for(iteration, node, attempt)
                    if plan is not None
                    else None
                )
                result = pool.run_shard(
                    node,
                    rng.bit_generator.state,
                    crash_progress=None if crash is None else crash.progress,
                )
                rng.bit_generator.state = result["rng_state"]
                node_degenerates[node] = result["degenerate_draws"]
                return result["seconds"]

            return task

        def reset(node: int) -> None:
            snapshot.restore_shard(state, shards[node])

        tasks = [make_task(n) for n in range(len(shards))]
        report = cluster.superstep(
            tasks,
            merge=lambda: pool.merge_into(
                state, snapshot.degenerate_draws, node_degenerates
            ),
            reset=reset,
            superstep_index=iteration,
        )
        return report, self._compute_churn(state, snapshot)

    def _compute_churn(self, state: CountState, snapshot: _Snapshot):
        """Post-merge assignment churn vs the superstep's snapshot.

        The snapshot already copies every assignment array (the replay
        path needs them), so churn costs only the comparisons — and only
        when telemetry is on.
        """
        if not self._telemetry.enabled:
            return None
        before = snapshot.assignments
        churn = {
            "post_comm": int(
                np.count_nonzero(state.post_comm != before["post_comm"])
            ),
            "post_topic": int(
                np.count_nonzero(state.post_topic != before["post_topic"])
            ),
        }
        if state.num_links:
            churn["link"] = int(
                np.count_nonzero(
                    (state.link_src_comm != before["link_src_comm"])
                    | (state.link_dst_comm != before["link_dst_comm"])
                )
            )
        return churn

    def _record_superstep(
        self,
        telemetry: TelemetrySession,
        state: CountState,
        iteration: int,
        num_iterations: int,
        report,
        sweep_wall: float,
        churn,
        likelihood: float | None,
    ) -> None:
        """Feed the registry and emit one ``kind="sweep"`` JSONL record."""
        metrics = telemetry.metrics
        draws = state.num_posts + state.num_links
        metrics.counter("supersteps_total").inc()
        metrics.counter("gibbs_draws_total").inc(draws)
        retries = sum(t.retries for t in report.node_timings)
        if retries:
            metrics.counter("node_replays_total").inc(retries)
        if report.merge_attempts > 1:
            metrics.counter("merge_retries_total").inc(report.merge_attempts - 1)
        metrics.histogram("sweep_seconds").observe(sweep_wall)
        metrics.histogram("merge_seconds").observe(report.merge_seconds)
        node_hist = metrics.histogram("node_compute_seconds")
        for timing in report.node_timings:
            node_hist.observe(timing.compute_seconds)
        if report.barrier_seconds:
            metrics.histogram("barrier_seconds").observe(report.barrier_seconds)
        metrics.gauge("sweep").set(iteration)
        utilization = worker_utilization(
            [t.seconds for t in report.node_timings],
            [t.compute_seconds for t in report.node_timings],
            sweep_wall,
        )
        metrics.gauge("worker_busy_fraction").set(utilization["busy_fraction"])
        metrics.gauge("worker_straggler_ratio").set(
            utilization["straggler_ratio"]
        )
        memory = memory_gauges(include_children=self.executor == "processes")
        metrics.gauge("rss_peak_mb").set(memory["rss_peak_mb"])
        metrics.gauge("major_page_faults").set(memory["major_page_faults"])

        record = {
            "sweep": iteration,
            "total_sweeps": num_iterations,
            "wall_seconds": sweep_wall,
            "cluster_seconds": report.cluster_seconds,
            "node_seconds": [t.seconds for t in report.node_timings],
            "node_compute_seconds": [
                t.compute_seconds for t in report.node_timings
            ],
            "merge_seconds": report.merge_seconds,
            "barrier_seconds": report.barrier_seconds,
            "dispatch_wall_seconds": report.dispatch_wall_seconds,
            "retries": retries,
            "merge_attempts": report.merge_attempts,
            "rng_draws": draws,
            "busy_fraction": utilization["busy_fraction"],
            "straggler_ratio": utilization["straggler_ratio"],
            "rss_peak_mb": memory["rss_peak_mb"],
            "major_page_faults": memory["major_page_faults"],
        }
        if churn is not None:
            record["churn"] = churn
        if likelihood is not None:
            record["log_likelihood"] = likelihood
            perplexity = telemetry.metrics.gauge("perplexity").value
            if perplexity is not None:
                record["perplexity"] = perplexity
        telemetry.emit("sweep", **record)

    # -- results ----------------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self.estimates_ is not None

    def training_seconds(self) -> float:
        """Total simulated-cluster training time (Fig. 13/14 metric)."""
        if self.report_ is None:
            raise EngineError("sampler is not fitted; call fit() first")
        return self.report_.cluster_seconds

    def speedup(self) -> float:
        """Serial-work / cluster-time ratio achieved by the partitioning."""
        if self.report_ is None:
            raise EngineError("sampler is not fitted; call fit() first")
        return self.report_.speedup
