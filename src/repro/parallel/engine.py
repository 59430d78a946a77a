"""A GraphLab-style gather-apply-scatter engine, simulated at laptop scale.

The paper runs its parallel sampler on a distributed GraphLab cluster.  We
substitute a single-machine engine that preserves the *algorithmic* shape:

* each superstep, every node processes its shard against a snapshot of the
  shared counters (GraphLab's gather/apply made explicit as snapshot/merge);
* node deltas are merged at the barrier (scatter's global effect);
* per-node wall time is measured while the shards execute, and the
  *simulated cluster time* of a superstep is ``max(node times) + merge``,
  exactly what a real synchronous cluster would spend.

Because every post/link lives on exactly one shard, the merged counters are
identical to a from-scratch recount of the new assignments; the only
approximation relative to the serial sampler is counter staleness *within*
a superstep — the standard approximate-parallel-Gibbs (AD-LDA-style)
trade-off that the GraphLab implementation also makes.

Fault tolerance and the superstep-replay guarantee
--------------------------------------------------
The engine accepts a pluggable :class:`~repro.resilience.faults.FaultPlan`
(node crashes — possibly mid-shard, straggler delays, merge failures), a
per-node ``node_timeout``, and a bounded exponential-backoff
:class:`~repro.resilience.retry.RetryPolicy`.  When a node task raises
:class:`~repro.resilience.faults.FaultError` or overruns its timeout, the
engine invokes the caller's ``reset`` hook — which must roll the node back
to the **pre-barrier snapshot** — waits out the (simulated) backoff, and
replays the node's work from scratch.  Because failed attempts are rolled
back to the snapshot and the barrier merge only applies complete node
deltas, *a failed node can never corrupt the merged counters*: after any
recovered superstep the merged state equals a from-scratch recount of the
assignments, which ``CountState.check_invariants()`` verifies in the
sampler.  Merge failures are retried the same way (the merge is
idempotent — it recomputes from the snapshot each attempt).  Retries,
injected delays, and backoff waits are all recorded in the
:class:`SuperstepReport`.

Executors
---------
``"simulated"`` runs tasks sequentially and *reports* parallel time —
deterministic, contention-free measurement.  ``"threads"`` runs tasks on a
thread pool: the native sweep is a ctypes call that releases the GIL, the
Python around it holds the GIL.  ``"processes"`` is the
true multi-core mode: the caller's tasks dispatch shards to a
:class:`~repro.parallel.worker.ProcessWorkerPool` whose workers share the
corpus/snapshot/assignment arrays via shared memory.  The engine drives
``"processes"`` with the same thread-pool dispatch as ``"threads"`` — each
dispatch thread blocks on a worker pipe with the GIL released — so the
retry/timeout/fault machinery is identical across executors; a worker
process dying mid-shard surfaces as a :class:`FaultError` exactly like an
injected crash.

Node tasks may *return* their own measured seconds (a float): remote
workers self-report the compute time of the sweep they ran, which excludes
dispatch overhead and idle-queue waits.  Tasks returning ``None`` are
timed by the engine's own wall clock, as before.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .._compat import keyword_only
from ..resilience.faults import FaultError, FaultPlan
from ..resilience.retry import RetryError, RetryPolicy
from ..telemetry import tracing as trace
from ..telemetry.logconfig import get_logger

_log = get_logger(__name__)


class EngineError(ValueError):
    """Raised for invalid engine configurations."""


@dataclass(frozen=True)
class NodeTiming:
    """Wall time one simulated node spent on its shard in one superstep.

    ``seconds`` accumulates every attempt (including failed ones) plus any
    injected straggler delay; ``retry_wait_seconds`` is the simulated
    backoff spent between attempts.  ``attempt_seconds`` breaks the total
    down per attempt (in attempt order) so recovered supersteps attribute
    compute honestly: the *last* attempt is the one whose work survived
    the barrier, everything before it is lost time.
    """

    node_id: int
    seconds: float
    attempts: int = 1
    retry_wait_seconds: float = 0.0
    attempt_seconds: tuple[float, ...] = ()

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def compute_seconds(self) -> float:
        """Seconds of the successful (final) attempt — the merged work."""
        if self.attempt_seconds:
            return self.attempt_seconds[-1]
        return self.seconds

    @property
    def lost_seconds(self) -> float:
        """Seconds burned by crashed/timed-out attempts that were rolled back."""
        if self.attempt_seconds:
            return self.seconds - self.attempt_seconds[-1]
        return 0.0


@dataclass(frozen=True)
class SuperstepReport:
    """Timing and recovery record of one superstep across all nodes.

    ``dispatch_wall_seconds`` is the engine's wall clock around the whole
    node phase; ``barrier_seconds`` is the synchronisation overhead beyond
    the slowest node's own compute (dispatch, idle waiting at the barrier,
    pipe turnaround) — ``0.0`` for the ``simulated`` executor, whose node
    phase is sequential by construction.
    """

    node_timings: tuple[NodeTiming, ...]
    merge_seconds: float
    merge_attempts: int = 1
    dispatch_wall_seconds: float = 0.0
    barrier_seconds: float = 0.0

    @property
    def cluster_seconds(self) -> float:
        """Simulated synchronous-cluster time: slowest node + merge."""
        slowest = max(
            (t.seconds + t.retry_wait_seconds for t in self.node_timings),
            default=0.0,
        )
        return slowest + self.merge_seconds

    @property
    def serial_seconds(self) -> float:
        """Total work time (what one node would have spent)."""
        return sum(t.seconds for t in self.node_timings) + self.merge_seconds

    @property
    def retries(self) -> int:
        """Node retries plus merge retries recovered in this superstep."""
        node_retries = sum(t.retries for t in self.node_timings)
        return node_retries + (self.merge_attempts - 1)


@dataclass
class ClusterReport:
    """Accumulated timings over a whole run."""

    supersteps: list[SuperstepReport]

    @property
    def cluster_seconds(self) -> float:
        return sum(s.cluster_seconds for s in self.supersteps)

    @property
    def serial_seconds(self) -> float:
        return sum(s.serial_seconds for s in self.supersteps)

    @property
    def speedup(self) -> float:
        """Serial-work / simulated-cluster time; ~num_nodes when balanced."""
        if self.cluster_seconds == 0:
            return 1.0
        return self.serial_seconds / self.cluster_seconds

    @property
    def total_retries(self) -> int:
        """Recovered node/merge retries across the whole run."""
        return sum(s.retries for s in self.supersteps)


@keyword_only
class SimulatedCluster:
    """Runs node tasks and reports simulated synchronous-cluster timing.

    Parameters
    ----------
    num_nodes:
        Number of simulated nodes; each superstep must supply exactly this
        many tasks (one per shard).
    executor:
        ``"simulated"`` runs tasks sequentially and *reports* parallel time
        (deterministic, GIL-free measurement); ``"threads"`` actually runs
        them on a thread pool; ``"processes"`` dispatches them the same
        way but the tasks hand shards to out-of-process workers (see
        :class:`~repro.parallel.worker.ProcessWorkerPool`).
    fault_plan:
        Optional fault-injection schedule; consulted for straggler delays
        and merge failures (node crashes are injected inside the caller's
        tasks, which raise :class:`FaultError`).
    retry:
        Backoff policy for failed/timed-out nodes and failed merges.
        Delays are *simulated* (recorded, never slept).
    node_timeout:
        Per-node, per-attempt limit in (simulated) seconds; an attempt
        exceeding it is rolled back via ``reset`` and replayed, exactly
        like a crash.
    """

    def __init__(
        self,
        num_nodes: int,
        executor: str = "simulated",
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        node_timeout: float | None = None,
    ) -> None:
        if num_nodes <= 0:
            raise EngineError(f"num_nodes must be positive, got {num_nodes}")
        if executor not in ("simulated", "threads", "processes"):
            raise EngineError(f"unknown executor {executor!r}")
        if node_timeout is not None and node_timeout <= 0:
            raise EngineError(f"node_timeout must be positive, got {node_timeout}")
        self.num_nodes = num_nodes
        self.executor = executor
        self.fault_plan = fault_plan
        self.retry = retry or RetryPolicy()
        self.node_timeout = node_timeout

    def _run_node(
        self,
        node_id: int,
        task: Callable[[], float | None],
        reset: Callable[[int], None] | None,
        superstep_index: int,
    ) -> NodeTiming:
        """One node's work with crash/timeout recovery.

        Each failed attempt is rolled back through ``reset`` before the
        replay, so a retried node always starts from the pre-barrier
        snapshot.  A task returning a float supplies its own measured
        seconds (remote workers self-report compute time); ``None`` keeps
        the engine's wall-clock measurement.
        """
        attempts = 0
        elapsed = 0.0
        wait = 0.0
        attempt_seconds: list[float] = []
        while True:
            if attempts > 0 and reset is not None:
                reset(node_id)
            start = time.perf_counter()
            failure: str | None = None
            reported: float | None = None
            with trace.span(
                "node", node=node_id, superstep=superstep_index, attempt=attempts
            ):
                try:
                    reported = task()
                except FaultError as exc:
                    failure = f"crashed: {exc}"
            seconds = time.perf_counter() - start
            if reported is not None:
                seconds = float(reported)
            if self.fault_plan is not None:
                seconds += self.fault_plan.straggler_delay(
                    superstep_index, node_id, attempts
                )
            elapsed += seconds
            attempt_seconds.append(seconds)
            attempts += 1
            if failure is None and (
                self.node_timeout is None or seconds <= self.node_timeout
            ):
                if attempts > 1:
                    _log.info(
                        "node %d recovered superstep %d on attempt %d "
                        "(%.3fs lost to rolled-back attempts)",
                        node_id,
                        superstep_index,
                        attempts,
                        elapsed - seconds,
                    )
                return NodeTiming(
                    node_id, elapsed, attempts, wait, tuple(attempt_seconds)
                )
            if failure is None:
                failure = (
                    f"timed out after {seconds:.3f}s "
                    f"(limit {self.node_timeout:.3f}s)"
                )
                # Timed-out work completed but is treated as lost (a real
                # cluster reschedules the straggler); roll it back too.
            if attempts >= self.retry.max_attempts:
                _log.error(
                    "node %d failed superstep %d after %d attempts: %s",
                    node_id,
                    superstep_index,
                    attempts,
                    failure,
                )
                raise RetryError(
                    f"node {node_id} failed superstep {superstep_index} "
                    f"after {attempts} attempts: {failure}"
                )
            if reset is None:
                raise EngineError(
                    f"node {node_id} failed ({failure}) but no reset hook was "
                    "given; cannot replay safely"
                )
            _log.warning(
                "node %d superstep %d attempt %d failed (%s); rolling back "
                "and replaying",
                node_id,
                superstep_index,
                attempts,
                failure,
            )
            wait += self.retry.delay(attempts - 1)

    def _run_merge(
        self, merge: Callable[[], None] | None, superstep_index: int
    ) -> tuple[float, float]:
        """Run the barrier merge with failure injection + retry.

        Returns ``(merge_seconds, merge_attempts)``; injected failures add
        simulated backoff to the merge time.  Safe because the merge
        recomputes the global counters from the snapshot each attempt.
        """
        attempts = 0
        extra = 0.0
        while True:
            if self.fault_plan is not None and self.fault_plan.merge_fails(
                superstep_index, attempts
            ):
                attempts += 1
                if attempts >= self.retry.max_attempts:
                    _log.error(
                        "merge of superstep %d failed after %d attempts",
                        superstep_index,
                        attempts,
                    )
                    raise RetryError(
                        f"merge of superstep {superstep_index} failed after "
                        f"{attempts} attempts"
                    )
                _log.warning(
                    "merge of superstep %d failed (attempt %d); retrying",
                    superstep_index,
                    attempts,
                )
                extra += self.retry.delay(attempts - 1)
                continue
            start = time.perf_counter()
            if merge is not None:
                with trace.span("barrier_merge", superstep=superstep_index):
                    merge()
            return time.perf_counter() - start + extra, attempts + 1

    def superstep(
        self,
        node_tasks: Sequence[Callable[[], float | None]],
        merge: Callable[[], None] | None = None,
        reset: Callable[[int], None] | None = None,
        superstep_index: int = 0,
    ) -> SuperstepReport:
        """Run one barrier-synchronised superstep and time it.

        ``node_tasks[n]`` is node ``n``'s shard work; ``merge`` runs once at
        the barrier (delta application); ``reset(n)`` must restore node
        ``n`` to its pre-superstep snapshot and is invoked before every
        replay of a crashed or timed-out node.
        """
        if len(node_tasks) != self.num_nodes:
            raise EngineError(
                f"expected {self.num_nodes} node tasks, got {len(node_tasks)}"
            )
        timings: list[NodeTiming]
        parallel_dispatch = (
            self.executor in ("threads", "processes") and self.num_nodes > 1
        )
        with trace.span(
            "superstep", superstep=superstep_index, executor=self.executor
        ):
            dispatch_start = time.perf_counter()
            if parallel_dispatch:
                with ThreadPoolExecutor(max_workers=self.num_nodes) as pool:
                    futures = [
                        pool.submit(
                            self._run_node, n, task, reset, superstep_index
                        )
                        for n, task in enumerate(node_tasks)
                    ]
                    timings = [f.result() for f in futures]
            else:
                timings = [
                    self._run_node(n, task, reset, superstep_index)
                    for n, task in enumerate(node_tasks)
                ]
            dispatch_wall = time.perf_counter() - dispatch_start
            merge_seconds, merge_attempts = self._run_merge(
                merge, superstep_index
            )
        barrier = 0.0
        if parallel_dispatch:
            slowest = max(
                (t.seconds + t.retry_wait_seconds for t in timings), default=0.0
            )
            barrier = max(0.0, dispatch_wall - slowest)
        return SuperstepReport(
            node_timings=tuple(timings),
            merge_seconds=merge_seconds,
            merge_attempts=merge_attempts,
            dispatch_wall_seconds=dispatch_wall,
            barrier_seconds=barrier,
        )
