"""Persistent worker processes for the ``processes`` executor.

:class:`ProcessWorkerPool` gives :class:`~repro.parallel.sampler.ParallelCOLDSampler`
true multi-core sweep execution while preserving the simulated engine's
exact semantics:

* **Zero-copy dispatch.**  The corpus arrays (post table, links), the
  concatenated shard orders, the current assignment arrays, the
  per-superstep counter snapshot, and one delta buffer per node all live
  in :class:`~repro.parallel.shm.SharedArrayBlock` segments created once
  per fit.  Dispatching a shard sends a node id plus an RNG state over a
  pipe — no counters or corpus are ever pickled per superstep.  Fitting a
  :class:`~repro.datasets.packed.PackedCorpus` goes further
  (``packed_path``): the corpus columns never enter shared memory —
  every worker maps the ``.coldpack`` file read-only, so N workers share
  one page-cached copy of the data.
* **Exact merge.**  A worker builds a private
  :class:`~repro.core.state.CountState` whose counters are copies of the
  shared snapshot and whose assignment arrays are the shared views (shards
  own disjoint posts/links, so concurrent writes never collide), runs the
  ordinary :func:`repro.core.gibbs.sweep` (fast kernels by default), and
  writes ``local - snapshot`` into its delta row.  The barrier merge sums
  delta rows in fixed node order on top of the snapshot — bit-identical
  to the in-process ``_Snapshot.merge_into`` arithmetic (integer adds).
* **Draw identity.**  Per-node RNG streams remain parent-owned: each
  dispatch ships ``rng.bit_generator.state`` and each reply returns the
  advanced state.  Workers carry no *chain* state between commands —
  their private counters (and the bit-identical
  :meth:`~repro.core.fastgibbs.SweepCache.refresh`-ed cache) are reset to
  the shared snapshot on every run — so a fault-free ``processes`` fit is
  draw-identical to ``simulated`` and ``threads`` at equal ``num_nodes``,
  regardless of ``num_workers`` or which worker runs which shard.
* **Real crashes.**  An injected :class:`~repro.resilience.faults.NodeCrash`
  makes the worker resample a *fraction* of its shard (corrupting its
  shard's shared assignment slots) and then die via ``os._exit`` — actual
  process death, not an exception.  The pool respawns a replacement and
  raises :class:`WorkerCrashError` (a ``FaultError``), so the engine's
  rollback-and-replay machinery works unchanged.  The draws a dead worker
  consumed are lost with it; the replay restarts from the pre-attempt RNG
  state, which keeps the chain valid (the replayed shard is resampled
  from the restored snapshot) even though a *faulted* run's draws then
  differ from the ``simulated`` executor's replay draws.

Node timing: workers self-report their sweep's CPU seconds
(``time.process_time``), which the engine uses as the node's compute time.
Uncontended, CPU time equals wall time; oversubscribed (more workers than
cores), it still measures each shard's actual work, keeping the simulated
synchronous-cluster metric (``max(node seconds) + merge``) meaningful.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from ..core.fastgibbs import SweepCache
from ..core.gibbs import sweep
from ..core.params import Hyperparameters
from ..core.state import CountState, PostTable
from ..resilience.faults import FaultError
from ..telemetry import timing
from ..telemetry.profiler import PhaseProfiler
from ..telemetry.logconfig import ROOT_LOGGER_NAME, BufferingLogHandler, get_logger
from ..telemetry.session import NULL_SESSION, TelemetrySession
from ..telemetry.tracing import Tracer
from .engine import EngineError
from .partition import Shard
from .shm import SharedArrayBlock

_log = get_logger(__name__)

#: Counter arrays snapshotted/merged each superstep (CountState attributes).
COUNTER_FIELDS = (
    "n_user_comm",
    "n_comm_topic",
    "n_comm_topic_time",
    "n_topic_word",
    "n_topic_total",
    "n_link_comm",
)

#: Latent assignment arrays shared across processes (disjoint shard slots).
ASSIGNMENT_FIELDS = ("post_comm", "post_topic", "link_src_comm", "link_dst_comm")

#: Exit code of a worker dying from an injected mid-shard crash.
_CRASH_EXIT = 3


class WorkerCrashError(FaultError):
    """A worker process died mid-shard (real process death)."""


#: How often an idle worker re-checks that its parent is still alive.
_ORPHAN_POLL_SECONDS = 1.0


def _next_command(conn, parent_pid: int, poll_seconds: float):
    """Receive the next pipe command, or ``None`` to shut down.

    Blocks in ``poll(poll_seconds)`` increments instead of a bare
    ``recv()`` so the worker notices a *dead parent*: a SIGKILLed parent
    never sends ``("stop",)``, and with forked siblings holding inherited
    parent-side pipe ends the EOF may never arrive either.  Reparenting
    (``os.getppid()`` no longer the spawning pid) means the parent is
    gone — return ``None`` so the loop exits instead of orphan-spinning.
    """
    while True:
        try:
            if conn.poll(poll_seconds):
                return conn.recv()
        except (EOFError, OSError):
            return None
        if os.getppid() != parent_pid:
            _log.debug("parent %d gone; worker exiting", parent_pid)
            return None


def worker_main(worker_id: int, init: dict, conn) -> None:
    """Worker loop: attach the shared blocks, then serve shard commands.

    Commands are ``("run", node, crash_progress, rng_state)`` or
    ``("stop",)``.  Replies are ``("ok", payload)`` with the advanced RNG
    state, timing, and degeneracy tally, or ``("error", traceback)``.  An
    injected crash never replies — the process exits mid-shard and the
    parent observes the dead pipe.

    Telemetry (``init["telemetry"]``): when the parent's session is
    enabled, the worker buffers its own log records
    (:class:`~repro.telemetry.logconfig.BufferingLogHandler`); it also
    mirrors the parent's active timing sinks (tracer, phase profiler).
    The log buffer and one drained timing payload
    (:func:`repro.telemetry.timing.drain`) travel home in every ``ok``
    reply over the existing pipe.  A crashed worker's buffers die with
    it, exactly like its draws.
    """
    import logging

    telemetry_cfg = init.get("telemetry") or {}
    log_buffer: BufferingLogHandler | None = None
    if telemetry_cfg.get("enabled"):
        log_buffer = BufferingLogHandler()
        root = logging.getLogger(ROOT_LOGGER_NAME)
        root.addHandler(log_buffer)
        root.setLevel(telemetry_cfg.get("log_level", logging.WARNING))
        root.propagate = False
        _log.debug("worker %d ready (pid %d)", worker_id, os.getpid())
    timing.set_tracer(Tracer() if telemetry_cfg.get("trace") else None)
    timing.set_profiler(PhaseProfiler() if telemetry_cfg.get("profile") else None)
    blocks = {
        key: SharedArrayBlock.attach(spec) for key, spec in init["blocks"].items()
    }
    data = blocks["data"].arrays
    snapshot = blocks["snapshot"].arrays
    deltas = blocks["deltas"].arrays
    hp = Hyperparameters(**init["hyperparameters"])
    packed = None
    if init.get("packed_path"):
        # Packed dispatch: the corpus never crossed the process boundary —
        # map the .coldpack file read-only and build the post table and
        # link pairs as views of it.  Every worker shares the kernel page
        # cache; only counters, orders, and assignments live in shm.
        from ..datasets.packed import PackedCorpus

        packed = PackedCorpus.open(init["packed_path"])
        posts = packed.post_table()
        links = (
            packed.link_array()
            if init.get("packed_links")
            else np.zeros((0, 2), np.int64)
        )
    else:
        posts = PostTable(
            **{name: data[f"posts_{name}"] for name in CountState._POST_FIELDS}
        )
        links = data["links"]
    post_offsets = data["shard_post_offsets"]
    link_offsets = data["shard_link_offsets"]
    rng = np.random.default_rng()
    # The private state and its SweepCache persist across commands: the
    # cache's log tables are built once, and each run resets the counters
    # to the fresh snapshot and calls the bit-identical
    # ``SweepCache.refresh``.
    local: CountState | None = None
    cache: SweepCache | None = None
    parent_pid = int(init.get("parent_pid", os.getppid()))
    poll_seconds = float(init.get("orphan_poll_seconds", _ORPHAN_POLL_SECONDS))
    while True:
        command = _next_command(conn, parent_pid, poll_seconds)
        if command is None or command[0] == "stop":
            break
        _, node, crash_progress, rng_state = command
        try:
            with timing.phase("shard"):
                rng.bit_generator.state = rng_state
                cpu_start = time.process_time()
                wall_start = time.perf_counter()
                if local is None:
                    with timing.phase("reset"):
                        local = CountState(
                            num_communities=init["num_communities"],
                            num_topics=init["num_topics"],
                            posts=posts,
                            links=links,
                            **{
                                name: snapshot[name].copy()
                                for name in COUNTER_FIELDS
                            },
                            **{name: data[name] for name in ASSIGNMENT_FIELDS},
                        )
                    cache = SweepCache(local, hp) if init["fast"] else None
                else:
                    with timing.phase("reset"):
                        for name in COUNTER_FIELDS:
                            np.copyto(getattr(local, name), snapshot[name])
                        local.degenerate_draws = 0
                    if cache is not None:
                        cache.refresh(local)
                post_order = data["shard_posts"][
                    post_offsets[node] : post_offsets[node + 1]
                ]
                link_order = data["shard_links"][
                    link_offsets[node] : link_offsets[node + 1]
                ]
                if log_buffer is not None:
                    _log.debug(
                        "worker %d: shard %d (%d posts, %d links)",
                        worker_id,
                        node,
                        len(post_order),
                        len(link_order),
                    )
                if crash_progress is not None:
                    # Die for real mid-shard: resample a fraction of the
                    # posts (corrupting this shard's shared assignment
                    # slots exactly like the in-process fault injection),
                    # then exit without replying.  The parent sees the
                    # dead pipe.
                    done = int(len(post_order) * crash_progress)
                    sweep(
                        local,
                        hp,
                        rng,
                        post_order=post_order[:done],
                        link_order=link_order[:0],
                        cache=cache,
                    )
                    os._exit(_CRASH_EXIT)
                with timing.span("worker_shard", node=node, worker=worker_id):
                    sweep(
                        local,
                        hp,
                        rng,
                        post_order=post_order,
                        link_order=link_order,
                        cache=cache,
                    )
                with timing.phase("delta_write"):
                    for name in COUNTER_FIELDS:
                        np.subtract(
                            getattr(local, name),
                            snapshot[name],
                            out=deltas[name][node],
                        )
            payload = {
                "node": node,
                "seconds": time.process_time() - cpu_start,
                "wall_seconds": time.perf_counter() - wall_start,
                "degenerate_draws": int(local.degenerate_draws),
                "rng_state": rng.bit_generator.state,
                "rng_draws": int(len(post_order)) + int(len(link_order)),
            }
            if log_buffer is not None:
                payload["logs"] = log_buffer.drain()
            timed = timing.drain()
            if timed:
                payload["timing"] = timed
            conn.send(("ok", payload))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    if packed is not None:
        local = cache = posts = links = None
        packed.close()
    for block in blocks.values():
        block.close()


@dataclass
class _WorkerHandle:
    worker_id: int
    process: multiprocessing.Process
    conn: object  # multiprocessing.connection.Connection


def _resolve_target(spec: str):
    """Import ``"package.module:function"`` inside a worker process.

    Targets are addressed by name rather than pickled so the pool can
    run functions from modules that themselves import this one (the
    multi-chain runner) without a circular import at spawn time.
    """
    import importlib

    module_name, _, function_name = spec.partition(":")
    if not module_name or not function_name:
        raise EngineError(f"invalid worker target {spec!r}; expected 'module:func'")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, function_name)
    except AttributeError as exc:
        raise EngineError(f"worker target {spec!r} does not exist") from exc


def task_worker_main(worker_id: int, init: dict, conn) -> None:
    """Generic task-worker loop: call ``init['target']`` per command.

    Commands are ``("run", task_id, payload)`` or ``("stop",)``; replies
    are ``("ok", task_id, result)`` or ``("error", task_id, traceback)``.
    ``init['common']`` holds keyword arguments shared by every task (the
    corpus, fit settings) so they cross the process boundary once per
    worker instead of once per task.
    """
    target = _resolve_target(init["target"])
    common = init.get("common") or {}
    _log.debug("task worker %d ready (pid %d)", worker_id, os.getpid())
    parent_pid = int(init.get("parent_pid", os.getppid()))
    poll_seconds = float(init.get("orphan_poll_seconds", _ORPHAN_POLL_SECONDS))
    while True:
        command = _next_command(conn, parent_pid, poll_seconds)
        if command is None or command[0] == "stop":
            break
        _, task_id, payload = command
        try:
            result = target(**common, **payload)
            conn.send(("ok", task_id, result))
        except Exception:
            conn.send(("error", task_id, traceback.format_exc()))


class TaskWorkerPool:
    """A small process pool running a named function over task payloads.

    The multi-chain diagnostics runner
    (:func:`repro.diagnostics.chains.run_chains`) uses this to fit K
    independent chains concurrently.  It shares the shard pool's process
    plumbing (spawn/reap lifecycle, pipe protocol, fork-where-available
    start method) but dispatches *whole independent tasks* instead of
    shared-memory shard sweeps: tasks exchange only their payload and
    result, so no shared blocks are created and any worker can run any
    task.

    Parameters
    ----------
    target:
        ``"module:function"`` resolved inside each worker.
    num_workers:
        Worker processes; capped by the number of submitted tasks in
        :meth:`run_all`.
    common:
        Keyword arguments merged into every task's payload, shipped once
        per worker at spawn.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available, else ``spawn``.
    """

    def __init__(
        self,
        target: str,
        num_workers: int,
        common: dict | None = None,
        start_method: str | None = None,
    ) -> None:
        if num_workers < 1:
            raise EngineError(f"num_workers must be positive, got {num_workers}")
        self._closed = False
        self.num_workers = num_workers
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._init = {
            "target": target,
            "common": common or {},
            "parent_pid": os.getpid(),
        }
        self._handles: list[_WorkerHandle] = []

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=task_worker_main,
            args=(worker_id, self._init, child_conn),
            name=f"cold-task-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        _log.debug("spawned task worker %d (pid %s)", worker_id, process.pid)
        return _WorkerHandle(worker_id, process, parent_conn)

    def _reap(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.join(timeout=5)
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.terminate()
            handle.process.join(timeout=5)

    def run_all(self, payloads: list[dict]) -> list:
        """Run every payload; returns results in submission order.

        Tasks are dispatched to at most ``num_workers`` concurrent
        workers, multiplexed over the reply pipes.  A worker that dies
        mid-task raises :class:`WorkerCrashError`; a task that raises
        re-raises as :class:`EngineError` with the worker's traceback.
        Either way the pool is closed before raising — independent tasks
        have no replay semantics to preserve.
        """
        from multiprocessing import connection as mp_connection

        if self._closed:
            raise EngineError("task pool is closed")
        if not payloads:
            return []
        workers = min(self.num_workers, len(payloads))
        try:
            while len(self._handles) < workers:
                self._handles.append(self._spawn(len(self._handles)))
            results: list = [None] * len(payloads)
            pending = list(enumerate(payloads))
            idle = list(self._handles[:workers])
            busy: dict = {}
            while pending or busy:
                while pending and idle:
                    handle = idle.pop()
                    task_id, payload = pending.pop(0)
                    handle.conn.send(("run", task_id, payload))
                    busy[handle.conn] = (handle, task_id)
                ready = mp_connection.wait(list(busy))
                for conn in ready:
                    handle, task_id = busy.pop(conn)
                    try:
                        status, reply_id, result = conn.recv()
                    except (EOFError, BrokenPipeError, OSError) as exc:
                        raise WorkerCrashError(
                            f"task worker {handle.worker_id} died running "
                            f"task {task_id} ({type(exc).__name__})"
                        ) from exc
                    if status != "ok":
                        raise EngineError(
                            f"task {reply_id} failed in worker "
                            f"{handle.worker_id}:\n{result}"
                        )
                    results[reply_id] = result
                    idle.append(handle)
            return results
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
            self._reap(handle)
        self._handles = []

    def __enter__(self) -> "TaskWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessWorkerPool:
    """A fixed pool of worker processes executing shard sweeps.

    Parameters
    ----------
    state:
        The global :class:`CountState`.  Its assignment arrays are
        *re-homed* into shared memory (values preserved) so parent-side
        rollbacks and worker-side resampling act on the same storage;
        :meth:`close` copies them back into private memory.
    hp, shards, fast:
        The sweep configuration; shards fix the (node -> posts/links)
        orders, concatenated once into shared index arrays.
    num_workers:
        Worker processes to spawn; defaults to ``len(shards)``.  Fewer
        workers than shards multiplexes shards over the pool (any worker
        can run any shard — all data is shared and RNG streams travel
        with the dispatch), trading parallelism for memory/cores.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap spawns), else ``spawn``.
    telemetry:
        The fit's :class:`~repro.telemetry.session.TelemetrySession`.
        When enabled, workers mirror the parent's log level into a
        buffered handler, and every reply's drained logs and timing
        payload are folded back into the session; worker crashes and
        respawns are counted on its registry.
    packed_path:
        Path of the ``.coldpack`` file backing ``state.posts`` (set when
        fitting a :class:`~repro.datasets.packed.PackedCorpus`).  The
        post table and link pairs are then *not* copied into shared
        memory at all — each worker maps the file read-only and shares
        the kernel page cache, so per-worker corpus memory is zero and
        dispatch pickles nothing but a node id and an RNG state.
    """

    def __init__(
        self,
        state: CountState,
        hp: Hyperparameters,
        shards: list[Shard],
        fast: bool = True,
        num_workers: int | None = None,
        start_method: str | None = None,
        telemetry: TelemetrySession | None = None,
        packed_path: "str | os.PathLike | None" = None,
    ) -> None:
        self._closed = False
        self._telemetry = telemetry if telemetry is not None else NULL_SESSION
        self._workers: queue.Queue[_WorkerHandle] = queue.Queue()
        self._blocks: list[SharedArrayBlock] = []
        self._state: CountState | None = None
        self.num_nodes = len(shards)
        if num_workers is None:
            num_workers = self.num_nodes
        if num_workers < 1:
            raise EngineError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = min(num_workers, self.num_nodes)

        # With a packed corpus the post/link columns stay on disk: workers
        # re-open the file, so the shm data block carries only the shard
        # orders and assignments (plus an empty links array when the fit
        # excludes the network — the file's links must not be used then).
        packed_links = packed_path is not None and state.links.size > 0
        data_arrays: dict[str, np.ndarray] = {}
        if packed_path is None:
            data_arrays.update(
                {
                    f"posts_{name}": getattr(state.posts, name)
                    for name in CountState._POST_FIELDS
                }
            )
            data_arrays["links"] = state.links
        data_arrays["shard_posts"] = np.concatenate([s.post_ids for s in shards])
        data_arrays["shard_links"] = np.concatenate([s.link_ids for s in shards])
        data_arrays["shard_post_offsets"] = np.cumsum(
            [0] + [len(s.post_ids) for s in shards], dtype=np.int64
        )
        data_arrays["shard_link_offsets"] = np.cumsum(
            [0] + [len(s.link_ids) for s in shards], dtype=np.int64
        )
        for name in ASSIGNMENT_FIELDS:
            data_arrays[name] = getattr(state, name)
        self._data = SharedArrayBlock.create(data_arrays)
        self._snapshot = SharedArrayBlock.create(
            {name: np.zeros_like(getattr(state, name)) for name in COUNTER_FIELDS}
        )
        self._deltas = SharedArrayBlock.create(
            {
                name: np.zeros(
                    (self.num_nodes, *getattr(state, name).shape), dtype=np.int64
                )
                for name in COUNTER_FIELDS
            }
        )
        self._blocks = [self._deltas, self._snapshot, self._data]
        # Re-home the live assignment arrays into the shared block so the
        # parent's snapshot/rollback and the workers' resampling share
        # storage.  close() restores private copies.
        for name in ASSIGNMENT_FIELDS:
            setattr(state, name, self._data.arrays[name])
        self._state = state

        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._init = {
            "blocks": {
                "data": self._data.spec(),
                "snapshot": self._snapshot.spec(),
                "deltas": self._deltas.spec(),
            },
            "hyperparameters": asdict(hp),
            "num_communities": state.num_communities,
            "num_topics": state.num_topics,
            "fast": fast,
            "telemetry": self._telemetry.worker_config(),
            "parent_pid": os.getpid(),
            "packed_path": str(packed_path) if packed_path is not None else None,
            "packed_links": packed_links,
        }
        try:
            for worker_id in range(self.num_workers):
                self._workers.put(self._spawn(worker_id))
        except Exception:
            self.close()
            raise

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self._init, child_conn),
            name=f"cold-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        _log.debug("spawned worker %d (pid %s)", worker_id, process.pid)
        return _WorkerHandle(worker_id, process, parent_conn)

    def _reap(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.join(timeout=5)
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.terminate()
            handle.process.join(timeout=5)

    # -- superstep protocol ------------------------------------------------

    def begin_superstep(self, state: CountState) -> None:
        """Freeze the current counters into the shared snapshot block."""
        for name in COUNTER_FIELDS:
            self._snapshot.arrays[name][...] = getattr(state, name)

    def run_shard(
        self,
        node: int,
        rng_state: dict,
        crash_progress: float | None = None,
    ) -> dict:
        """Execute one shard on any idle worker; returns the reply payload.

        Thread-safe (the engine dispatches from one thread per node; the
        idle queue serialises worker checkout).  A worker that dies
        mid-shard is replaced and :class:`WorkerCrashError` is raised so
        the engine's reset/replay path takes over.
        """
        if self._closed:
            raise EngineError("worker pool is closed")
        handle = self._workers.get()
        try:
            handle.conn.send(("run", node, crash_progress, rng_state))
            status, payload = handle.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            dead_pid = handle.process.pid
            self._reap(handle)
            self._workers.put(self._spawn(handle.worker_id))
            if self._telemetry.enabled:
                self._telemetry.metrics.counter("worker_crashes_total").inc()
                self._telemetry.metrics.counter("worker_respawns_total").inc()
            _log.warning(
                "worker %d (pid %s) died while sampling shard %d (%s); "
                "respawned a replacement",
                handle.worker_id,
                dead_pid,
                node,
                type(exc).__name__,
            )
            raise WorkerCrashError(
                f"worker process died while sampling shard {node} "
                f"({type(exc).__name__})"
            ) from exc
        self._workers.put(handle)
        if status != "ok":
            raise EngineError(f"worker failed on shard {node}:\n{payload}")
        self._telemetry.absorb_worker_payload(payload)
        return payload

    def merge_into(
        self,
        state: CountState,
        snapshot_degenerate_draws: int,
        node_degenerate_draws: list[int],
    ) -> None:
        """``global = snapshot + sum_n delta_n``, summed in fixed node order.

        Identical integer arithmetic to the in-process merge, and
        idempotent: the snapshot block is immutable during a superstep and
        every node's delta row is complete before the barrier, so a
        retried merge recomputes the same result regardless of the order
        in which nodes finished.
        """
        for name in COUNTER_FIELDS:
            target = getattr(state, name)
            np.copyto(target, self._snapshot.arrays[name])
            target += self._deltas.arrays[name].sum(axis=0)
        state.degenerate_draws = snapshot_degenerate_draws + int(
            sum(node_degenerate_draws)
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop workers, detach the state, release shared memory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        while True:
            try:
                handle = self._workers.get_nowait()
            except queue.Empty:
                break
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
            self._reap(handle)
        if self._state is not None:
            for name in ASSIGNMENT_FIELDS:
                setattr(self._state, name, getattr(self._state, name).copy())
            self._state = None
        for block in self._blocks:
            block.close()
        self._blocks = []

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
