"""The COLD model facade: configure, fit, estimate, persist.

:class:`COLDModel` wires together the count state, the collapsed Gibbs
kernels, the convergence monitor, and Appendix-A estimation into one
sklearn-style object::

    model = COLDModel(num_communities=10, num_topics=20, seed=0)
    model.fit(corpus, num_iterations=150)
    model.theta_        # community interests
    model.estimates_    # all five distributions

A :class:`~repro.core.config.COLDConfig` can be passed instead of loose
keywords (``COLDModel(config)``); that is what :func:`repro.api.fit`
does.  ``include_network=False`` yields the paper's COLD-NoLink ablation
(§6.1 baseline 4): the network component is simply never sampled.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..datasets.corpus import SocialCorpus, post_columns
from ..datasets.stream import CorpusIncrement, LinkEvent, PostEvent
from ..resilience.checkpoint import (
    CheckpointError,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)
from ..telemetry import tracing as trace
from ..telemetry.logconfig import get_logger
from ..telemetry.profiler import memory_gauges
from ..telemetry.session import TelemetrySession
from .config import COLDConfig, StreamConfig
from .estimates import ParameterEstimates, average_estimates, estimate_from_state
from .gibbs import sweep
from .likelihood import ConvergenceMonitor, joint_log_likelihood
from .params import Hyperparameters
from .state import CountState, PostTable, StateError

_log = get_logger(__name__)


class ModelError(RuntimeError):
    """Raised on invalid model usage (e.g. estimates before fit)."""


class TrainingInterrupted(ModelError):
    """A fit stopped early at a sweep boundary on an external stop request.

    Raised only between sweeps — never mid-sweep — so the sampler state is
    always consistent when it propagates.  When checkpointing is enabled
    the final state has already been written; ``checkpoint`` says where,
    so ``cold train`` can print a resume hint and exit cleanly.
    """

    def __init__(self, iteration: int, checkpoint: Path | None = None) -> None:
        detail = f"training interrupted at sweep {iteration}"
        if checkpoint is not None:
            detail += f"; checkpoint written to {checkpoint}"
        super().__init__(detail)
        self.iteration = iteration
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`COLDModel.update` call did, for logs and telemetry.

    ``new_slices`` counts time-grid growth (psi gained that many columns,
    initialised with prior mass); ``window_posts``/``window_links`` are
    the total resampled set sizes (new + recent tail + defrost sample).
    """

    update_index: int
    new_posts: int
    new_links: int
    new_users: int
    new_terms: int
    new_slices: int
    window_posts: int
    window_links: int
    sweeps: int
    seconds: float
    log_likelihood: float


class COLDModel:
    """COmmunity Level Diffusion model (paper §3) with Gibbs inference (§4).

    Parameters
    ----------
    num_communities, num_topics:
        Latent dimensions ``C`` and ``K``.  The paper's sensitivity study
        (Appendix B) finds ``C = K = 100`` best at Weibo scale; scale them
        with your data.
    hyperparameters:
        Prior strengths; by default the paper's §6.5 rules are applied when
        :meth:`fit` sees the corpus (they depend on ``C``, ``K``, ``n_neg``).
    include_network:
        When false, the link component is skipped entirely (COLD-NoLink).
    kappa:
        Weight of the implicit-negative-link prior (§3.3).
    prior:
        ``"paper"`` applies the paper's §6.5 hyper-parameter rules
        (calibrated for Weibo scale); ``"scaled"`` applies
        :meth:`Hyperparameters.scaled`, the laptop-scale operating values —
        use it for corpora with tens of posts per user.  Ignored when
        explicit ``hyperparameters`` are given.
    seed:
        Seed of the sampler's RNG; fits are reproducible given a seed.
    fast:
        Run sweeps through the native sweep kernel
        (:mod:`repro.core.fastgibbs`).  It draws the reference kernels'
        chain — same conditionals, same RNG consumption, so the same
        seed yields the same chain (see that module's exactness
        contract) — many times faster; ``fast=False`` selects the
        reference kernels, kept as the correctness oracle.
    executor, num_nodes, num_workers:
        ``num_nodes > 1`` routes :meth:`fit` through the parallel sampler
        (:class:`~repro.parallel.sampler.ParallelCOLDSampler`) on that
        many shards; ``executor`` picks how shard work runs
        (``"simulated"``, ``"threads"``, or ``"processes"`` — the
        shared-memory multi-core pool), and ``num_workers`` caps the
        worker processes of the ``processes`` executor.  Parallel fits do
        not yet support callbacks or checkpointing; their per-superstep
        timings land in ``cluster_report_``.

    A single :class:`~repro.core.config.COLDConfig` may be passed instead
    of the keywords above: ``COLDModel(config)``.  Every other argument
    is keyword-only.
    """

    def __init__(self, config: COLDConfig | None = None, **kwargs) -> None:
        if config is not None:
            if not isinstance(config, COLDConfig):
                raise TypeError(
                    "COLDModel() takes a COLDConfig or keyword arguments, "
                    f"not a positional {type(config).__name__}"
                )
            if kwargs:
                raise ModelError(
                    "pass either a COLDConfig or keyword arguments, not both"
                )
            kwargs = config.model_kwargs()
        self._init_fields(**kwargs)

    def _init_fields(
        self,
        num_communities: int = 20,
        num_topics: int = 20,
        hyperparameters: Hyperparameters | None = None,
        include_network: bool = True,
        kappa: float = 1.0,
        prior: str = "paper",
        seed: int = 0,
        fast: bool = True,
        executor: str = "simulated",
        num_nodes: int = 1,
        num_workers: int | None = None,
        metrics_out: str | Path | None = None,
        trace_out: str | Path | None = None,
        stream: StreamConfig | dict | None = None,
    ) -> None:
        if num_communities <= 0 or num_topics <= 0:
            raise ModelError("num_communities and num_topics must be positive")
        if prior not in ("paper", "scaled"):
            raise ModelError(f"prior must be 'paper' or 'scaled', got {prior!r}")
        if executor not in ("simulated", "threads", "processes"):
            raise ModelError(
                "executor must be 'simulated', 'threads', or 'processes', "
                f"got {executor!r}"
            )
        if num_nodes <= 0:
            raise ModelError("num_nodes must be positive")
        if num_workers is not None and num_workers <= 0:
            raise ModelError("num_workers must be positive when given")
        if num_workers is not None and executor != "processes":
            raise ModelError(
                "num_workers only applies to the 'processes' executor"
            )
        self.num_communities = num_communities
        self.num_topics = num_topics
        self.hyperparameters = hyperparameters
        self.include_network = include_network
        self.kappa = kappa
        self.prior = prior
        self.seed = seed
        self.fast = fast
        self.executor = executor
        self.num_nodes = num_nodes
        self.num_workers = num_workers
        #: Telemetry destinations (see :mod:`repro.telemetry`): a JSONL
        #: metrics stream and/or a Chrome trace_event file.  ``None`` keeps
        #: instrumentation a no-op, except that checkpointed fits default
        #: ``metrics_out`` to ``<checkpoint_dir>/metrics.jsonl``.
        self.metrics_out = None if metrics_out is None else str(metrics_out)
        self.trace_out = None if trace_out is None else str(trace_out)
        if isinstance(stream, dict):
            # Round-tripped configs (saved models, checkpoints) carry the
            # nested StreamConfig as a plain mapping.
            try:
                stream = StreamConfig(**stream)
            except TypeError as exc:
                raise ModelError(f"invalid stream config: {exc}") from exc
        if stream is not None and not isinstance(stream, StreamConfig):
            raise ModelError(
                f"stream must be a StreamConfig (or None), got "
                f"{type(stream).__name__}"
            )
        #: Default knobs of :meth:`update`; overridable per call.
        self.stream = stream
        #: An incremental :class:`~repro.datasets.stream.CorpusStreamBuilder`
        #: attached by :class:`repro.streaming.OnlineTrainer` (or by hand)
        #: so :meth:`update` can accept raw events.
        self.stream_builder_ = None
        #: Incremental updates applied so far (the model *generation*).
        self.update_count_ = 0
        self._checkpoint_parent: str | None = None
        self._rng = np.random.default_rng(seed)
        self.state_: CountState | None = None
        self.estimates_: ParameterEstimates | None = None
        self.monitor_: ConvergenceMonitor | None = None
        self.corpus_: SocialCorpus | None = None
        #: Per-superstep cluster timings of the last parallel fit
        #: (``num_nodes > 1``); ``None`` for serial fits.
        self.cluster_report_ = None

    # -- fitting ---------------------------------------------------------------

    def fit(
        self,
        corpus: SocialCorpus,
        num_iterations: int = 100,
        burn_in: int | None = None,
        sample_interval: int = 5,
        likelihood_interval: int = 10,
        callback: Callable[[int, "COLDModel"], None] | None = None,
        check_invariants: bool = False,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
        diagnostics=None,
        stop_requested: Callable[[], bool] | None = None,
    ) -> "COLDModel":
        """Run the collapsed Gibbs sampler and store averaged estimates.

        Parameters
        ----------
        num_iterations:
            Total Gibbs sweeps.
        burn_in:
            Sweeps to discard before collecting samples; defaults to half of
            ``num_iterations``.
        sample_interval:
            Collect a point-estimate sample every this many post-burn-in
            sweeps (thinning); samples are averaged into ``estimates_``.
        likelihood_interval:
            Record the joint likelihood every this many sweeps (the paper's
            periodic convergence monitoring); 0 disables monitoring.
        callback:
            Called as ``callback(iteration, model)`` after every sweep.
        check_invariants:
            Recount all Gibbs counters after every sweep (slow; for tests).
        checkpoint_every:
            Write an atomic, checksummed checkpoint to ``checkpoint_dir``
            every this many sweeps.  A fit killed at any point can be
            continued with :meth:`resume` and produces *bit-identical*
            estimates to an uninterrupted run with the same seed.
        checkpoint_dir:
            Directory for checkpoints; required iff ``checkpoint_every``
            is set.
        diagnostics:
            An inference-quality hook — typically a
            :class:`repro.diagnostics.QualityStream` — whose
            ``maybe_record(iteration, state, hp, telemetry,
            log_likelihood)`` is invoked after every sweep.  Hooks are
            read-only over the sampler state and never consume RNG, so
            draws are bit-identical with or without one (enforced by the
            diagnostics perf gate).  ``None`` (the default) keeps the fit
            loop free of any diagnostic work.
        stop_requested:
            Polled after every sweep; returning ``True`` stops the fit at
            that sweep boundary with :class:`TrainingInterrupted` (after
            writing a final checkpoint when checkpointing is enabled).
            The CLI wires a SIGINT/SIGTERM flag into this for graceful
            Ctrl-C.  Serial fits only.
        """
        if num_iterations <= 0:
            raise ModelError("num_iterations must be positive")
        if burn_in is None:
            burn_in = num_iterations // 2
        if not 0 <= burn_in < num_iterations:
            raise ModelError("burn_in must lie in [0, num_iterations)")
        if sample_interval <= 0:
            raise ModelError("sample_interval must be positive")
        if (checkpoint_every is None) != (checkpoint_dir is None):
            raise ModelError(
                "checkpoint_every and checkpoint_dir must be given together"
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ModelError("checkpoint_every must be positive")
        if self.num_nodes > 1:
            if callback is not None:
                raise ModelError(
                    "parallel fits (num_nodes > 1) do not support callback"
                )
            if diagnostics is not None:
                raise ModelError(
                    "parallel fits (num_nodes > 1) do not support diagnostics "
                    "hooks; run per-chain serial fits via "
                    "repro.diagnostics.run_chains instead"
                )
            if checkpoint_every is not None:
                raise ModelError(
                    "parallel fits (num_nodes > 1) do not support checkpointing"
                )
            return self._fit_parallel(
                corpus,
                num_iterations=num_iterations,
                burn_in=burn_in,
                sample_interval=sample_interval,
                likelihood_interval=likelihood_interval,
                check_invariants=check_invariants,
            )

        hp = self._resolve_hyperparameters(corpus)
        state = CountState.initialize(
            corpus,
            self.num_communities,
            self.num_topics,
            self._rng,
            include_network=self.include_network,
        )
        self._fit_loop(
            state=state,
            hp=hp,
            monitor=ConvergenceMonitor(),
            samples=[],
            start_iteration=0,
            num_iterations=num_iterations,
            burn_in=burn_in,
            sample_interval=sample_interval,
            likelihood_interval=likelihood_interval,
            callback=callback,
            check_invariants=check_invariants,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            diagnostics=diagnostics,
            stop_requested=stop_requested,
        )
        self.corpus_ = corpus
        return self

    def _fit_parallel(
        self,
        corpus: SocialCorpus,
        num_iterations: int,
        burn_in: int,
        sample_interval: int,
        likelihood_interval: int,
        check_invariants: bool,
    ) -> "COLDModel":
        """Delegate the fit to the parallel sampler (``num_nodes > 1``).

        The sampler owns sharding, the per-superstep snapshot/merge cycle,
        and (for ``executor="processes"``) the shared-memory worker pool;
        its fitted state, estimates, monitor, and cluster timing report
        are adopted wholesale.
        """
        from ..parallel.sampler import ParallelCOLDSampler

        sampler = ParallelCOLDSampler(
            num_communities=self.num_communities,
            num_topics=self.num_topics,
            num_nodes=self.num_nodes,
            executor=self.executor,
            num_workers=self.num_workers,
            hyperparameters=self.hyperparameters,
            include_network=self.include_network,
            kappa=self.kappa,
            prior=self.prior,
            seed=self.seed,
            fast=self.fast,
            metrics_out=self.metrics_out,
            trace_out=self.trace_out,
        )
        sampler.fit(
            corpus,
            num_iterations=num_iterations,
            burn_in=burn_in,
            sample_interval=sample_interval,
            likelihood_interval=likelihood_interval,
        )
        assert sampler.state_ is not None
        if check_invariants:
            sampler.state_.check_invariants()
        self.state_ = sampler.state_
        self.monitor_ = sampler.monitor_
        self.hyperparameters = sampler.hyperparameters
        self.estimates_ = sampler.estimates_
        self.cluster_report_ = sampler.report_
        self.corpus_ = corpus
        return self

    def _fit_loop(
        self,
        state: CountState,
        hp: Hyperparameters,
        monitor: ConvergenceMonitor,
        samples: list[ParameterEstimates],
        start_iteration: int,
        num_iterations: int,
        burn_in: int,
        sample_interval: int,
        likelihood_interval: int,
        callback: Callable[[int, "COLDModel"], None] | None,
        check_invariants: bool,
        checkpoint_every: int | None,
        checkpoint_dir: str | Path | None,
        diagnostics=None,
        stop_requested: Callable[[], bool] | None = None,
    ) -> None:
        """Sweeps ``start_iteration+1 .. num_iterations`` plus finalisation.

        Shared by :meth:`fit` (``start_iteration=0``) and :meth:`resume`;
        checkpoints are written *after* all per-iteration bookkeeping, so a
        resumed chain replays the exact remaining suffix of an
        uninterrupted run.  The fast-path sweep cache is derived entirely
        from the count state, so building it fresh here keeps resumed
        chains bit-identical too.
        """
        metrics_out = self.metrics_out
        if metrics_out is None and checkpoint_dir is not None:
            # Checkpointed fits are the long ones worth watching; default
            # the metrics stream to live next to the checkpoints.
            metrics_out = str(Path(checkpoint_dir) / "metrics.jsonl")
        telemetry = TelemetrySession(
            metrics_path=metrics_out, trace_path=self.trace_out
        )
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
            executor="serial",
            num_nodes=1,
            num_workers=None,
            num_iterations=num_iterations,
            start_iteration=start_iteration,
        )
        if telemetry.enabled:
            monitor.attach(
                telemetry.likelihood_sink(int(state.posts.lengths.sum()))
            )
            _log.info(
                "serial fit: sweeps %d..%d", start_iteration + 1, num_iterations
            )
        draws_per_sweep = state.num_posts + state.num_links
        fit_settings = {
            "num_iterations": num_iterations,
            "burn_in": burn_in,
            "sample_interval": sample_interval,
            "likelihood_interval": likelihood_interval,
            "checkpoint_every": checkpoint_every,
        }
        last_checkpoint: tuple[int, Path] | None = None

        telemetry.activate()
        try:
            cache = None
            if self.fast:
                from .fastgibbs import SweepCache

                cache = SweepCache(state, hp)
            for iteration in range(start_iteration + 1, num_iterations + 1):
                before = None
                if telemetry.enabled:
                    before = (state.post_comm.copy(), state.post_topic.copy())
                wall_start = time.perf_counter()
                cpu_start = time.process_time()
                with trace.span("sweep", sweep=iteration):
                    sweep(state, hp, self._rng, cache=cache)
                wall_seconds = time.perf_counter() - wall_start
                cpu_seconds = time.process_time() - cpu_start
                if check_invariants:
                    state.check_invariants()
                    if cache is not None:
                        cache.check_consistency(state)
                likelihood = None
                if likelihood_interval and iteration % likelihood_interval == 0:
                    likelihood = joint_log_likelihood(state, hp)
                    monitor.record(likelihood)
                if diagnostics is not None:
                    with trace.span("diagnostics", sweep=iteration):
                        diagnostics.maybe_record(
                            iteration, state, hp, telemetry, likelihood
                        )
                if (
                    iteration > burn_in
                    and (iteration - burn_in) % sample_interval == 0
                ):
                    samples.append(estimate_from_state(state, hp))
                if callback is not None:
                    callback(iteration, self)
                if telemetry.enabled:
                    metrics = telemetry.metrics
                    metrics.counter("sweeps_total").inc()
                    metrics.counter("gibbs_draws_total").inc(draws_per_sweep)
                    metrics.histogram("sweep_seconds").observe(wall_seconds)
                    metrics.gauge("sweep").set(iteration)
                    memory = memory_gauges()
                    metrics.gauge("rss_peak_mb").set(memory["rss_peak_mb"])
                    metrics.gauge("major_page_faults").set(
                        memory["major_page_faults"]
                    )
                    record = {
                        "sweep": iteration,
                        "total_sweeps": num_iterations,
                        "wall_seconds": wall_seconds,
                        "cpu_seconds": cpu_seconds,
                        "rng_draws": draws_per_sweep,
                        "rss_peak_mb": memory["rss_peak_mb"],
                        "major_page_faults": memory["major_page_faults"],
                        "churn": {
                            "post_comm": int(
                                np.count_nonzero(state.post_comm != before[0])
                            ),
                            "post_topic": int(
                                np.count_nonzero(state.post_topic != before[1])
                            ),
                        },
                    }
                    if likelihood is not None:
                        record["log_likelihood"] = likelihood
                        perplexity = metrics.gauge("perplexity").value
                        if perplexity is not None:
                            record["perplexity"] = perplexity
                    telemetry.emit("sweep", **record)
                if (
                    checkpoint_every is not None
                    and iteration % checkpoint_every == 0
                ):
                    assert checkpoint_dir is not None
                    with trace.span("checkpoint_write", sweep=iteration):
                        path = self._write_checkpoint(
                            checkpoint_dir,
                            iteration,
                            state,
                            hp,
                            monitor,
                            samples,
                            fit_settings=fit_settings,
                        )
                    last_checkpoint = (iteration, path)
                    if telemetry.enabled:
                        telemetry.metrics.counter("checkpoints_total").inc()
                    _log.debug("checkpoint at sweep %d: %s", iteration, path)
                if (
                    stop_requested is not None
                    and iteration < num_iterations
                    and stop_requested()
                ):
                    # Stop at this sweep boundary: the count state is
                    # consistent here, so the final checkpoint (when
                    # enabled) resumes bit-identically.
                    final = None
                    if checkpoint_every is not None:
                        assert checkpoint_dir is not None
                        if (
                            last_checkpoint is not None
                            and last_checkpoint[0] == iteration
                        ):
                            final = last_checkpoint[1]
                        else:
                            with trace.span("checkpoint_write", sweep=iteration):
                                final = self._write_checkpoint(
                                    checkpoint_dir,
                                    iteration,
                                    state,
                                    hp,
                                    monitor,
                                    samples,
                                    fit_settings=fit_settings,
                                )
                            if telemetry.enabled:
                                telemetry.metrics.counter(
                                    "checkpoints_total"
                                ).inc()
                    if telemetry.enabled:
                        telemetry.emit("interrupt", sweep=iteration)
                    _log.info(
                        "stop requested: interrupting at sweep %d", iteration
                    )
                    raise TrainingInterrupted(iteration, final)
            telemetry.end(sweeps=num_iterations - start_iteration)
        finally:
            telemetry.close()

        if not samples:
            samples.append(estimate_from_state(state, hp))
        monitor.degenerate_draws = state.degenerate_draws
        self.state_ = state
        self.monitor_ = monitor
        self.hyperparameters = hp
        self.estimates_ = average_estimates(samples)

    # -- incremental updates -----------------------------------------------------

    def update(
        self,
        events: CorpusIncrement | Iterable[PostEvent | LinkEvent],
        *,
        stream: StreamConfig | None = None,
    ) -> UpdateReport:
        """Fold new events into the live sampler and resample a window.

        The streaming counterpart of :meth:`fit`: new posts/links join the
        Gibbs counters with random initial assignments, then
        ``update_sweeps`` restricted sweeps resample only the *window* —
        the new items, a tail of the ``window_posts``/``window_links``
        most recent pre-existing ones, and (``resample_fraction``) a
        random defrost sample of the frozen region.  Frozen assignments
        keep contributing their counts to every conditional, so this is
        windowed resampling over converged state, not a cold start.
        Estimates are re-averaged from the last ``sample_last`` sweeps
        (grown dimensions make pre-update samples unaveragable) and the
        joint likelihood is appended to ``monitor_``.

        ``events`` is either a ready-made
        :class:`~repro.datasets.stream.CorpusIncrement` (in the model's
        global id space) or raw :class:`PostEvent`/:class:`LinkEvent`
        items — the latter require an incremental builder on
        ``stream_builder_`` (an :class:`repro.streaming.OnlineTrainer`
        attaches one).  Vocabulary/user/time-grid growth is append-only;
        new psi columns start with prior mass.  ``stream`` overrides the
        model-level :class:`StreamConfig` for this call.
        """
        if self.state_ is None or self.hyperparameters is None:
            raise ModelError(
                "update() requires a fitted sampler state; fit() first "
                "(load()ed models carry estimates only)"
            )
        if self.corpus_ is not None and getattr(self.corpus_, "packed_path", None):
            raise ModelError(
                "update() cannot grow a packed corpus (the .coldpack file "
                "is immutable); fit an in-RAM SocialCorpus for streaming "
                "updates, or rebuild the packed file with the new events"
            )
        cfg = stream or self.stream or StreamConfig()
        if isinstance(events, CorpusIncrement):
            increment = events
        else:
            builder = self.stream_builder_
            if builder is None or not builder.incremental:
                raise ModelError(
                    "raw events need an incremental CorpusStreamBuilder on "
                    "stream_builder_; pass a CorpusIncrement or use "
                    "repro.streaming.OnlineTrainer"
                )
            for event in events:
                if isinstance(event, PostEvent):
                    builder.add_post(event.author_key, event.tokens, event.time)
                elif isinstance(event, LinkEvent):
                    builder.add_link(
                        event.source_key, event.target_key, event.time
                    )
                else:
                    raise ModelError(
                        f"expected PostEvent or LinkEvent, got "
                        f"{type(event).__name__}"
                    )
            increment = builder.pop_increment(
                rollover=cfg.rollover, max_new_slices=cfg.max_new_slices
            )

        state = self.state_
        hp = self.hyperparameters
        start = time.perf_counter()
        users_before = state.n_user_comm.shape[0]
        vocab_before = state.n_topic_word.shape[1]
        slices_before = state.n_comm_topic_time.shape[2]
        posts_before = state.num_posts
        links_before = state.num_links

        # One conversion of the new posts to columns serves the state and
        # the corpus.
        columns = post_columns(increment.posts)
        new_posts, new_links = state.fold_increment(
            PostTable.from_columns(*columns),
            increment.links,
            max(increment.num_users, users_before),
            max(increment.vocab_size, vocab_before),
            max(increment.num_time_slices, slices_before),
            self._rng,
            include_network=self.include_network,
        )

        # The corpus grew, so the fast-path cache is rebuilt wholesale —
        # SweepCache.refresh() only covers same-shape assignment churn.
        cache = None
        if self.fast:
            from .fastgibbs import SweepCache

            cache = SweepCache(state, hp)

        post_window = self._resample_window(
            new_posts, posts_before, cfg.window_posts, cfg.resample_fraction
        )
        link_window = self._resample_window(
            new_links, links_before, cfg.window_links, cfg.resample_fraction
        )

        samples: list[ParameterEstimates] = []
        for sweep_index in range(cfg.update_sweeps):
            with trace.span("update_sweep", sweep=sweep_index + 1):
                sweep(
                    state,
                    hp,
                    self._rng,
                    post_order=self._rng.permutation(post_window),
                    link_order=self._rng.permutation(link_window),
                    cache=cache,
                )
            if sweep_index >= cfg.update_sweeps - cfg.sample_last:
                samples.append(estimate_from_state(state, hp))
        self.estimates_ = average_estimates(samples)
        log_likelihood = joint_log_likelihood(state, hp)
        if self.monitor_ is not None:
            self.monitor_.record(log_likelihood)
            self.monitor_.degenerate_draws = state.degenerate_draws
        self._fold_into_corpus(increment, columns)
        self.update_count_ += 1
        return UpdateReport(
            update_index=self.update_count_,
            new_posts=len(new_posts),
            new_links=len(new_links),
            new_users=state.n_user_comm.shape[0] - users_before,
            new_terms=state.n_topic_word.shape[1] - vocab_before,
            new_slices=state.n_comm_topic_time.shape[2] - slices_before,
            window_posts=len(post_window),
            window_links=len(link_window),
            sweeps=cfg.update_sweeps,
            seconds=time.perf_counter() - start,
            log_likelihood=log_likelihood,
        )

    def _resample_window(
        self,
        new_indices: np.ndarray,
        size_before: int,
        tail: int,
        resample_fraction: float,
    ) -> np.ndarray:
        """New indices + recent tail + a random defrost of the frozen rest."""
        tail = min(tail, size_before)
        parts = [new_indices, np.arange(size_before - tail, size_before)]
        frozen = size_before - tail
        defrost = int(frozen * resample_fraction)
        if defrost > 0:
            parts.append(
                self._rng.choice(frozen, size=defrost, replace=False)
            )
        return np.concatenate(parts)

    def _fold_into_corpus(
        self, increment: CorpusIncrement, columns: tuple[np.ndarray, ...]
    ) -> None:
        """Mirror an applied increment, its posts given as ``columns``
        (:func:`~repro.datasets.corpus.post_columns`), onto the attached
        ``corpus_``."""
        corpus = self.corpus_
        if corpus is None:
            return
        corpus.num_users = max(corpus.num_users, increment.num_users)
        corpus.num_time_slices = max(
            corpus.num_time_slices, increment.num_time_slices
        )
        if increment.vocab_size > corpus.vocab_size:
            if corpus.vocabulary is not None and increment.new_tokens:
                from ..datasets.vocabulary import Vocabulary

                corpus.vocabulary = Vocabulary(
                    corpus.vocabulary.to_list() + list(increment.new_tokens)
                ).freeze()
            else:
                corpus.vocabulary = None
            corpus.vocab_size = increment.vocab_size
        # The same dedup as fold_increment: self-links, known edges and
        # repeats within the increment are dropped.
        corpus.extend_columns(*columns, increment.links)

    # -- checkpoint/resume -----------------------------------------------------

    def _write_checkpoint(
        self,
        directory: str | Path,
        iteration: int,
        state: CountState,
        hp: Hyperparameters,
        monitor: ConvergenceMonitor,
        samples: list[ParameterEstimates],
        fit_settings: dict,
    ) -> Path:
        """Persist the complete sampler state for sweep ``iteration``."""
        arrays = state.to_arrays()
        for name in ("pi", "theta", "phi", "psi", "eta"):
            if samples:
                arrays[f"samples_{name}"] = np.stack(
                    [getattr(sample, name) for sample in samples]
                )
        meta = {
            "model": {
                "num_communities": self.num_communities,
                "num_topics": self.num_topics,
                "include_network": self.include_network,
                "kappa": self.kappa,
                "prior": self.prior,
                "seed": self.seed,
                "fast": self.fast,
                "executor": self.executor,
                "num_nodes": self.num_nodes,
                "num_workers": self.num_workers,
                "metrics_out": self.metrics_out,
                "trace_out": self.trace_out,
                "stream": None if self.stream is None else asdict(self.stream),
            },
            "hyperparameters": {
                "rho": hp.rho,
                "alpha": hp.alpha,
                "beta": hp.beta,
                "epsilon": hp.epsilon,
                "lambda0": hp.lambda0,
                "lambda1": hp.lambda1,
            },
            "fit": fit_settings,
            "rng_state": self._rng.bit_generator.state,
            "monitor": {
                "window": monitor.window,
                "tolerance": monitor.tolerance,
                "trace": list(monitor.trace),
            },
            "degenerate_draws": int(state.degenerate_draws),
            "num_samples": len(samples),
            # Streaming lineage: which incremental generation this state
            # is, and which checkpoint it grew from (None for the first).
            "lineage": {
                "generation": self.update_count_,
                "parent": self._checkpoint_parent,
            },
        }
        path = save_checkpoint(directory, iteration, arrays, meta)
        self._checkpoint_parent = path.name
        return path

    def checkpoint(self, directory: str | Path, iteration: int) -> Path:
        """Write an atomic checkpoint of the current fitted state.

        The streaming counterpart of ``fit(checkpoint_every=...)``: an
        :class:`~repro.streaming.OnlineTrainer` calls this between
        updates, so a killed stream restarts from the latest fold instead
        of the initial batch fit.  The checkpoint rides the existing
        validated format (checksums, newest-valid-first recovery) plus
        lineage metadata — ``meta["lineage"]`` records the incremental
        generation and the parent checkpoint file.  ``iteration`` is the
        checkpoint's sequence stamp (monotonically increasing per
        directory; the trainer uses the update index).
        """
        if self.state_ is None or self.hyperparameters is None:
            raise ModelError(
                "checkpoint() requires a fitted sampler state; fit() first"
            )
        monitor = self.monitor_ or ConvergenceMonitor()
        return self._write_checkpoint(
            directory,
            iteration,
            self.state_,
            self.hyperparameters,
            monitor,
            samples=[],
            fit_settings={
                "num_iterations": iteration,
                "burn_in": 0,
                "sample_interval": 1,
                "likelihood_interval": 0,
                "checkpoint_every": 1,
            },
        )

    @classmethod
    def resume(
        cls,
        path: str | Path,
        corpus: SocialCorpus | None = None,
        callback: Callable[[int, "COLDModel"], None] | None = None,
        check_invariants: bool = False,
        diagnostics=None,
        stop_requested: Callable[[], bool] | None = None,
    ) -> "COLDModel":
        """Continue a checkpointed fit to completion; returns the fitted model.

        ``path`` may be a checkpoint directory (the newest *valid*
        checkpoint is used — corrupted or truncated ones are skipped), a
        manifest file, or a data file.  The resumed chain is bit-identical
        to the uninterrupted fit: the checkpoint carries the full count
        state, the RNG bit-generator state, the likelihood trace, and all
        collected estimate samples.  Checkpoints keep being written to the
        same directory with the original cadence.

        ``corpus`` is optional (the checkpoint is self-contained) and only
        attaches the corpus to the returned model for downstream analysis.
        """
        arrays, meta, iteration = load_checkpoint(path)
        try:
            model_cfg = dict(meta["model"])
            hp = Hyperparameters(**meta["hyperparameters"])
            fit_settings = dict(meta["fit"])
            rng_state = meta["rng_state"]
            monitor_cfg = dict(meta["monitor"])
            num_samples = int(meta["num_samples"])
            degenerate_draws = int(meta.get("degenerate_draws", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint meta: {exc}") from exc

        try:
            model = cls(hyperparameters=hp, **model_cfg)
        except (TypeError, ModelError) as exc:
            raise CheckpointError(f"{path}: invalid model config: {exc}") from exc
        lineage = meta.get("lineage") or {}
        model.update_count_ = int(lineage.get("generation", 0))
        model._checkpoint_parent = lineage.get("parent")
        try:
            model._rng = np.random.default_rng()
            model._rng.bit_generator.state = rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: invalid RNG state: {exc}") from exc

        try:
            state = CountState.from_arrays(
                arrays,
                model.num_communities,
                model.num_topics,
                degenerate_draws=degenerate_draws,
            )
        except StateError as exc:
            raise CheckpointError(f"{path}: inconsistent state arrays: {exc}") from exc

        samples = []
        if num_samples:
            try:
                stacks = {
                    name: arrays[f"samples_{name}"]
                    for name in ("pi", "theta", "phi", "psi", "eta")
                }
            except KeyError as exc:
                raise CheckpointError(
                    f"{path}: checkpoint missing sample array {exc}"
                ) from exc
            if any(len(stack) != num_samples for stack in stacks.values()):
                raise CheckpointError(f"{path}: sample stack lengths disagree")
            samples = [
                ParameterEstimates(
                    **{name: stack[i].copy() for name, stack in stacks.items()}
                )
                for i in range(num_samples)
            ]

        monitor = ConvergenceMonitor(
            window=int(monitor_cfg.get("window", 5)),
            tolerance=float(monitor_cfg.get("tolerance", 1e-4)),
            trace=[float(v) for v in monitor_cfg.get("trace", [])],
            degenerate_draws=degenerate_draws,
        )

        checkpoint_dir = Path(path)
        if not checkpoint_dir.is_dir():
            checkpoint_dir = checkpoint_dir.parent
        try:
            model._fit_loop(
                state=state,
                hp=hp,
                monitor=monitor,
                samples=samples,
                start_iteration=iteration,
                num_iterations=int(fit_settings["num_iterations"]),
                burn_in=int(fit_settings["burn_in"]),
                sample_interval=int(fit_settings["sample_interval"]),
                likelihood_interval=int(fit_settings["likelihood_interval"]),
                callback=callback,
                check_invariants=check_invariants,
                checkpoint_every=int(fit_settings["checkpoint_every"]),
                checkpoint_dir=checkpoint_dir,
                diagnostics=diagnostics,
                stop_requested=stop_requested,
            )
        except KeyError as exc:
            raise CheckpointError(
                f"{path}: checkpoint missing fit setting {exc}"
            ) from exc
        model.corpus_ = corpus
        return model

    def _resolve_hyperparameters(self, corpus: SocialCorpus) -> Hyperparameters:
        if self.hyperparameters is not None:
            return self.hyperparameters
        network_corpus = corpus if self.include_network else None
        if self.prior == "scaled":
            return Hyperparameters.scaled(
                self.num_communities, self.num_topics, network_corpus
            )
        return Hyperparameters.default(
            self.num_communities, self.num_topics, network_corpus, kappa=self.kappa
        )

    # -- estimated distributions -------------------------------------------------

    def _require_fit(self) -> ParameterEstimates:
        if self.estimates_ is None:
            raise ModelError("model is not fitted; call fit() first")
        return self.estimates_

    @property
    def pi_(self) -> np.ndarray:
        """User community memberships, ``(U, C)``."""
        return self._require_fit().pi

    @property
    def theta_(self) -> np.ndarray:
        """Community topic interests, ``(C, K)``."""
        return self._require_fit().theta

    @property
    def phi_(self) -> np.ndarray:
        """Topic word distributions, ``(K, V)``."""
        return self._require_fit().phi

    @property
    def psi_(self) -> np.ndarray:
        """Community-specific temporal distributions, ``(K, C, T)``."""
        return self._require_fit().psi

    @property
    def eta_(self) -> np.ndarray:
        """Inter-community influence strengths, ``(C, C)``."""
        return self._require_fit().eta

    @property
    def fitted(self) -> bool:
        return self.estimates_ is not None

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist configuration + estimates (two files: .json and .npz).

        Both files are written atomically (temp file + ``os.replace``), so
        a crash mid-save leaves any previous artefact intact rather than a
        half-written one.
        """
        estimates = self._require_fit()
        path = Path(path)
        hp = self.hyperparameters
        config = {
            "num_communities": self.num_communities,
            "num_topics": self.num_topics,
            "include_network": self.include_network,
            "kappa": self.kappa,
            "prior": self.prior,
            "seed": self.seed,
            "fast": self.fast,
            "executor": self.executor,
            "num_nodes": self.num_nodes,
            "num_workers": self.num_workers,
            "stream": None if self.stream is None else asdict(self.stream),
            "hyperparameters": None
            if hp is None
            else {
                "rho": hp.rho,
                "alpha": hp.alpha,
                "beta": hp.beta,
                "epsilon": hp.epsilon,
                "lambda0": hp.lambda0,
                "lambda1": hp.lambda1,
            },
        }
        atomic_write_text(path.with_suffix(".json"), json.dumps(config, indent=2))
        estimates.save(path.with_suffix(".npz"))

    @classmethod
    def load(cls, path: str | Path) -> "COLDModel":
        """Load a model written by :meth:`save` (fitted, ready to predict).

        Raises :class:`ModelError` on corrupt or incomplete config files
        (never a bare ``KeyError``); missing files surface as
        ``FileNotFoundError``.
        """
        path = Path(path)
        config_path = path.with_suffix(".json")
        if not config_path.is_file():
            raise FileNotFoundError(f"no model config at {config_path}")
        try:
            config = json.loads(config_path.read_text())
            hp_dict = config.pop("hyperparameters")
            hyperparameters = None if hp_dict is None else Hyperparameters(**hp_dict)
            model = cls(hyperparameters=hyperparameters, **config)
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ModelError(f"{config_path}: corrupt model config: {exc}") from exc
        model.estimates_ = ParameterEstimates.load(path.with_suffix(".npz"))
        return model

    def __repr__(self) -> str:
        status = "fitted" if self.fitted else "unfitted"
        network = "network" if self.include_network else "no-link"
        return (
            f"COLDModel(C={self.num_communities}, K={self.num_topics}, "
            f"{network}, {status})"
        )
