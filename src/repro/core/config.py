"""Frozen run configuration for the COLD model (the stable public surface).

:class:`COLDConfig` consolidates every knob a COLD study needs — latent
dimensions, time-slice expectations, prior strengths, sampler schedule,
and the fast/reference kernel switch — into one validated, hashable value
object.  It is what :func:`repro.api.fit` consumes and what the CLI builds
from its flags, replacing the 10+ loose kwargs that used to thread through
every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .._compat import warn_renamed_field
from ..telemetry.logconfig import parse_level
from .params import Hyperparameters


class ConfigError(ValueError):
    """Raised for invalid COLD run configurations."""


@dataclass(frozen=True, kw_only=True)
class StreamConfig:
    """Knobs of online incremental inference (:meth:`repro.COLDModel.update`).

    Streaming settings are nested here instead of growing more flat
    top-level :class:`COLDConfig` fields; pass one as ``COLDConfig(
    stream=StreamConfig(...))`` or per-update via ``model.update(events,
    stream=...)``.

    Attributes
    ----------
    window_posts, window_links:
        How many of the most recent *pre-existing* posts/links are
        resampled alongside the new ones on each update.  Everything
        older keeps its converged assignments (but still contributes its
        counts to every conditional).
    resample_fraction:
        Additionally resample this fraction of the frozen region,
        uniformly at random, each update — a slow defrost that keeps
        long-frozen state from ossifying as the posterior drifts.  ``0``
        (the default) freezes it completely.
    update_sweeps:
        Restricted Gibbs sweeps per update batch.
    sample_last:
        Estimates are averaged from the last this-many update sweeps
        (grown dimensions make pre-update samples unaveragable).
    rollover:
        What to do with events whose wall-clock time falls beyond the
        fitted time grid: ``"grow"`` appends new slices (psi gains
        columns initialised with prior mass), ``"clamp"`` maps them into
        the last slice, ``"error"`` raises.
    publish_interval:
        An :class:`~repro.streaming.OnlineTrainer` publishes the model
        (for serving hot-swap) every this many updates.
    checkpoint_interval:
        The trainer writes an atomic checkpoint every this many updates;
        ``None`` disables streaming checkpoints.
    max_new_slices:
        Upper bound on time-grid growth in one update; a stream whose
        stamps jump far past the fitted span (clock bugs, wrong units)
        fails loudly instead of allocating an absurd grid.
    """

    window_posts: int = 512
    window_links: int = 512
    resample_fraction: float = 0.0
    update_sweeps: int = 8
    sample_last: int = 3
    rollover: str = "grow"
    publish_interval: int = 1
    checkpoint_interval: int | None = None
    max_new_slices: int = 256

    def __post_init__(self) -> None:
        if self.window_posts < 0 or self.window_links < 0:
            raise ConfigError("window_posts and window_links must be >= 0")
        if not 0.0 <= self.resample_fraction <= 1.0:
            raise ConfigError(
                f"resample_fraction must lie in [0, 1], "
                f"got {self.resample_fraction}"
            )
        if self.update_sweeps <= 0:
            raise ConfigError("update_sweeps must be positive")
        if not 1 <= self.sample_last <= self.update_sweeps:
            raise ConfigError(
                "sample_last must lie in [1, update_sweeps]"
            )
        if self.rollover not in ("grow", "clamp", "error"):
            raise ConfigError(
                "rollover must be 'grow', 'clamp', or 'error', "
                f"got {self.rollover!r}"
            )
        if self.publish_interval <= 0:
            raise ConfigError("publish_interval must be positive")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive when given")
        if self.max_new_slices <= 0:
            raise ConfigError("max_new_slices must be positive")


#: StreamConfig field names, for the deprecated flat-alias path below.
_STREAM_FIELDS = frozenset(f.name for f in fields(StreamConfig))


@dataclass(frozen=True, kw_only=True)
class COLDConfig:
    """Everything needed to reproduce one COLD fit.

    Attributes
    ----------
    num_communities, num_topics:
        Latent dimensions ``C`` and ``K``.
    num_time_slices:
        Expected corpus time grid ``T``; ``None`` accepts whatever the
        corpus carries, an explicit value makes :func:`repro.api.fit` fail
        fast on a corpus with a different grid (a common silent mistake
        when mixing hourly and daily exports).
    hyperparameters:
        Explicit prior strengths; ``None`` derives them from ``prior``.
    include_network:
        ``False`` gives the paper's COLD-NoLink ablation.
    kappa:
        Weight of the implicit-negative-link prior (§3.3).
    prior:
        ``"paper"`` (§6.5 rules, Weibo scale) or ``"scaled"`` (laptop
        scale); ignored when ``hyperparameters`` is given.
    seed:
        Sampler RNG seed; fits are reproducible given a seed.
    fast:
        Use the native sweep kernel (the reference kernels' draws, many
        times faster); ``False`` selects the reference kernels, kept as
        the correctness oracle.
    executor:
        How parallel node work runs when ``num_nodes > 1``:
        ``"simulated"`` (sequential with simulated-cluster timing),
        ``"threads"`` (thread pool), or ``"processes"`` (shared-memory
        worker processes; true multi-core).  All three draw the identical
        chain for a given seed and node count.
    num_nodes:
        Cluster nodes (shards) of the parallel sampler; ``1`` keeps the
        serial sampler.
    num_workers:
        Worker processes for the ``processes`` executor (defaults to
        ``num_nodes``); fewer workers multiplexes shards over the pool
        without changing the draws.
    num_iterations, burn_in, sample_interval, likelihood_interval:
        The Gibbs schedule, as in :meth:`repro.COLDModel.fit`.
    metrics_out, trace_out:
        Telemetry destinations (see :mod:`repro.telemetry`): a JSONL
        metrics stream (tailable with ``cold monitor``) and a Chrome
        ``trace_event`` JSON file.  ``None`` keeps instrumentation a
        no-op; draws are bit-identical either way.
    log_level:
        When set (``"debug"``/``"info"``/...), :func:`repro.api.fit`
        configures the package's structured logging at this level before
        fitting; ``None`` leaves logging untouched.
    """

    num_communities: int = 20
    num_topics: int = 20
    num_time_slices: int | None = None
    hyperparameters: Hyperparameters | None = None
    include_network: bool = True
    kappa: float = 1.0
    prior: str = "paper"
    seed: int = 0
    fast: bool = True
    executor: str = "simulated"
    num_nodes: int = 1
    num_workers: int | None = None
    num_iterations: int = 100
    burn_in: int | None = None
    sample_interval: int = 5
    likelihood_interval: int = 10
    metrics_out: str | None = None
    trace_out: str | None = None
    log_level: str | None = None
    stream: StreamConfig | None = None

    #: Fields consumed by ``COLDModel.__init__`` (the rest schedule ``fit``).
    _MODEL_FIELDS = (
        "num_communities",
        "num_topics",
        "hyperparameters",
        "include_network",
        "kappa",
        "prior",
        "seed",
        "fast",
        "executor",
        "num_nodes",
        "num_workers",
        "metrics_out",
        "trace_out",
        "stream",
    )

    def __post_init__(self) -> None:
        if self.num_communities <= 0 or self.num_topics <= 0:
            raise ConfigError("num_communities and num_topics must be positive")
        if self.num_time_slices is not None and self.num_time_slices <= 0:
            raise ConfigError("num_time_slices must be positive when given")
        if self.prior not in ("paper", "scaled"):
            raise ConfigError(f"prior must be 'paper' or 'scaled', got {self.prior!r}")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.executor not in ("simulated", "threads", "processes"):
            raise ConfigError(
                "executor must be 'simulated', 'threads', or 'processes', "
                f"got {self.executor!r}"
            )
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if self.num_workers is not None and self.num_workers <= 0:
            raise ConfigError("num_workers must be positive when given")
        if self.num_workers is not None and self.executor != "processes":
            raise ConfigError(
                "num_workers only applies to the 'processes' executor"
            )
        if self.num_iterations <= 0:
            raise ConfigError("num_iterations must be positive")
        if self.burn_in is not None and not 0 <= self.burn_in < self.num_iterations:
            raise ConfigError("burn_in must lie in [0, num_iterations)")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        if self.likelihood_interval < 0:
            raise ConfigError("likelihood_interval must be >= 0")
        if self.log_level is not None:
            try:
                parse_level(self.log_level)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.stream is not None:
            if isinstance(self.stream, dict):
                # Round-tripped configs (saved models, checkpoints) carry
                # the nested StreamConfig as a plain mapping.
                try:
                    object.__setattr__(
                        self, "stream", StreamConfig(**self.stream)
                    )
                except TypeError as exc:
                    raise ConfigError(f"invalid stream config: {exc}") from exc
            elif not isinstance(self.stream, StreamConfig):
                raise ConfigError(
                    "stream must be a StreamConfig (or None), "
                    f"got {type(self.stream).__name__}"
                )

    def model_kwargs(self) -> dict:
        """The subset of fields ``COLDModel.__init__`` consumes."""
        return {name: getattr(self, name) for name in self._MODEL_FIELDS}

    def fit_kwargs(self) -> dict:
        """The subset of fields that schedule ``COLDModel.fit``."""
        return {
            "num_iterations": self.num_iterations,
            "burn_in": self.burn_in,
            "sample_interval": self.sample_interval,
            "likelihood_interval": self.likelihood_interval,
        }

    def evolve(self, **changes: object) -> "COLDConfig":
        """A copy with ``changes`` applied (validated like a fresh config).

        Flat ``stream_<field>`` keywords (the pre-:class:`StreamConfig`
        spelling) are still accepted but deprecated: each warns once per
        process and folds into the nested ``stream`` config.  Use
        ``evolve(stream=StreamConfig(...))`` going forward.
        """
        flat = {
            name: changes.pop(name)
            for name in list(changes)
            if name.startswith("stream_")
            and name[len("stream_"):] in _STREAM_FIELDS
        }
        if flat:
            stream = changes.get("stream", self.stream)
            if stream is None:
                stream = StreamConfig()
            if not isinstance(stream, StreamConfig):
                raise ConfigError(
                    "stream must be a StreamConfig when combining with "
                    "deprecated stream_* keywords"
                )
            for name in flat:
                warn_renamed_field(
                    f"COLDConfig.{name}",
                    f"COLDConfig.stream.{name[len('stream_'):]}",
                )
            changes["stream"] = replace(
                stream,
                **{name[len("stream_"):]: value for name, value in flat.items()},
            )
        known = {f.name for f in fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise ConfigError(
                f"unknown COLDConfig field(s): {', '.join(sorted(unknown))}"
            )
        return replace(self, **changes)  # type: ignore[arg-type]
