"""The stable high-level API: one config object, three verbs.

Everything a COLD study needs day to day lives here::

    from repro import api

    config = api.COLDConfig(num_communities=8, num_topics=12, seed=0)
    model = api.fit(corpus, config)
    api.save(model, "runs/weibo")
    model = api.load("runs/weibo")

Continuous operation joins the same verb set: :func:`update` folds new
stream events into a fitted model (windowed incremental Gibbs),
:func:`serve` builds the versioned ``/v1/`` HTTP front end over a model,
and :func:`watch` wires a publish directory to the server's validated
hot-swap reload.  All three are keyword-only past their subjects, like
``fit``/``save``/``load``.

:class:`COLDConfig` is a frozen, validated value object — build one per
study, derive variants with :meth:`COLDConfig.evolve`, and every entry
point (this module, the CLI, the benchmark harness) consumes it the same
way.  :func:`fit` runs the native sweep kernel by default
(``config.fast``); it draws the reference kernels' chain, so seeded
results do not depend on the switch.

Convergence tooling is re-exported here too: :func:`run_chains` fits
several independently seeded chains concurrently and :func:`diagnose`
turns their metrics into a :class:`DiagnosticsReport` verdict (the
``cold train --chains`` / ``cold diagnose`` pair, as a library call).

The serving layer's stable surface is re-exported as well:
:class:`ModelServer` answers the four query families in-process over a
saved model's tensors, and :class:`ColdHTTPServer` +
:class:`ServerConfig` are the ``cold serve`` HTTP front end (deadlines,
load shedding, hot-swap reload) for embedding in your own process.

So is the observability plane: :func:`render_prometheus` /
:func:`parse_prometheus_text` convert a :class:`MetricsRegistry` to and
from Prometheus text exposition, :class:`SLOConfig` / :class:`SLOTracker`
track rolling availability/latency objectives and burn rate, and
:func:`request_context` / :func:`get_request_id` /
:func:`new_request_id` carry the per-request correlation id that the
HTTP layer stamps into logs, spans, and response envelopes.

The classes behind these functions (:class:`repro.COLDModel` and
friends) remain public for advanced use — callbacks, checkpointing,
resume, the parallel engine — this module is the stable subset that will
not churn underneath scripts.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .core.config import COLDConfig, ConfigError, StreamConfig
from .core.likelihood import ConvergenceMonitor, joint_log_likelihood
from .core.model import COLDModel, ModelError, UpdateReport
from .datasets.corpus import SocialCorpus
from .datasets.packed import PackedCorpus
from .diagnostics import (
    DiagnosticsReport,
    MultiChainResult,
    QualityStream,
    diagnose,
    run_chains,
)
from .serving import ColdHTTPServer, ModelServer, ServerConfig, ServingError
from .telemetry import (
    SLOConfig,
    SLOTracker,
    get_request_id,
    new_request_id,
    parse_prometheus_text,
    render_prometheus,
    request_context,
)
from .telemetry.logconfig import configure_logging

__all__ = [
    "COLDConfig",
    "ColdHTTPServer",
    "ConfigError",
    "ConvergenceMonitor",
    "DiagnosticsReport",
    "ModelServer",
    "MultiChainResult",
    "PackedCorpus",
    "QualityStream",
    "SLOConfig",
    "SLOTracker",
    "ServerConfig",
    "ServingError",
    "StreamConfig",
    "UpdateReport",
    "configure_logging",
    "diagnose",
    "fit",
    "get_request_id",
    "joint_log_likelihood",
    "load",
    "new_request_id",
    "parse_prometheus_text",
    "render_prometheus",
    "request_context",
    "run_chains",
    "save",
    "serve",
    "update",
    "watch",
]


def fit(
    corpus: SocialCorpus | PackedCorpus,
    config: COLDConfig | None = None,
    **overrides: object,
) -> COLDModel:
    """Fit a COLD model to ``corpus`` and return it.

    ``corpus`` is an in-RAM :class:`SocialCorpus` or a memory-mapped
    :class:`~repro.datasets.packed.PackedCorpus` (open a ``.coldpack``
    file with :func:`repro.datasets.io.load_corpus`); with the
    ``processes`` executor a packed corpus is never copied — workers map
    the file read-only.  ``config`` defaults to ``COLDConfig()``; keyword
    ``overrides`` are applied on top via :meth:`COLDConfig.evolve`, so
    quick experiments don't need an explicit config::

        model = api.fit(corpus, seed=3, num_topics=30)

    Raises :class:`ConfigError` for invalid settings — including a corpus
    whose time grid disagrees with ``config.num_time_slices`` (a common
    silent mistake when mixing hourly and daily exports).
    """
    if config is None:
        config = COLDConfig()
    if overrides:
        config = config.evolve(**overrides)
    if (
        config.num_time_slices is not None
        and corpus.num_time_slices != config.num_time_slices
    ):
        raise ConfigError(
            f"corpus has {corpus.num_time_slices} time slices, config expects "
            f"{config.num_time_slices}"
        )
    if config.log_level is not None:
        configure_logging(level=config.log_level)
    model = COLDModel(config)
    model.fit(corpus, **config.fit_kwargs())
    return model


def save(model: COLDModel, path: str | Path) -> None:
    """Persist a fitted model (config + estimates) at ``path``.

    Writes ``path.json`` and ``path.npz`` atomically; a crash mid-save
    leaves any previous artefact intact.
    """
    model.save(path)


def load(path: str | Path) -> COLDModel:
    """Load a model written by :func:`save`, fitted and ready to use.

    Raises :class:`~repro.core.model.ModelError` on corrupt or incomplete
    artefacts, ``FileNotFoundError`` when they are missing.
    """
    return COLDModel.load(path)


def update(
    model: COLDModel,
    events,
    *,
    stream: StreamConfig | None = None,
) -> UpdateReport:
    """Fold new stream events into a fitted ``model`` incrementally.

    The function form of :meth:`COLDModel.update`: ``events`` is a
    :class:`~repro.datasets.stream.CorpusIncrement` or raw
    ``PostEvent``/``LinkEvent`` items (the latter require the model's
    ``stream_builder_`` — attach one via
    :class:`repro.streaming.OnlineTrainer` or by hand).  ``stream``
    overrides the model's :class:`StreamConfig` for this call.
    """
    return model.update(events, stream=stream)


def serve(
    model: COLDModel | str | Path,
    *,
    config: ServerConfig | None = None,
    **overrides: object,
) -> ColdHTTPServer:
    """Build the versioned HTTP front end over ``model`` (not yet running).

    ``model`` is a fitted model or a saved-model path; ``config``
    defaults to ``ServerConfig()`` with keyword ``overrides`` applied on
    top (``serve(model, port=0, deadline_ms=500)``).  The returned
    :class:`ColdHTTPServer` is bound but not serving — call
    :meth:`~repro.serving.server.ColdHTTPServer.serve_until_shutdown`
    (typically on a thread) and
    :meth:`~repro.serving.server.ColdHTTPServer.begin_drain` to stop;
    pair with :func:`watch` for hot-swap on publish.
    """
    if config is None:
        config = ServerConfig()
    if overrides:
        try:
            config = replace(config, **overrides)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ServingError(f"unknown ServerConfig field: {exc}") from exc
    if isinstance(model, (str, Path)):
        return ColdHTTPServer(config, model_path=model)
    estimates = model._require_fit()
    engine = ModelServer(
        estimates,
        top_comm_size=config.top_comm_size,
        cache_size=config.cache_size,
        ic_simulations=config.ic_simulations,
    )
    return ColdHTTPServer(config, engine=engine)


def watch(
    server: ColdHTTPServer,
    publish_dir: str | Path,
    *,
    poll_interval: float = 1.0,
    start: bool = True,
):
    """Reload ``server`` whenever ``publish_dir``'s manifest advances.

    Returns a started :class:`repro.streaming.ModelWatcher` polling every
    ``poll_interval`` seconds (``start=False`` leaves it stopped — drive
    :meth:`~repro.streaming.watcher.ModelWatcher.poke` yourself, e.g.
    from an :meth:`OnlineTrainer.subscribe
    <repro.streaming.trainer.OnlineTrainer.subscribe>` callback for
    event-driven, sleep-free reloads).
    """
    from .streaming.watcher import ModelWatcher

    watcher = ModelWatcher(server, publish_dir, poll_interval=poll_interval)
    if start:
        watcher.start()
    return watcher
