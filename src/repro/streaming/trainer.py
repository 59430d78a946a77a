"""The online training loop: fold events, update, checkpoint, publish.

:class:`OnlineTrainer` owns the continuous-operation cycle around a
fitted :class:`~repro.core.model.COLDModel`::

    feed(events) -> step() -> [checkpoint] -> [publish] -> subscribers

``step()`` pops the builder's buffered events as one
:class:`~repro.datasets.stream.CorpusIncrement` and applies
:meth:`COLDModel.update`.  Every ``checkpoint_interval`` updates the live
sampler state goes through the existing atomic checkpoint path (with
lineage metadata), and every ``publish_interval`` updates the estimates
are published to a model directory as a versioned artefact pair plus an
atomically-replaced ``MANIFEST.json`` — the signal a
:class:`~repro.streaming.watcher.ModelWatcher` turns into a serving
hot-swap.  Publish subscribers fire synchronously, which is what lets
tests (and the CLI's in-process serving mode) close the train→serve loop
without any polling or sleeps.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from pathlib import Path

from ..core.config import StreamConfig
from ..core.model import COLDModel, ModelError, UpdateReport
from ..datasets.stream import CorpusStreamBuilder, LinkEvent, PostEvent, StreamError
from ..resilience.checkpoint import atomic_write_text
from ..telemetry.logconfig import get_logger
from ..telemetry.metrics import bucket_preset
from ..telemetry.session import TelemetrySession

_log = get_logger(__name__)

#: Name of the publish-directory manifest file.
MANIFEST_NAME = "MANIFEST.json"

#: Manifest schema version (bump on incompatible layout changes).
PUBLISH_SCHEMA_VERSION = 1

#: Published model generations kept on disk (older ones are pruned).
KEEP_GENERATIONS = 2


class OnlineTrainer:
    """Drives continuous incremental training over an event stream.

    Parameters
    ----------
    model:
        A fitted model (its sampler state is the starting point).
    builder:
        The incremental :class:`CorpusStreamBuilder` that produced the
        model's corpus (``build(incremental=True)``); it is attached to
        the model so raw events resolve against the same id space.
    publish_dir:
        Where published model generations land (created on first
        publish).  The manifest inside is always written last and
        atomically, so a watcher never observes a half-published model.
    checkpoint_dir:
        Destination for streaming checkpoints; required iff the stream
        config sets ``checkpoint_interval``.
    metrics_out:
        Optional JSONL telemetry stream (update latency, window sizes,
        vocabulary growth — the ``cold monitor``-tailable feed).
    """

    def __init__(
        self,
        model: COLDModel,
        builder: CorpusStreamBuilder,
        *,
        publish_dir: str | Path,
        checkpoint_dir: str | Path | None = None,
        metrics_out: str | Path | None = None,
    ) -> None:
        if model.state_ is None:
            raise ModelError(
                "OnlineTrainer needs a fitted model; fit() the bootstrap "
                "corpus first"
            )
        if not builder.incremental:
            raise StreamError(
                "OnlineTrainer needs an incremental builder; call "
                "build(incremental=True)"
            )
        self.model = model
        self.builder = builder
        model.stream_builder_ = builder
        self.config = model.stream or StreamConfig()
        if self.config.checkpoint_interval is not None and checkpoint_dir is None:
            raise ModelError(
                "stream config sets checkpoint_interval but no "
                "checkpoint_dir was given"
            )
        self.publish_dir = Path(publish_dir)
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        #: Number of successful publishes (the published generation).
        self.generation = 0
        #: model.update_count_ as of the last publish (drain bookkeeping).
        self._published_updates = model.update_count_
        #: Ingest wall-clock of the newest buffered event (freshness
        #: high-watermark).  Event ``time`` fields are model-time slice
        #: units, not wall-clock, so freshness is measured from when an
        #: event *arrived* — which is also what a production ingest path
        #: would stamp.
        self._ingest_watermark: float | None = None
        #: The ingest watermark already folded into the model state (what
        #: a publish can truthfully claim to contain).
        self._folded_watermark: float | None = None
        self.reports: list[UpdateReport] = []
        self._subscribers: list[Callable[[int, Path], None]] = []
        self._telemetry = TelemetrySession(metrics_path=metrics_out)
        self._telemetry.begin(
            config={"stream": True, "publish_dir": str(self.publish_dir)},
            seed=model.seed,
            num_iterations=0,
        )

    # -- event intake ------------------------------------------------------

    def feed(self, events: Iterable[PostEvent | LinkEvent]) -> int:
        """Buffer raw events into the builder; returns how many were taken."""
        count = 0
        for event in events:
            if isinstance(event, PostEvent):
                self.builder.add_post(event.author_key, event.tokens, event.time)
            elif isinstance(event, LinkEvent):
                self.builder.add_link(
                    event.source_key, event.target_key, event.time
                )
            else:
                raise StreamError(
                    f"expected PostEvent or LinkEvent, got {type(event).__name__}"
                )
            count += 1
        if count:
            self._ingest_watermark = time.time()
        return count

    # -- the update cycle --------------------------------------------------

    def step(self) -> UpdateReport | None:
        """One update cycle over the buffered events.

        Pops the builder's buffer as an increment, applies
        :meth:`COLDModel.update`, then runs the checkpoint and publish
        cadences from the stream config.  Returns the update report, or
        ``None`` when the buffer held nothing actionable.
        """
        if self.builder.num_events == 0:
            return None
        watermark = self._ingest_watermark
        increment = self.builder.pop_increment(
            rollover=self.config.rollover,
            max_new_slices=self.config.max_new_slices,
        )
        if increment.empty:
            return None
        report = self.model.update(increment, stream=self.config)
        self._folded_watermark = watermark
        self.reports.append(report)
        self._record(report)
        if (
            self.config.checkpoint_interval is not None
            and report.update_index % self.config.checkpoint_interval == 0
        ):
            assert self.checkpoint_dir is not None
            path = self.model.checkpoint(self.checkpoint_dir, report.update_index)
            _log.debug("streaming checkpoint -> %s", path)
        if report.update_index % self.config.publish_interval == 0:
            self.publish()
        return report

    def drain(self) -> UpdateReport | None:
        """Final flush: one :meth:`step` plus an unconditional publish.

        Call when the stream ends so the last partial cadence still
        reaches serving.
        """
        report = self.step()
        if self.reports and self.generation_behind():
            self.publish()
        return report

    def generation_behind(self) -> bool:
        """True when updates have been applied since the last publish."""
        return self.model.update_count_ > self._published_updates

    # -- publishing --------------------------------------------------------

    def publish(self) -> int:
        """Publish the current estimates for serving; returns the generation.

        Writes ``model-<generation>`` (the usual ``.json`` + ``.npz``
        artefact pair, each written atomically), then atomically replaces
        ``MANIFEST.json`` pointing at it — publication *is* the manifest
        replacement, so a crash mid-publish leaves the previous
        generation live.  Old generations beyond the last
        :data:`KEEP_GENERATIONS` are pruned.  Subscribers (watchers) run
        synchronously afterwards.
        """
        self.publish_dir.mkdir(parents=True, exist_ok=True)
        generation = self.generation + 1
        stem = self.publish_dir / f"model-{generation:06d}"
        self.model.save(stem)
        published_at = time.time()
        event_to_publish = (
            None
            if self._folded_watermark is None
            else max(0.0, published_at - self._folded_watermark)
        )
        manifest = {
            "schema_version": PUBLISH_SCHEMA_VERSION,
            "generation": generation,
            "model": stem.name,
            "updates": self.model.update_count_,
            "freshness": {
                "published_at": published_at,
                "event_high_watermark": self._folded_watermark,
            },
        }
        atomic_write_text(
            self.publish_dir / MANIFEST_NAME, json.dumps(manifest, indent=2)
        )
        self.generation = generation
        self._published_updates = self.model.update_count_
        self._prune(keep_from=generation - KEEP_GENERATIONS + 1)
        if self._telemetry.enabled:
            self._telemetry.metrics.counter("stream_publishes_total").inc()
            if event_to_publish is not None:
                self._telemetry.metrics.gauge("event_to_publish_seconds").set(
                    event_to_publish
                )
            self._telemetry.emit(
                "publish",
                generation=generation,
                model=stem.name,
                published_at=published_at,
                event_to_publish_seconds=event_to_publish,
            )
        _log.info("published generation %d -> %s", generation, stem)
        for callback in self._subscribers:
            callback(generation, stem)
        return generation

    def subscribe(self, callback: Callable[[int, Path], None]) -> None:
        """Run ``callback(generation, model_path)`` after every publish.

        Callbacks run synchronously on the publishing thread — wiring a
        :meth:`ModelWatcher.poke <repro.streaming.watcher.ModelWatcher.poke>`
        here makes reloads event-driven (no polling, no sleeps).
        """
        self._subscribers.append(callback)

    def _prune(self, keep_from: int) -> None:
        for artefact in self.publish_dir.glob("model-*.json"):
            try:
                generation = int(artefact.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            if generation < keep_from:
                artefact.unlink(missing_ok=True)
                artefact.with_suffix(".npz").unlink(missing_ok=True)

    # -- telemetry ---------------------------------------------------------

    def _record(self, report: UpdateReport) -> None:
        if not self._telemetry.enabled:
            return
        metrics = self._telemetry.metrics
        metrics.counter("stream_updates_total").inc()
        metrics.counter("stream_posts_total").inc(report.new_posts)
        metrics.counter("stream_links_total").inc(report.new_links)
        metrics.histogram(
            "stream_update_seconds", buckets=bucket_preset("streaming_update")
        ).observe(report.seconds)
        metrics.gauge("stream_window_posts").set(report.window_posts)
        assert self.model.state_ is not None
        metrics.gauge("stream_vocab_size").set(
            self.model.state_.n_topic_word.shape[1]
        )
        self._telemetry.emit(
            "update",
            update=report.update_index,
            new_posts=report.new_posts,
            new_links=report.new_links,
            new_users=report.new_users,
            new_terms=report.new_terms,
            new_slices=report.new_slices,
            window_posts=report.window_posts,
            window_links=report.window_links,
            seconds=report.seconds,
            log_likelihood=report.log_likelihood,
        )

    def close(self) -> None:
        """Flush and close the telemetry stream."""
        self._telemetry.end(updates=len(self.reports))
        self._telemetry.close()
