"""Opt-in perf gate: incremental updates must beat a full batch refit.

Run with ``pytest benchmarks/perf -m perf``.  Excluded from the default
suite (``-m 'not perf'`` in pyproject) because it asserts on
machine-dependent wall-clock timings.

The gate pins the streaming subsystem's reason to exist: folding a
batch of new events into the live sampler and resampling only the
window must be at least 5x cheaper than refitting the grown corpus
from scratch — while staying statistically equivalent to a batch refit
(label-switching-invariant split R-hat over the pooled log-likelihood
chains, judged against the seed-to-seed noise floor of independent
refits, since the posterior is multimodal at benchmark scale).  The 5x
floor is the acceptance threshold; a quiet machine clears it by a wide
margin.  The end-to-end harness (``benchmarks/e2e``, workload
``stream``) times the whole event-to-servable pipeline.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.core.config import StreamConfig
from repro.core.model import COLDModel
from repro.datasets.stream import CorpusStreamBuilder, PostEvent
from repro.perf import MEDIUM
from repro.streaming.equivalence import equivalence_report
from repro.streaming.events import corpus_to_events, split_events

pytestmark = pytest.mark.perf

NUM_UPDATES = 5
FIT_ITERATIONS = 60
EQUIVALENCE_SWEEPS = 24


def _model(seed: int) -> COLDModel:
    return COLDModel(
        num_communities=MEDIUM.num_communities,
        num_topics=MEDIUM.num_topics,
        seed=seed,
        stream=StreamConfig(update_sweeps=8),
    )


def _timed_fit(model: COLDModel, corpus) -> float:
    start = time.perf_counter()
    model.fit(corpus, num_iterations=FIT_ITERATIONS)
    return time.perf_counter() - start


def test_medium_case_updates_beat_refit():
    # The medium corpus round-trips to a wall-clock event stream: the
    # head 60% is batch-fitted, the tail folds in through update().
    bootstrap, remainder = split_events(
        corpus_to_events(MEDIUM.build_corpus()), 0.6
    )
    builder = CorpusStreamBuilder(num_time_slices=MEDIUM.num_time_slices)
    for event in bootstrap:
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)
    model = _model(MEDIUM.seed)
    model.stream_builder_ = builder
    model.fit(builder.build(incremental=True), num_iterations=FIT_ITERATIONS)

    chunk = max(1, math.ceil(len(remainder) / NUM_UPDATES))
    updates = [
        model.update(remainder[index:index + chunk])
        for index in range(0, len(remainder), chunk)
    ]
    assert updates, "no incremental updates ran"
    mean_update = sum(report.seconds for report in updates) / len(updates)

    # Baseline: refit the final accumulated corpus from scratch at the
    # same budget, twice, so the refits also set the seed-noise floor.
    refits = [_model(MEDIUM.seed + offset) for offset in (1, 2)]
    refit_seconds = [_timed_fit(refit, model.corpus_) for refit in refits]
    speedup = refit_seconds[0] / mean_update
    assert speedup >= 5.0, (
        f"incremental update only {speedup:.1f}x cheaper than a "
        f"full refit (mean {mean_update * 1e3:.0f}ms vs "
        f"{refit_seconds[0] * 1e3:.0f}ms)"
    )

    # Equivalent if strictly equivalent to the closest refit, or no
    # further from the refits than they are from each other.
    closest = min(
        (
            equivalence_report(
                model, refit, sweeps=EQUIVALENCE_SWEEPS, seed=17 * (index + 1)
            )
            for index, refit in enumerate(refits)
        ),
        key=lambda report: report["split_rhat"],
    )
    floor = equivalence_report(
        refits[1], refits[0], sweeps=EQUIVALENCE_SWEEPS, seed=51
    )
    within_noise = (
        closest["split_rhat"]
        <= max(closest["rhat_threshold"], floor["split_rhat"])
        and closest["relative_loglik_gap"]
        <= max(closest["loglik_tolerance"], floor["relative_loglik_gap"])
    )
    assert closest["equivalent"] or within_noise, (
        "incremental posterior diverged from the batch refits: "
        f"closest {closest}, noise floor {floor}"
    )
    # The stream actually exercised growth: every update folded new posts.
    assert all(report.new_posts > 0 for report in updates)
