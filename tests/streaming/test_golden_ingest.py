"""Golden digests of the streaming ingest path on the MEDIUM world.

The e2e benchmark's MEDIUM world at seed 7 goes through
``corpus_to_events``, a 60/40 ``split_events``, an incremental
``CorpusStreamBuilder.build`` and three ``pop_increment`` batches over the
rest of the stream.  Each output is pinned by the sha256 of everything it
carries, so a change to the event order, user or token interning, the
low-activity filter or the time slicing (rollover included: the later
batches grow the grid) fails here by name.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.datasets.stream import CorpusStreamBuilder, PostEvent
from repro.datasets.synthetic import SyntheticConfig, generate_corpus
from repro.streaming import corpus_to_events, split_events

MEDIUM_WORLD = SyntheticConfig(
    num_users=600,
    num_communities=10,
    num_topics=20,
    num_time_slices=12,
    vocab_size=2000,
    mean_posts_per_user=8.0,
    mean_words_per_post=40.0,
    mean_links_per_user=3.0,
    seed=7,
)

EVENTS_SHA256 = "2c943b5ed48bbab42f173cdfc730b1c202d4afd1872ae56a5381d96c089772b6"

#: ``min_posts_per_user`` -> (bootstrap corpus, increments 1-3).
BUILD_SHA256 = {
    1: (
        "f168bfea33dacc66a8c17e76b2081ff4b8ef99422bf7b80aa6ef0db1e493cbee",
        (
            "9292db5d8c3b2429559c0bcdc0304563366c7b58dc49aca09a5d8af24414798a",
            "4e42d8a345f124fc9db16ccfff29faa3aee42574ba8468536eb703406a37df97",
            "ee1c6c13a4f88f4b6942ccd45fb6d91068089f387c54e09fe27978707bad6c96",
        ),
    ),
    3: (
        "991ef5ca3a0ae6bcc51c9ee3fe07fe1eebba7d042ea881ab0044fc8d298937e4",
        (
            "d948ceb6de48a594b832e494b50804e57fd3e6f9c367d387884c62a092534baa",
            "7709e86bd1592b431629dee989650b3e4d015b9aa25d4a18e306daedd8a6f3d4",
            "4939a463ca3118ef744652443747edfdd9a990bce3913b3a6e59e689d150bdeb",
        ),
    ),
}


def _feed(builder: CorpusStreamBuilder, events) -> None:
    for event in events:
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)


def _digest(*parts) -> str:
    """sha256 over int64 arrays (as little-endian bytes) and JSON values."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
        else:
            digest.update(json.dumps(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _events_digest(events) -> str:
    return _digest([
        ["post", e.author_key, list(e.tokens), e.time]
        if isinstance(e, PostEvent)
        else ["link", e.source_key, e.target_key, e.time]
        for e in events
    ])


def _corpus_digest(corpus) -> str:
    return _digest(
        [corpus.num_users, corpus.num_time_slices, corpus.vocab_size],
        corpus.vocabulary.to_list(),
        corpus.post_authors, corpus.post_times, corpus.post_lengths,
        corpus.token_offsets, corpus.tokens, corpus.link_array(),
    )


def _increment_digest(increment) -> str:
    return _digest(
        [[p.author, list(p.words), p.timestamp] for p in increment.posts],
        [list(link) for link in increment.links],
        [increment.num_users, increment.vocab_size, increment.num_time_slices],
        list(increment.new_tokens),
    )


@pytest.fixture(scope="module")
def medium_events():
    corpus, _truth = generate_corpus(MEDIUM_WORLD)
    return corpus_to_events(corpus)


def test_corpus_to_events_is_pinned(medium_events):
    assert _events_digest(medium_events) == EVENTS_SHA256


@pytest.mark.parametrize("min_posts", sorted(BUILD_SHA256))
def test_build_and_increments_are_pinned(medium_events, min_posts):
    bootstrap, remainder = split_events(medium_events, 0.6)
    builder = CorpusStreamBuilder(
        num_time_slices=MEDIUM_WORLD.num_time_slices,
        min_posts_per_user=min_posts,
    )
    _feed(builder, bootstrap)
    got_corpus = _corpus_digest(builder.build(incremental=True))
    got_increments = []
    size = -(-len(remainder) // 3)
    for start in range(0, len(remainder), size):
        _feed(builder, remainder[start:start + size])
        got_increments.append(_increment_digest(builder.pop_increment()))
    assert (got_corpus, tuple(got_increments)) == BUILD_SHA256[min_posts]
