"""The columnar stream builder against the per-event builder it replaced.

``ReferenceBuilder`` below is that builder's algorithm, one event at a
time: a ``Post`` per post and a ``Vocabulary.add_all`` call per post.  On
arbitrary event streams — stopwords, empty and non-string tokens, the
low-activity filter, stale and out-of-grid stamps under every rollover
policy — the columnar builder must emit the same corpus and increments,
or raise the same error type and message, and a failed
``pop_increment`` must intern nothing.  Non-finite stamps are rejected on
ingest, in the builder, the JSONL reader and the ``cold stream`` CLI.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datasets.corpus import Post, SocialCorpus
from repro.datasets.stream import (
    CorpusIncrement,
    CorpusStreamBuilder,
    RolloverError,
    StaleEventError,
    StreamError,
)
from repro.datasets.vocabulary import Vocabulary
from repro.streaming import read_events


class ReferenceBuilder:
    """The per-event builder: the oracle of :class:`CorpusStreamBuilder`."""

    def __init__(self, num_time_slices, min_posts_per_user, stopwords):
        self.T, self.min_posts = num_time_slices, min_posts_per_user
        self.stopwords = frozenset(stopwords)
        self.posts, self.links = [], []

    def add_post(self, author, tokens, time):
        kept = tuple(t for t in tokens if t and t not in self.stopwords)
        if kept:
            self.posts.append((author, kept, float(time)))

    def add_link(self, source, target, time):
        if source != target:
            self.links.append((source, target))

    def build(self):
        if not self.posts:
            raise StreamError("no post events ingested")
        counts = Counter(author for author, _, _ in self.posts)
        active = {key for key, count in counts.items() if count >= self.min_posts}
        if not active:
            raise StreamError("min_posts_per_user filtered out every user")
        posts = [post for post in self.posts if post[0] in active]
        links = [(s, t) for s, t in self.links if s in active and t in active]
        users = {}
        for author, _, _ in posts:
            users.setdefault(author, len(users))
        for source, target in links:
            users.setdefault(source, len(users))
            users.setdefault(target, len(users))
        times = [time for _, _, time in posts]
        low, high = min(times), max(times)
        span = max(high - low, 1e-12)
        vocabulary = Vocabulary()
        built = [
            Post(users[author], tuple(vocabulary.add_all(tokens)),
                 min(int((time - low) / span * self.T), self.T - 1))
            for author, tokens, time in posts
        ]
        self.users, self.vocabulary = users, Vocabulary(vocabulary.to_list())
        self.origin, self.span, self.high = low, span, high
        self.slices = self.T
        self.posts, self.links = [], []
        return SocialCorpus(
            len(users), self.T, built,
            [(users[s], users[t]) for s, t in links],
            vocabulary=vocabulary.freeze(),
        )

    def slice_of(self, time):
        if time < self.origin:
            raise StaleEventError(
                f"event time {time} predates the fitted time grid origin "
                f"{self.origin}; clamp or drop stale events before ingesting"
            )
        if time <= self.high:
            return min(int((time - self.origin) / self.span * self.T), self.T - 1)
        return int((time - self.origin) / (self.span / self.T))

    def pop(self, rollover, max_new_slices):
        slices = self.slices
        stamps = []
        for _, _, time in self.posts:
            raw = self.slice_of(time)
            if raw >= slices and rollover == "clamp":
                raw = slices - 1
            elif raw >= slices and rollover == "error":
                raise RolloverError(
                    f"event time {time} falls in slice {raw}, beyond the "
                    f"current {slices}-slice grid (rollover='error')"
                )
            elif raw >= slices:
                grown = raw + 1 - self.slices
                if max_new_slices is not None and grown > max_new_slices:
                    raise RolloverError(
                        f"event time {time} would grow the time grid by "
                        f"{grown} slices, over the "
                        f"max_new_slices={max_new_slices} bound (bad clock "
                        "or wrong units?)"
                    )
                slices = raw + 1
            stamps.append(raw)
        # Interned into copies, kept only when every post interns.
        users = dict(self.users)
        vocabulary = Vocabulary(self.vocabulary.to_list())
        posts = []
        for (author, tokens, _), stamp in zip(self.posts, stamps):
            author = users.setdefault(author, len(users))
            posts.append(Post(author, tuple(vocabulary.add_all(tokens)), stamp))
        links = []
        for source, target in self.links:
            links.append((users.setdefault(source, len(users)),
                          users.setdefault(target, len(users))))
        new_tokens = tuple(vocabulary.to_list()[len(self.vocabulary):])
        self.users, self.vocabulary, self.slices = users, vocabulary, slices
        self.posts, self.links = [], []
        return CorpusIncrement(
            posts, links, len(users), len(vocabulary), slices, new_tokens
        )


KEYS = ["a", "b", "c", "d", "e"]
#: Stopwords, empty and non-string tokens (7 raises VocabularyError).
TOKENS = ["x", "y", "z", "w", "the", "", 7]
post_events = st.tuples(
    st.just("post"), st.sampled_from(KEYS),
    st.lists(st.sampled_from(TOKENS), max_size=4),
)
link_events = st.tuples(st.just("link"), st.sampled_from(KEYS), st.sampled_from(KEYS))


def stream(stamps):
    return st.lists(
        st.tuples(post_events | link_events, stamps).map(lambda e: (*e[0], e[1])),
        max_size=12,
    )


def feed(builder, events):
    for kind, first, second, time in events:
        if kind == "post":
            builder.add_post(first, second, time)
        else:
            builder.add_link(first, second, time)


def outcome(call):
    """``call()``'s result, or its error's type and message."""
    try:
        return call()
    except (StreamError, ValueError) as exc:
        return type(exc), str(exc)


def increment_fields(increment):
    if isinstance(increment, tuple):
        return increment
    return (
        increment.posts, increment.links, increment.num_users,
        increment.vocab_size, increment.num_time_slices, increment.new_tokens,
    )


@settings(max_examples=300, deadline=None)
@given(
    bootstrap=stream(st.sampled_from([0.0, 2.5, 5.0, 10.0]) | st.floats(0, 10)),
    batches=st.lists(
        st.tuples(
            stream(st.sampled_from([-1.0, 0.0, 10.0, 12.5, 40.0]) | st.floats(-2, 30)),
            st.sampled_from(["grow", "clamp", "error"]),
            st.sampled_from([None, 1, 3]),
        ),
        max_size=3,
    ),
    num_time_slices=st.integers(1, 5),
    min_posts=st.integers(1, 3),
    stopwords=st.sampled_from([(), ("the",)]),
)
def test_same_corpus_increments_and_errors_as_the_per_event_builder(
    bootstrap, batches, num_time_slices, min_posts, stopwords
):
    builder = CorpusStreamBuilder(
        num_time_slices=num_time_slices, min_posts_per_user=min_posts,
        stopwords=stopwords,
    )
    reference = ReferenceBuilder(num_time_slices, min_posts, stopwords)
    feed(builder, bootstrap)
    feed(reference, bootstrap)
    want = outcome(reference.build)
    assert outcome(lambda: builder.build(incremental=True)) == want
    if isinstance(want, tuple):
        return
    for events, rollover, max_new_slices in batches:
        feed(builder, events)
        feed(reference, events)
        interned = (dict(builder._user_ids), builder._vocabulary.to_list())
        want = outcome(lambda: reference.pop(rollover, max_new_slices))
        got = outcome(lambda: builder.pop_increment(rollover, max_new_slices))
        assert increment_fields(got) == increment_fields(want)
        if isinstance(want, tuple):
            assert (dict(builder._user_ids), builder._vocabulary.to_list()) == interned
            assert builder.num_events == len(reference.posts) + len(reference.links)
            return


def incremental_builder() -> CorpusStreamBuilder:
    """Frozen on [0, 8) with 4 slices of width 2."""
    builder = CorpusStreamBuilder(num_time_slices=4)
    builder.add_post("alice", ["a", "b"], time=0.0)
    builder.add_post("bob", ["c"], time=8.0)
    builder.build(incremental=True)
    return builder


class TestPopEdges:
    @pytest.mark.parametrize(
        ("time", "error"),
        [
            (-0.5, "predates the fitted time grid origin"),
            (9.0, "beyond the current 4-slice grid"),
        ],
    )
    def test_failed_pop_interns_nothing(self, time, error):
        """A new user and a new token come before the offending post."""
        builder = incremental_builder()
        builder.add_post("zoe", ["fresh"], time=3.0)
        builder.add_link("yan", "zoe", time=3.0)
        builder.add_post("alice", ["a"], time=time)
        interned = (dict(builder._user_ids), builder._vocabulary.to_list())
        with pytest.raises(StreamError, match=error):
            builder.pop_increment(rollover="error")
        assert (dict(builder._user_ids), builder._vocabulary.to_list()) == interned
        assert builder.num_events == 3

    def test_bad_token_fails_before_any_user_is_interned(self):
        builder = incremental_builder()
        builder.add_post("zoe", ["fresh", 7], time=3.0)
        interned = (dict(builder._user_ids), builder._vocabulary.to_list())
        with pytest.raises(
            ValueError, match="^tokens must be non-empty strings, got 7$"
        ):
            builder.pop_increment()
        assert (dict(builder._user_ids), builder._vocabulary.to_list()) == interned

    @pytest.mark.parametrize("time", [1e300, np.finfo(float).max])
    def test_absurd_stamps_meet_the_rollover_policy(self, time):
        """A finite stamp whose slice id overflows int64, or whose quotient
        by the slice width (1/16 here) overflows to inf, is clamped or
        rejected, never wrapped."""
        builder = CorpusStreamBuilder(num_time_slices=16)
        builder.add_post("alice", ["a"], time=0.0)
        builder.add_post("bob", ["b"], time=1.0)
        builder.build(incremental=True)
        builder.add_post("alice", ["x"], time=time)
        assert builder.pop_increment(rollover="clamp").posts[0].timestamp == 15
        for rollover, limit in (("error", None), ("grow", 10**6)):
            builder.add_post("alice", ["x"], time=time)
            with pytest.raises(RolloverError):
                builder.pop_increment(rollover=rollover, max_new_slices=limit)
            builder._post_events.clear()

    def test_grow_bound_is_inclusive(self):
        """Growing by exactly ``max_new_slices`` passes; one more fails."""
        builder = incremental_builder()
        builder.add_post("alice", ["x"], time=11.9)  # slice 5: grows by 2
        assert builder.pop_increment(max_new_slices=2).num_time_slices == 6
        builder = incremental_builder()
        builder.add_post("alice", ["x"], time=12.0)  # slice 6: grows by 3
        with pytest.raises(RolloverError, match="grow the time grid by 3 slices"):
            builder.pop_increment(max_new_slices=2)


class TestCorpusIncrementColumns:
    def test_popped_columns_equal_the_post_constructor(self):
        builder = CorpusStreamBuilder(num_time_slices=4)
        builder.add_post("alice", ["a", "b"], time=0.0)
        builder.add_post("bob", ["c"], time=8.0)
        builder.build(incremental=True)
        builder.add_post("carol", ["a", "d", "a"], time=3.0)
        builder.add_post("alice", ["e"], time=9.5)
        builder.add_link("carol", "dave", time=4.0)
        popped = builder.pop_increment()
        rebuilt = CorpusIncrement(
            popped.posts, popped.links, popped.num_users, popped.vocab_size,
            popped.num_time_slices, popped.new_tokens,
        )
        for got, want in zip(popped.columns, rebuilt.columns):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(popped.link_array, rebuilt.link_array)
        assert popped.posts == (
            Post(2, (0, 3, 0), 1), Post(0, (4,), 4),
        )
        assert popped.links == ((2, 3),)
        assert not popped.empty

    def test_update_folds_the_columns_without_posts(self, stream_world, monkeypatch):
        """``COLDModel.update`` reads the increment's columns: building its
        ``Post`` view is never needed."""
        model, builder, remainder = stream_world(iterations=2)
        monkeypatch.setattr(
            CorpusIncrement, "posts",
            property(lambda self: pytest.fail("update built Post objects")),
        )
        posts_before = model.corpus_.num_posts
        feed_events(builder, remainder[:40])
        report = model.update(builder.pop_increment())
        assert model.corpus_.num_posts == posts_before + report.new_posts
        model.state_.check_invariants()


def feed_events(builder, events):
    for event in events:
        if hasattr(event, "tokens"):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteTimes:
    @pytest.mark.parametrize("time", NON_FINITE)
    def test_add_post_rejects(self, time):
        builder = CorpusStreamBuilder()
        with pytest.raises(
            StreamError, match=f"^event time must be finite, got {time}$"
        ):
            builder.add_post("alice", ["a"], time)
        assert builder.num_events == 0

    @pytest.mark.parametrize("time", NON_FINITE)
    def test_add_link_rejects(self, time):
        builder = CorpusStreamBuilder()
        with pytest.raises(
            StreamError, match=f"^event time must be finite, got {time}$"
        ):
            builder.add_link("alice", "bob", time)
        assert builder.num_events == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", '"nan"'])
    @pytest.mark.parametrize(
        "record",
        ['{"type": "post", "author": "a", "tokens": ["x"], "time": %s}',
         '{"type": "link", "source": "a", "target": "b", "time": %s}'],
    )
    def test_read_events_rejects_with_the_line(self, tmp_path, record, literal):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "post", "author": "a", "tokens": ["x"], "time": 0.1}\n'
            + record % literal + "\n"
        )
        with pytest.raises(
            StreamError,
            match=r"events\.jsonl:2: malformed event: event time must be finite",
        ):
            read_events(path)

    def test_cold_stream_exits_2_with_the_typed_error(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "post", "author": "a", "tokens": ["x"], "time": 0.1}\n'
            '{"type": "post", "author": "b", "tokens": ["y"], "time": NaN}\n'
        )
        code = main(["stream", str(path), str(tmp_path / "model")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"error: StreamError: {path}:2: malformed event: event time "
            "must be finite, got nan"
        )
