"""Event JSONL interchange: parse errors, round-trips, splitting."""

from __future__ import annotations

import pytest

from repro.datasets.stream import LinkEvent, PostEvent, StreamError
from repro.streaming import (
    corpus_to_events,
    read_events,
    split_events,
    write_events,
)


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        events = [
            PostEvent("alice", ("hello", "world"), 0.5),
            LinkEvent("alice", "bob", 1.0),
        ]
        path = tmp_path / "events.jsonl"
        assert write_events(path, events) == 2
        assert read_events(path) == events

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "post", "author": "a", "tokens": ["x"], "time": 0.1}\n'
            "\n"
            '{"type": "link", "source": "a", "target": "b", "time": 0.2}\n'
        )
        assert len(read_events(path)) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"type": "post"}',
            '{"type": "teleport", "time": 0.0}',
            '{"author": "a", "tokens": ["x"], "time": 0.0}',
            '{"type": "post", "author": "a", "tokens": "xy", "time": 0.0}',
        ],
    )
    def test_malformed_records_raise_with_line_number(self, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type": "post", "author": "a", "tokens": ["x"], "time": 0.1}\n'
            + line
            + "\n"
        )
        with pytest.raises(StreamError, match=r"events\.jsonl:2") as info:
            read_events(path)
        assert str(info.value).count("events.jsonl:2") == 1  # not re-wrapped


class TestCorpusRoundTrip:
    def test_events_are_time_ordered(self, event_stream):
        times = [event.time for event in event_stream]
        assert times == sorted(times)

    def test_full_replay_reproduces_dimensions(self, event_stream, stream_corpus):
        from repro.datasets.stream import CorpusStreamBuilder

        corpus = stream_corpus
        builder = CorpusStreamBuilder(num_time_slices=corpus.num_time_slices)
        for event in event_stream:
            if isinstance(event, PostEvent):
                builder.add_post(event.author_key, event.tokens, event.time)
            else:
                builder.add_link(event.source_key, event.target_key, event.time)
        rebuilt = builder.build()
        assert rebuilt.num_posts == len(corpus.posts)
        assert rebuilt.num_users == corpus.num_users
        # The rebuild interns only tokens that actually occur (the source
        # corpus counts its full configured vocabulary, used or not).
        used = {w for post in corpus.posts for w in post.words}
        assert rebuilt.vocab_size == len(used)


class TestSplit:
    def test_split_by_count(self, event_stream):
        head, tail = split_events(event_stream, 0.25)
        assert len(head) == int(len(event_stream) * 0.25)
        assert len(head) + len(tail) == len(event_stream)

    def test_head_must_contain_a_post(self, event_stream):
        # A tiny head catches only the earliest link events — no corpus.
        with pytest.raises(StreamError, match="no post events"):
            split_events(event_stream, 0.001)

    def test_bad_fraction_rejected(self, event_stream):
        with pytest.raises(StreamError, match="fraction"):
            split_events(event_stream, 1.5)
