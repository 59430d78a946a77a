"""Event-stream serialisation: JSONL post/link events.

The on-disk interchange format of ``cold stream``: one JSON object per
line, time-stamped with wall-clock floats, matching the shape of the
paper's streaming-API ingestion::

    {"type": "post", "author": "u12", "tokens": ["rain", "storm"], "time": 3.5}
    {"type": "link", "source": "u3", "target": "u12", "time": 4.1}

:func:`read_events` and :func:`write_events` round-trip these with typed
:class:`~repro.datasets.stream.StreamError`\\ s on malformed records;
:func:`corpus_to_events` flattens a :class:`SocialCorpus` back into a
deterministic event stream (for fixtures and benchmarks).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from itertools import repeat
from pathlib import Path

import numpy as np

from ..datasets.corpus import SocialCorpus
from ..datasets.stream import LinkEvent, PostEvent, StreamError, finite_time

Event = PostEvent | LinkEvent


def _parse_event(record: dict, where: str) -> Event:
    kind = record.get("type")
    tokens = record.get("tokens", [])
    # Raised outside the try below, whose handler would re-wrap it.
    if kind == "post" and not (
        isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
    ):
        raise StreamError(f"{where}: tokens must be a list of strings")
    try:
        if kind == "post":
            tokens = tuple(record["tokens"])
            return PostEvent(
                author_key=str(record["author"]),
                tokens=tokens,
                time=finite_time(record["time"]),
            )
        if kind == "link":
            return LinkEvent(
                source_key=str(record["source"]),
                target_key=str(record["target"]),
                time=finite_time(record["time"]),
            )
    except KeyError as exc:
        raise StreamError(f"{where}: missing event field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise StreamError(f"{where}: malformed event: {exc}") from exc
    raise StreamError(f"{where}: unknown event type {kind!r}")


def read_events(path: str | Path) -> list[Event]:
    """Parse a JSONL event file; blank lines are skipped.

    Raises :class:`StreamError` (with the offending line number) on
    malformed JSON, unknown event types, or missing fields.
    """
    events: list[Event] = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise StreamError(f"{where}: event must be a JSON object")
            events.append(_parse_event(record, where))
    return events


def write_events(path: str | Path, events: Iterable[Event]) -> int:
    """Write events as JSONL; returns the number written."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in events:
            if isinstance(event, PostEvent):
                record = {
                    "type": "post",
                    "author": event.author_key,
                    "tokens": list(event.tokens),
                    "time": event.time,
                }
            elif isinstance(event, LinkEvent):
                record = {
                    "type": "link",
                    "source": event.source_key,
                    "target": event.target_key,
                    "time": event.time,
                }
            else:
                raise StreamError(
                    f"expected PostEvent or LinkEvent, got {type(event).__name__}"
                )
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def corpus_to_events(corpus: SocialCorpus) -> list[Event]:
    """Flatten a corpus into a deterministic, time-sorted event stream.

    Users become ``u<id>`` keys and word ids become vocabulary tokens
    (``w<id>`` when the corpus kept no vocabulary).  Each post's discrete
    slice index is mapped to a wall-clock stamp strictly inside that
    slice (a deterministic per-post jitter keeps stamps distinct without
    consuming any RNG); links are spread uniformly over the span.
    Feeding the result back through :class:`CorpusStreamBuilder` with the
    same ``num_time_slices`` yields an equivalent corpus — the round-trip
    used by event fixtures and the streaming benchmark.
    """
    vocabulary = np.array(
        corpus.vocabulary.to_list()
        if corpus.vocabulary is not None
        else [f"w{w}" for w in range(corpus.vocab_size)],
        dtype=object,
    )
    # Read from the columns: the tokens through one object-array gather,
    # the author keys from a per-user table.  No Post is built.
    words = vocabulary[corpus.tokens].tolist()
    keys = [f"u{user}" for user in range(corpus.num_users)]
    ends = corpus.token_offsets.tolist()
    jitter = 0.1 + 0.8 * (np.arange(corpus.num_posts) % 89) / 89.0
    post_times = corpus.post_times + jitter
    # Events are tuples: ``tuple.__new__`` over zipped fields builds each
    # at C speed, with no per-event __init__.
    events: list[Event] = list(map(
        tuple.__new__,
        repeat(PostEvent),
        zip(
            map(keys.__getitem__, corpus.post_authors.tolist()),
            map(tuple, map(words.__getitem__, map(slice, ends, ends[1:]))),
            post_times.tolist(),
        ),
    ))
    links = corpus.link_array()
    span = float(corpus.num_time_slices)
    times = span * (np.arange(len(links)) + 0.5) / max(len(links), 1)
    events += map(
        tuple.__new__,
        repeat(LinkEvent),
        zip(
            map(keys.__getitem__, links[:, 0].tolist()),
            map(keys.__getitem__, links[:, 1].tolist()),
            times.tolist(),
        ),
    )
    # One stable argsort of the stamps: the order a stable sort of the
    # events by time gives (posts before links at equal stamps).
    order = np.argsort(np.concatenate([post_times, times]), kind="stable")
    return list(map(events.__getitem__, order.tolist()))


def split_events(
    events: Sequence[Event], fraction: float
) -> tuple[list[Event], list[Event]]:
    """Split a time-sorted stream into (bootstrap, remainder) at ``fraction``.

    The cut is by event *count*, not wall-clock, so both halves are
    non-trivial even for bursty streams; the bootstrap half must contain
    at least one post (the initial batch fit needs a corpus).
    """
    if not 0.0 < fraction < 1.0:
        raise StreamError(f"fraction must lie in (0, 1), got {fraction}")
    cut = max(int(len(events) * fraction), 1)
    head, tail = list(events[:cut]), list(events[cut:])
    if not any(isinstance(e, PostEvent) for e in head):
        raise StreamError(
            "bootstrap split contains no post events; raise the fraction"
        )
    return head, tail
