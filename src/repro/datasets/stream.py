"""Streaming corpus construction from a time-ordered event feed.

The paper's datasets are sampled from Sina Weibo's **streaming API**: posts
and retweet interactions arrive as a time-ordered event stream and are
accumulated into the corpus.  :class:`CorpusStreamBuilder` reproduces that
ingestion path: feed it raw events (token lists with wall-clock stamps,
interaction pairs), and it handles vocabulary growth, user interning, time
discretisation into ``T`` slices, and low-activity-user filtering — the
§6.1 preprocessing — before emitting a :class:`SocialCorpus`.

Events are buffered as columns, never as per-event objects: ``add_post``
appends the author key, the stamp, the kept-token count and the tokens
end to end to growable lists, and ``add_link`` the two endpoint keys.
:meth:`~CorpusStreamBuilder.build` and
:meth:`~CorpusStreamBuilder.pop_increment` turn the buffers into int64
columns through one vectorised routine — filter, slice the stamps,
intern users in first-activity order and tokens in first-seen order — so
the corpus and each increment reach the sampler as columns.

**Incremental mode** (``build(incremental=True)``) keeps the builder live
after the initial corpus: the time grid's origin and slice width are
frozen from the built span, user and vocabulary interning stay open
(append-only ids, so existing model tensors keep their meaning), and
further events accumulate until :meth:`CorpusStreamBuilder.pop_increment`
converts them into a :class:`CorpusIncrement` for
:meth:`repro.COLDModel.update`.  Ingestion edge cases are typed errors
here instead of corrupted slice assignments downstream: non-finite stamps
raise :class:`StreamError` on ingest, events stamped *before* the fitted
grid's origin raise :class:`StaleEventError`, and events beyond its end
follow the configured rollover policy (:class:`RolloverError` under
``"error"``).  Users first seen in a :class:`LinkEvent` are interned like
any other (the low-activity filter applies only to the initial build — a
streaming increment is too small a sample to judge activity on).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from .corpus import Post, SocialCorpus, _frozen, link_pairs, post_columns
from .vocabulary import Vocabulary

#: Slice ids are capped here before the cast to int64, so an absurd stamp
#: far past the grid reaches the rollover policy as a huge id, not as an
#: overflowed one.
_MAX_SLICE = float(2**62)


class StreamError(ValueError):
    """Raised for invalid stream events or build requests."""


class StaleEventError(StreamError):
    """An incremental event is stamped before the fitted time grid.

    The grid origin is frozen at the initial ``build(incremental=True)``;
    an earlier stamp has no slice (the naive fraction would go negative
    and silently corrupt the assignment), so it fails loudly.  Callers
    that want to keep such stragglers can clamp their stamps to the grid
    origin before ingesting.
    """


class RolloverError(StreamError):
    """An incremental event lies beyond the time grid under ``rollover="error"``,
    or a ``"grow"`` rollover would exceed ``max_new_slices``."""


class CorpusIncrement:
    """One batch of new corpus content in the *global* id space.

    Produced by :meth:`CorpusStreamBuilder.pop_increment`; consumed by
    :meth:`repro.COLDModel.update`.  ``num_users`` / ``vocab_size`` /
    ``num_time_slices`` are the totals *after* this increment (ids are
    append-only, so they can only grow).  ``new_tokens`` lists the tokens
    appended to the vocabulary, in id order.

    The posts are held as read-only int64 ``columns`` — ``(authors,
    times, lengths, words)``, the words end to end — and the links as an
    ``(E, 2)`` ``link_array``.  Build one from ``Post`` objects and
    ``(src, dst)`` pairs with the constructor, which converts them once,
    or from columns with :meth:`from_columns`; ``posts`` and ``links``
    are tuples built from the columns when read.
    """

    __slots__ = (
        "columns", "link_array", "num_users", "vocab_size",
        "num_time_slices", "new_tokens",
    )

    def __init__(
        self,
        posts: Sequence[Post],
        links: Sequence[tuple[int, int]],
        num_users: int,
        vocab_size: int,
        num_time_slices: int,
        new_tokens: tuple[str, ...] = (),
    ) -> None:
        self._set(
            post_columns(posts), link_pairs(links),
            num_users, vocab_size, num_time_slices, new_tokens,
        )

    @classmethod
    def from_columns(
        cls, authors, times, lengths, words, links, *,
        num_users: int, vocab_size: int, num_time_slices: int,
        new_tokens: tuple[str, ...] = (),
    ) -> "CorpusIncrement":
        """An increment of posts given as int64 columns (``words`` end to
        end) and links as an ``(E, 2)`` array; the arrays are kept, not
        copied."""
        increment = cls.__new__(cls)
        increment._set(
            (authors, times, lengths, words), links,
            num_users, vocab_size, num_time_slices, new_tokens,
        )
        return increment

    def _set(self, columns, links, num_users, vocab_size, num_time_slices,
             new_tokens) -> None:
        self.columns = tuple(_frozen(column.view()) for column in columns)
        self.link_array = _frozen(links.view())
        self.num_users = num_users
        self.vocab_size = vocab_size
        self.num_time_slices = num_time_slices
        self.new_tokens = tuple(new_tokens)

    @property
    def posts(self) -> tuple[Post, ...]:
        authors, times, lengths, words = (c.tolist() for c in self.columns)
        ends = np.cumsum([0, *lengths]).tolist()
        return tuple(
            Post(author, tuple(words[lo:hi]), time)
            for author, time, lo, hi in zip(authors, times, ends, ends[1:])
        )

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.link_array.tolist()))

    @property
    def empty(self) -> bool:
        return not len(self.columns[0]) and not len(self.link_array)


@dataclass(frozen=True)
class PostEvent:
    """A raw post event: external author key, tokens, wall-clock time."""

    author_key: str
    tokens: tuple[str, ...]
    time: float


@dataclass(frozen=True)
class LinkEvent:
    """A raw interaction: content flowed from ``source_key`` to ``target_key``
    (e.g. target retweeted source) at ``time``."""

    source_key: str
    target_key: str
    time: float


def finite_time(time: float) -> float:
    """``time`` as a float; raises :class:`StreamError` when it is NaN or
    infinite, which no time grid can place."""
    time = float(time)
    if not math.isfinite(time):
        raise StreamError(f"event time must be finite, got {time}")
    return time


@dataclass
class _PostBuffer:
    """Buffered post events as columns: per post the author key, stamp and
    kept-token count, and the kept tokens end to end."""

    authors: list[str] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)
    tokens: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.authors)

    def clear(self) -> None:
        self.authors, self.times, self.lengths, self.tokens = [], [], [], []


@dataclass
class _LinkBuffer:
    """Buffered link events as columns: the endpoint keys.  Their stamps
    are checked on ingest; a link carries no time slice."""

    sources: list[str] = field(default_factory=list)
    targets: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sources)

    def clear(self) -> None:
        self.sources, self.targets = [], []


def _grid_slices(
    times: np.ndarray, origin: float, span: float, high: float, slices: int
) -> np.ndarray:
    """Slice ids of ``times`` on a ``slices``-slice grid over ``[origin,
    high]`` (``span`` wide), continued past ``high`` at the same width.

    The arithmetic is ``min(int((t - origin) / span * slices), slices -
    1)`` up to ``high`` and ``int((t - origin) / (span / slices))`` past
    it, as arrays.  Stamps before ``origin`` get meaningless ids; callers
    reject them.  A quotient that overflows to inf is capped like any
    other id past ``_MAX_SLICE``.
    """
    offset = times - origin
    with np.errstate(over="ignore"):
        raw = np.where(
            times <= high,
            np.minimum(offset / span * slices, slices - 1),
            offset / (span / slices),
        )
    return np.minimum(raw, _MAX_SLICE).astype(np.int64)


@dataclass
class CorpusStreamBuilder:
    """Accumulates a time-ordered event stream into a corpus.

    Parameters
    ----------
    num_time_slices:
        Grid resolution ``T``; wall-clock stamps are binned uniformly over
        the observed span at build time.
    min_posts_per_user:
        The §6.1 "low active users" filter: users with fewer posts are
        dropped (together with their posts and links).
    stopwords:
        Tokens removed before vocabulary interning.
    """

    num_time_slices: int = 24
    min_posts_per_user: int = 1
    stopwords: frozenset[str] = frozenset()
    _post_events: _PostBuffer = field(default_factory=_PostBuffer)
    _link_events: _LinkBuffer = field(default_factory=_LinkBuffer)
    # Incremental-mode state, populated by build(incremental=True): open
    # interning tables plus the frozen time-grid geometry.
    _user_ids: dict[str, int] | None = field(default=None, repr=False)
    _vocabulary: Vocabulary | None = field(default=None, repr=False)
    _origin: float = field(default=0.0, repr=False)
    _span: float = field(default=0.0, repr=False)
    _built_high: float = field(default=0.0, repr=False)
    _initial_slices: int = field(default=0, repr=False)
    _current_slices: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.num_time_slices <= 0:
            raise StreamError("num_time_slices must be positive")
        if self.min_posts_per_user < 1:
            raise StreamError("min_posts_per_user must be >= 1")
        self.stopwords = frozenset(self.stopwords)

    # -- ingestion ---------------------------------------------------------------

    def add_post(
        self, author_key: str, tokens: Sequence[str], time: float
    ) -> None:
        """Ingest one post event; empty-after-stopwords posts are dropped.

        Raises :class:`StreamError` for an empty author key or a
        non-finite stamp.
        """
        if not author_key:
            raise StreamError("author_key must be non-empty")
        time = finite_time(time)
        if not isinstance(tokens, (tuple, list)):
            tokens = tuple(tokens)
        if self.stopwords or not all(tokens):
            tokens = [t for t in tokens if t and t not in self.stopwords]
        if not tokens:
            return
        posts = self._post_events
        posts.authors.append(author_key)
        posts.times.append(time)
        posts.lengths.append(len(tokens))
        posts.tokens.extend(tokens)

    def add_link(self, source_key: str, target_key: str, time: float) -> None:
        """Ingest one interaction event (self-interactions are dropped).

        Raises :class:`StreamError` for an empty key or a non-finite stamp.
        """
        if not source_key or not target_key:
            raise StreamError("link keys must be non-empty")
        finite_time(time)
        if source_key == target_key:
            return
        self._link_events.sources.append(source_key)
        self._link_events.targets.append(target_key)

    @property
    def num_events(self) -> int:
        return len(self._post_events) + len(self._link_events)

    @property
    def incremental(self) -> bool:
        """True once ``build(incremental=True)`` has run."""
        return self._user_ids is not None

    # -- the one ingest routine ----------------------------------------------------

    def _ingest(
        self,
        user_ids: dict[str, int],
        vocabulary: Vocabulary,
        slice_ids: Callable[[np.ndarray], np.ndarray],
        active: set[str] | None = None,
    ) -> tuple[np.ndarray, ...]:
        """The buffered events as int64 columns ``(authors, times,
        lengths, words, links)`` in the interned id space.

        With ``active``, posts by other authors and links with an endpoint
        outside it are dropped (the low-activity filter).  ``slice_ids``
        maps the kept posts' stamps (float64) to slice ids and may raise.
        Users are interned into ``user_ids`` in first-activity order —
        post authors, then link sources and targets in link order — and
        tokens into ``vocabulary`` in first-seen order.  Nothing is
        interned unless every step succeeds, and errors name the first
        offending event in arrival order.
        """
        posts, links = self._post_events, self._link_events
        authors, times, lengths, tokens = (
            posts.authors, posts.times, posts.lengths, posts.tokens
        )
        sources, targets = links.sources, links.targets
        if active is not None:
            keep = list(map(active.__contains__, authors))
            if not all(keep):
                authors, times, lengths = (
                    list(compress(column, keep))
                    for column in (authors, times, lengths)
                )
                kept_tokens = np.repeat(keep, posts.lengths).tolist()
                tokens = list(compress(tokens, kept_tokens))
            keep = [
                source in active and target in active
                for source, target in zip(sources, targets)
            ]
            sources, targets = (
                list(compress(column, keep)) for column in (sources, targets)
            )
        timestamps = slice_ids(np.array(times, np.float64))
        endpoints = [None] * (2 * len(sources))
        endpoints[::2], endpoints[1::2] = sources, targets
        fresh = [
            key for key in dict.fromkeys(chain(authors, endpoints))
            if key not in user_ids
        ]
        words = vocabulary.add_array(tokens)
        user_ids.update(zip(fresh, range(len(user_ids), len(user_ids) + len(fresh))))
        user_of = user_ids.__getitem__
        return (
            np.fromiter(map(user_of, authors), np.int64, len(authors)),
            timestamps,
            np.array(lengths, np.int64),
            words,
            np.fromiter(map(user_of, endpoints), np.int64, len(endpoints))
            .reshape(-1, 2),
        )

    # -- build -------------------------------------------------------------------

    def build(self, incremental: bool = False) -> SocialCorpus:
        """Discretise, filter and intern the accumulated events.

        With ``incremental=True`` the builder stays live afterwards: the
        time grid is frozen from the observed span, interning tables stay
        open, the event buffers are cleared, and subsequent
        ``add_post``/``add_link`` calls accumulate towards
        :meth:`pop_increment`.
        """
        if self.incremental:
            raise StreamError(
                "builder is already incremental; use pop_increment() for "
                "further events"
            )
        if not self._post_events:
            raise StreamError("no post events ingested")

        # Active-user filter on raw post counts.
        active = {
            key for key, count in Counter(self._post_events.authors).items()
            if count >= self.min_posts_per_user
        }
        if not active:
            raise StreamError(
                "min_posts_per_user filtered out every user"
            )

        # Time discretisation over the observed post-time span.
        grid: list[float] = []

        def slice_ids(times: np.ndarray) -> np.ndarray:
            low, high = float(times.min()), float(times.max())
            grid[:] = low, max(high - low, 1e-12), high
            return _grid_slices(times, *grid, self.num_time_slices)

        user_ids: dict[str, int] = {}
        vocabulary = Vocabulary()
        *columns, links = self._ingest(user_ids, vocabulary, slice_ids, active)
        if incremental:
            # Freeze the grid geometry; keep interning open for increments.
            self._user_ids = user_ids
            self._vocabulary = Vocabulary(vocabulary.to_list())
            self._origin, self._span, self._built_high = grid
            self._initial_slices = self.num_time_slices
            self._current_slices = self.num_time_slices
            self._post_events.clear()
            self._link_events.clear()
        return SocialCorpus.from_columns(
            len(user_ids), self.num_time_slices, *columns, links,
            vocabulary=vocabulary.freeze(),
        )

    # -- incremental mode --------------------------------------------------------

    def pop_increment(
        self,
        rollover: str = "grow",
        max_new_slices: int | None = None,
    ) -> CorpusIncrement:
        """Convert the buffered events into a :class:`CorpusIncrement`.

        New users and tokens are interned append-only (existing ids never
        change); the low-activity filter does not apply — streaming
        increments are too small a sample to judge activity on, and a
        user first seen in a :class:`LinkEvent` is interned like any
        other.  Stamps within the initially built span reproduce the
        batch binning exactly; later stamps extend the grid at the same
        slice width, and ``rollover`` decides their fate beyond the
        current grid: ``"grow"`` appends slices (at most
        ``max_new_slices`` per call when given), ``"clamp"`` maps them
        into the last slice, ``"error"`` raises :class:`RolloverError`.
        A stamp before the grid origin raises :class:`StaleEventError` —
        the naive fraction would go negative and corrupt the slice
        assignment.  Buffers are cleared on success; on an ingestion
        error they are left intact, and no user or token interned, so the
        caller can repair and retry.
        """
        if not self.incremental:
            raise StreamError(
                "pop_increment() requires incremental mode; call "
                "build(incremental=True) first"
            )
        if rollover not in ("grow", "clamp", "error"):
            raise StreamError(
                f"rollover must be 'grow', 'clamp', or 'error', got {rollover!r}"
            )
        assert self._user_ids is not None and self._vocabulary is not None
        vocabulary = self._vocabulary
        vocab_before = len(vocabulary)
        current = slices = self._current_slices

        def slice_ids(times: np.ndarray) -> np.ndarray:
            nonlocal slices
            raw = _grid_slices(
                times, self._origin, self._span, self._built_high,
                self._initial_slices,
            )
            stale = times < self._origin
            if rollover == "error":
                over = raw >= current
            elif rollover == "grow" and max_new_slices is not None:
                over = raw + 1 - current > max_new_slices
            else:
                over = np.zeros(len(raw), bool)
            bad = stale | over
            if bad.any():
                first = int(np.argmax(bad))
                self._reject(float(times[first]), int(raw[first]),
                             bool(stale[first]), rollover, max_new_slices)
            if rollover == "clamp":
                return np.minimum(raw, current - 1)
            if len(raw):
                slices = max(current, int(raw.max()) + 1)
            return raw

        *columns, links = self._ingest(self._user_ids, vocabulary, slice_ids)
        self._current_slices = slices
        self._post_events.clear()
        self._link_events.clear()
        return CorpusIncrement.from_columns(
            *columns, links,
            num_users=len(self._user_ids),
            vocab_size=len(vocabulary),
            num_time_slices=slices,
            new_tokens=vocabulary.to_list()[vocab_before:],
        )

    def _reject(self, time: float, raw: int, stale: bool, rollover: str,
                max_new_slices: int | None) -> None:
        """Raise for a post stamped ``time`` (slice ``raw``) that has no
        place on the grid: stale, or past it against the rollover policy."""
        if stale:
            raise StaleEventError(
                f"event time {time} predates the fitted time grid origin "
                f"{self._origin}; clamp or drop stale events before ingesting"
            )
        if rollover == "error":
            raise RolloverError(
                f"event time {time} falls in slice {raw}, beyond the "
                f"current {self._current_slices}-slice grid (rollover='error')"
            )
        raise RolloverError(
            f"event time {time} would grow the time grid by "
            f"{raw + 1 - self._current_slices} slices, over the "
            f"max_new_slices={max_new_slices} bound (bad clock or wrong units?)"
        )
