"""Streaming corpus construction from a time-ordered event feed.

The paper's datasets are sampled from Sina Weibo's **streaming API**: posts
and retweet interactions arrive as a time-ordered event stream and are
accumulated into the corpus.  :class:`CorpusStreamBuilder` reproduces that
ingestion path: feed it raw events (token lists with wall-clock stamps,
interaction pairs), and it handles vocabulary growth, user interning, time
discretisation into ``T`` slices, and low-activity-user filtering — the
§6.1 preprocessing — before emitting a :class:`SocialCorpus`.

**Incremental mode** (``build(incremental=True)``) keeps the builder live
after the initial corpus: the time grid's origin and slice width are
frozen from the built span, user and vocabulary interning stay open
(append-only ids, so existing model tensors keep their meaning), and
further events accumulate until :meth:`CorpusStreamBuilder.pop_increment`
converts them into a :class:`CorpusIncrement` for
:meth:`repro.COLDModel.update`.  Two ingestion edge cases are typed
errors here instead of corrupted slice assignments downstream: events
stamped *before* the fitted grid's origin raise :class:`StaleEventError`,
and events beyond its end follow the configured rollover policy
(:class:`RolloverError` under ``"error"``).  Users first seen in a
:class:`LinkEvent` are interned like any other (the low-activity filter
applies only to the initial build — a streaming increment is too small a
sample to judge activity on).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .corpus import Post, SocialCorpus
from .vocabulary import Vocabulary


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


@dataclass(frozen=True)
class CorpusIncrement:
    """One batch of new corpus content in the *global* id space.

    Produced by :meth:`CorpusStreamBuilder.pop_increment`; consumed by
    :meth:`repro.COLDModel.update`.  ``num_users`` / ``vocab_size`` /
    ``num_time_slices`` are the totals *after* this increment (ids are
    append-only, so they can only grow).  ``new_tokens`` lists the tokens
    appended to the vocabulary, in id order.
    """

    posts: tuple[Post, ...]
    links: tuple[tuple[int, int], ...]
    num_users: int
    vocab_size: int
    num_time_slices: int
    new_tokens: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.posts and not self.links


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
    _post_events: list[PostEvent] = field(default_factory=list)
    _link_events: list[LinkEvent] = field(default_factory=list)
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
        """Ingest one post event; empty-after-stopwords posts are dropped."""
        if not author_key:
            raise StreamError("author_key must be non-empty")
        kept = tuple(t for t in tokens if t and t not in self.stopwords)
        if not kept:
            return
        self._post_events.append(PostEvent(author_key, kept, float(time)))

    def add_link(self, source_key: str, target_key: str, time: float) -> None:
        """Ingest one interaction event (self-interactions are dropped)."""
        if not source_key or not target_key:
            raise StreamError("link keys must be non-empty")
        if source_key == target_key:
            return
        self._link_events.append(LinkEvent(source_key, target_key, float(time)))

    @property
    def num_events(self) -> int:
        return len(self._post_events) + len(self._link_events)

    @property
    def incremental(self) -> bool:
        """True once ``build(incremental=True)`` has run."""
        return self._user_ids is not None

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
        post_counts: dict[str, int] = {}
        for event in self._post_events:
            post_counts[event.author_key] = post_counts.get(event.author_key, 0) + 1
        active = {
            key for key, count in post_counts.items()
            if count >= self.min_posts_per_user
        }
        if not active:
            raise StreamError(
                "min_posts_per_user filtered out every user"
            )
        kept_posts = [e for e in self._post_events if e.author_key in active]
        kept_links = [
            e
            for e in self._link_events
            if e.source_key in active and e.target_key in active
        ]

        # Deterministic user interning: first-activity order.
        user_ids: dict[str, int] = {}
        for event in kept_posts:
            user_ids.setdefault(event.author_key, len(user_ids))
        for event in kept_links:
            user_ids.setdefault(event.source_key, len(user_ids))
            user_ids.setdefault(event.target_key, len(user_ids))

        # Time discretisation over the observed post-time span.
        times = [e.time for e in kept_posts]
        low, high = min(times), max(times)
        span = max(high - low, 1e-12)

        def slice_of(time: float) -> int:
            fraction = (time - low) / span
            return min(int(fraction * self.num_time_slices), self.num_time_slices - 1)

        vocabulary = Vocabulary()
        posts = [
            Post(
                author=user_ids[event.author_key],
                words=tuple(vocabulary.add_all(event.tokens)),
                timestamp=slice_of(event.time),
            )
            for event in kept_posts
        ]
        links = [
            (user_ids[e.source_key], user_ids[e.target_key]) for e in kept_links
        ]
        if incremental:
            # Freeze the grid geometry; keep interning open for increments.
            self._user_ids = user_ids
            self._vocabulary = Vocabulary(vocabulary.to_list())
            self._origin = low
            self._span = span
            self._built_high = high
            self._initial_slices = self.num_time_slices
            self._current_slices = self.num_time_slices
            self._post_events = []
            self._link_events = []
        return SocialCorpus(
            num_users=len(user_ids),
            num_time_slices=self.num_time_slices,
            posts=posts,
            links=links,
            vocabulary=vocabulary.freeze(),
        )

    # -- incremental mode --------------------------------------------------------

    def _slice_of_incremental(self, time: float) -> int:
        """Map a wall-clock stamp onto the frozen grid (pre-rollover).

        Stamps within the initially built span reproduce the batch
        binning exactly; later stamps extend the grid at the same slice
        width.  Stamps before the grid origin raise
        :class:`StaleEventError` — the naive fraction would go negative
        and corrupt the slice assignment.
        """
        if time < self._origin:
            raise StaleEventError(
                f"event time {time} predates the fitted time grid origin "
                f"{self._origin}; clamp or drop stale events before ingesting"
            )
        if time <= self._built_high:
            fraction = (time - self._origin) / self._span
            return min(
                int(fraction * self._initial_slices), self._initial_slices - 1
            )
        width = self._span / self._initial_slices
        return int((time - self._origin) / width)

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
        other.  ``rollover`` decides the fate of stamps beyond the fitted
        grid: ``"grow"`` appends slices (at most ``max_new_slices`` per
        call when given), ``"clamp"`` maps them into the last slice,
        ``"error"`` raises :class:`RolloverError`.  Buffers are cleared
        on success; on an ingestion error they are left intact, and no
        user or token interned, so the caller can repair and retry.
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
        user_ids = self._user_ids
        vocabulary = self._vocabulary
        vocab_before = len(vocabulary)
        slices = self._current_slices

        def slice_with_rollover(time: float) -> int:
            nonlocal slices
            raw = self._slice_of_incremental(time)
            if raw < slices:
                return raw
            if rollover == "clamp":
                return slices - 1
            if rollover == "error":
                raise RolloverError(
                    f"event time {time} falls in slice {raw}, beyond the "
                    f"current {slices}-slice grid (rollover='error')"
                )
            grown = raw + 1
            limit = max_new_slices
            if limit is not None and grown - self._current_slices > limit:
                raise RolloverError(
                    f"event time {time} would grow the time grid by "
                    f"{grown - self._current_slices} slices, over the "
                    f"max_new_slices={limit} bound (bad clock or wrong units?)"
                )
            slices = grown
            return raw

        # Every stamp first: a stale or out-of-grid one raises before any
        # user or token is interned.
        timestamps = [slice_with_rollover(event.time) for event in self._post_events]
        posts = []
        for event, timestamp in zip(self._post_events, timestamps):
            author = user_ids.setdefault(event.author_key, len(user_ids))
            posts.append(
                Post(
                    author=author,
                    words=tuple(vocabulary.add_all(event.tokens)),
                    timestamp=timestamp,
                )
            )
        links = []
        for event in self._link_events:
            source = user_ids.setdefault(event.source_key, len(user_ids))
            target = user_ids.setdefault(event.target_key, len(user_ids))
            links.append((source, target))

        self._current_slices = slices
        new_tokens = tuple(vocabulary.to_list()[vocab_before:])
        self._post_events = []
        self._link_events = []
        return CorpusIncrement(
            posts=tuple(posts),
            links=tuple(links),
            num_users=len(user_ids),
            vocab_size=len(vocabulary),
            num_time_slices=self._current_slices,
            new_tokens=new_tokens,
        )
