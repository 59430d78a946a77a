"""Corpus containers: posts, links, and the :class:`SocialCorpus` aggregate.

These are the observed inputs of the COLD model (paper §3.1, Table 1):

* a set of ``U`` users;
* per user, time-stamped short posts (bags of word ids over a vocabulary);
* a directed interaction network ``E`` where ``(i, i')`` means information
  flowed from ``i`` to ``i'`` (e.g. ``i'`` retweeted ``i``);
* a discretisation of the full time span into ``T`` slices.

Corpora keep their posts as int64 columns — ``post_authors``,
``post_times``, ``post_lengths``, ``token_offsets`` (D+1) and the flat
``tokens`` — and their links as one ``(E, 2)`` array, never as
per-post Python objects.  :class:`CorpusReads` is the one read surface
over those columns, shared by the in-RAM :class:`SocialCorpus` and the
memory-mapped :class:`~repro.datasets.packed.PackedCorpus`.  Its
``posts`` and ``links`` are read-only sequence views that build a
:class:`Post` or a ``(src, dst)`` tuple only when an item is read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .vocabulary import Vocabulary

if TYPE_CHECKING:
    from ..core.state import PostTable

#: Posts materialised per column slice while a posts view is iterated.
_VIEW_CHUNK = 1024


class CorpusError(ValueError):
    """Raised for structurally invalid corpora (bad ids, empty posts...)."""


class CorpusValidationError(CorpusError):
    """Raised when corpus *contents* fail validation: out-of-range word,
    user, or time ids; dangling link endpoints; negative counts.

    A subclass of :class:`CorpusError`, so existing ``except CorpusError``
    handlers keep working; ingest paths raise it at construction time so
    bad data fails loudly instead of crashing samplers with an
    ``IndexError`` deep in a sweep.
    """


@dataclass(frozen=True)
class Post:
    """One time-stamped post (paper's :math:`d_{ij}`).

    Attributes
    ----------
    author:
        User id of the author (paper's ``i``).
    words:
        Word ids of the post body, ``w_{ij1..ijL}``.  Order is irrelevant
        (bag of words) but preserved for round-tripping.
    timestamp:
        Discrete time-slice index ``t_{ij}`` in ``[0, T)``.
    """

    author: int
    words: tuple[int, ...]
    timestamp: int

    def __post_init__(self) -> None:
        if self.author < 0:
            raise CorpusValidationError(f"author id must be >= 0, got {self.author}")
        if self.timestamp < 0:
            raise CorpusValidationError(f"timestamp must be >= 0, got {self.timestamp}")
        if len(self.words) == 0:
            raise CorpusError("posts must contain at least one word")
        if min(self.words) < 0:
            raise CorpusValidationError("word ids must be >= 0")

    def __len__(self) -> int:
        return len(self.words)

    def word_counts(self) -> dict[int, int]:
        """Multiset of word ids: ``{v: n_{ij}^{(v)}}`` (Eq. 3's counts)."""
        counts: dict[int, int] = {}
        for w in self.words:
            counts[w] = counts.get(w, 0) + 1
        return counts




# -- column helpers -------------------------------------------------------------


def int_ids(values) -> np.ndarray:
    """``values`` as an integer array; integer arrays pass through uncopied.

    Anything else (floats, bools, strings, ids past int64) goes through
    ``int()`` item by item into an object array, so an id too wide for
    int64 still reaches the range checks with its own value.
    """
    array = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    if array.dtype.kind in "iu":
        return array
    return np.frompyfunc(int, 1, 1)(array)


def post_columns(posts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(authors, times, lengths, words)`` int64 columns of ``Post``-likes
    (``words`` end to end): the one conversion from post objects."""
    if not isinstance(posts, Sequence):
        posts = list(posts)
    count = len(posts)
    words = list(map(attrgetter("words"), posts))
    lengths = np.fromiter(map(len, words), np.int64, count=count)
    return (
        np.fromiter(map(attrgetter("author"), posts), np.int64, count=count),
        np.fromiter(map(attrgetter("timestamp"), posts), np.int64, count=count),
        lengths,
        np.fromiter(chain.from_iterable(words), np.int64, count=int(lengths.sum())),
    )


def first_bad_post(
    authors, times, lengths, words, *,
    num_users: int, num_time_slices: int, vocab_size: int,
    error: type[CorpusError] = CorpusError,
) -> int:
    """Row of the first post, in post order, that fails a check; ``-1``
    when every post passes.

    A post fails with an author outside ``[0, num_users)``, a time slice
    outside ``[0, num_time_slices)``, no words, or a word id outside
    ``[0, vocab_size)`` (only below 0 when ``vocab_size`` is 0).  Raises
    ``error`` when the columns do not fit together: each must be 1-D,
    with one author, time and non-negative length per post, the lengths
    summing to the number of words.  The in-RAM corpus and the packed
    writer both check through this, each naming the row its own way.
    """
    D = len(authors)
    if (
        tuple(np.ndim(column) for column in (authors, times, lengths, words))
        != (1, 1, 1, 1)
        or len(times) != D
        or len(lengths) != D
        or (lengths < 0).any()
        or int(lengths.sum()) != len(words)
    ):
        raise error(
            "post columns must be 1-D with one author, time and "
            "non-negative length per post, the lengths summing to the "
            "number of words"
        )
    if not (
        _outside(authors, num_users)
        or _outside(times, num_time_slices)
        or _outside(words, vocab_size)
        or (lengths == 0).any()
    ):
        return -1
    bad = (
        (authors < 0) | (authors >= num_users)
        | (times < 0) | (times >= num_time_slices)
        | (lengths == 0)
    )
    bad_words = words < 0
    if vocab_size:
        bad_words |= words >= vocab_size
    if bad_words.any():
        owners = np.searchsorted(
            np.cumsum(lengths), np.flatnonzero(bad_words), side="right"
        )
        bad[owners] = True
    return int(np.argmax(bad)) if bad.any() else -1


def _outside(ids, bound: int) -> bool:
    """Whether any id lies outside ``[0, bound)`` (only below 0 when
    ``bound`` is 0), by two reductions and no temporary array."""
    return len(ids) > 0 and (ids.min() < 0 or 0 < bound <= ids.max())


def link_pairs(links, error: type[CorpusError] = CorpusError) -> np.ndarray:
    """``links`` (an ``(E, 2)`` array or ``(src, dst)`` pairs) as an
    ``(E, 2)`` integer array; raises ``error`` on any other shape."""
    pairs = int_ids(links)
    if pairs.size == 0:
        return np.zeros((0, 2), np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise error("links must be (src, dst) pairs")
    return pairs


def check_links(
    pairs: np.ndarray, num_users: int,
    self_link_error: type[CorpusError] = CorpusError,
) -> None:
    """Raise for the first bad link in order: a dangling endpoint
    (:class:`CorpusValidationError`), then a self-link
    (``self_link_error``)."""
    dangling = ((pairs < 0) | (pairs >= num_users)).any(axis=1)
    bad = dangling | (pairs[:, 0] == pairs[:, 1])
    if not bad.any():
        return
    row = int(np.argmax(bad))
    src, dst = pairs[row]
    if dangling[row]:
        raise CorpusValidationError(
            f"link ({src}, {dst}) has dangling endpoint: user ids must "
            f"lie in [0, {num_users})"
        )
    raise self_link_error(f"self-link ({src}, {dst}) is not allowed")


def unique_links(
    links: np.ndarray, num_users: int, known: np.ndarray | None = None
) -> np.ndarray:
    """The rows of ``links`` that repeat no earlier row and no row of
    ``known``, in first-occurrence order.

    Endpoints must lie in ``[0, num_users)``.  This is the one link-dedup
    rule: corpus construction, :meth:`SocialCorpus.extend` and the
    sampler state's increments all apply it.
    """
    if len(links) == 0:
        return np.zeros((0, 2), np.int64)
    links = links.astype(np.int64, copy=False)
    keys = links[:, 0] * num_users + links[:, 1]
    _, first = np.unique(keys, return_index=True)
    first.sort()
    if known is not None and len(known):
        # Membership by binary search in the sorted known keys: np.isin
        # costs ~20x more at a few thousand links.
        existing = np.sort(known[:, 0] * num_users + known[:, 1])
        candidates = keys[first]
        at = np.searchsorted(existing, candidates).clip(max=len(existing) - 1)
        first = first[existing[at] != candidates]
    return links[first]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _gather_tokens(
    offsets: np.ndarray, lengths: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Flat token positions of the posts ``rows``, in that order."""
    sizes = lengths[rows]
    shift = offsets[rows] - (np.cumsum(sizes) - sizes)
    return np.arange(int(sizes.sum())) + np.repeat(shift, sizes)


# -- read-only views -------------------------------------------------------------


class _PostsView(Sequence):
    """A corpus's posts as a read-only sequence of :class:`Post`.

    Each item is built from the columns when it is read; the view always
    shows the corpus's current columns.  It compares equal to a list or
    view of the same posts.
    """

    __slots__ = ("_corpus",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, corpus: "CorpusReads") -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.num_posts

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._post(i) for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"post index {index} out of range")
        return self._post(index)

    def _post(self, index: int) -> Post:
        corpus = self._corpus
        lo, hi = corpus.token_offsets[index : index + 2].tolist()
        return Post(
            int(corpus.post_authors[index]),
            tuple(corpus.tokens[lo:hi].tolist()),
            int(corpus.post_times[index]),
        )

    def __iter__(self):
        corpus = self._corpus
        authors, times = corpus.post_authors, corpus.post_times
        offsets, tokens = corpus.token_offsets, corpus.tokens
        for lo in range(0, len(authors), _VIEW_CHUNK):
            hi = min(lo + _VIEW_CHUNK, len(authors))
            ends = offsets[lo : hi + 1].tolist()
            flat = tokens[ends[0] : ends[-1]].tolist()
            base = ends[0]
            for author, time, start, end in zip(
                authors[lo:hi].tolist(), times[lo:hi].tolist(), ends, ends[1:]
            ):
                yield Post(author, tuple(flat[start - base : end - base]), time)

    def __eq__(self, other) -> bool:
        if isinstance(other, _PostsView):
            mine, theirs = self._corpus, other._corpus
            return all(
                np.array_equal(getattr(mine, name), getattr(theirs, name))
                for name in ("post_authors", "post_times", "token_offsets", "tokens")
            )
        if isinstance(other, list):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} posts>"


class _LinksView(Sequence):
    """A corpus's links as a read-only sequence of ``(src, dst)`` tuples,
    over its ``(E, 2)`` link array; equal to a list or view of the same
    pairs."""

    __slots__ = ("_corpus",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, corpus: "CorpusReads") -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.num_links

    def __getitem__(self, index):
        links = self._corpus.link_array()
        if isinstance(index, slice):
            return list(map(tuple, links[index].tolist()))
        return tuple(links[operator.index(index)].tolist())

    def __iter__(self):
        return map(tuple, self._corpus.link_array().tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, _LinksView):
            return np.array_equal(
                self._corpus.link_array(), other._corpus.link_array()
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} links>"


# -- the read surface --------------------------------------------------------------


class CorpusReads:
    """The corpus read surface, written once over the columns.

    A subclass provides ``num_users``, ``num_time_slices``,
    ``vocab_size``, ``vocabulary``, the int64 post columns
    ``post_authors``, ``post_times``, ``post_lengths``,
    ``token_offsets`` and ``tokens``, :meth:`link_array` and
    :meth:`_post_table`; everything below reads only those.
    """

    # -- sizes (paper Table 1 quantities) ------------------------------------

    @property
    def num_posts(self) -> int:
        """Total number of posts (sum of ``D_i``)."""
        return len(self.post_authors)

    @property
    def num_links(self) -> int:
        """Number of positive links (sum of ``E_i``)."""
        return len(self.link_array())

    @property
    def num_words(self) -> int:
        """Total word tokens in the corpus."""
        return len(self.tokens)

    @property
    def num_negative_links(self) -> int:
        """``n_neg = U(U-1) - |E|`` — used for the lambda_0 prior rule."""
        return self.num_users * (self.num_users - 1) - self.num_links

    # -- views ----------------------------------------------------------------

    @property
    def posts(self) -> _PostsView:
        """All posts, as a read-only sequence of :class:`Post`.  Post
        indices are the canonical post ids used by samplers and splits."""
        return _PostsView(self)

    @property
    def links(self) -> _LinksView:
        """Directed positive links ``(i, i')`` (content flows from ``i`` to
        ``i'``), deduplicated, in insertion order; a read-only sequence."""
        return _LinksView(self)

    def post_table(self) -> "PostTable":
        """The samplers' :class:`~repro.core.state.PostTable`.

        Its columns are built once per corpus and shared read-only; each
        call returns a fresh table object over them, so a sampler state
        that grows its own table never touches the corpus's.
        """
        return replace(self._post_table())

    def posts_by_user(self) -> list[list[int]]:
        """Post indices grouped by author: ``result[i]`` lists user i's posts."""
        return self._group(self.post_authors, np.arange(self.num_posts))

    def out_links(self) -> list[list[int]]:
        """``result[i]`` = users that i links to (i's 'followers' who
        retweeted i, i.e. potential spreaders of i's content)."""
        links = self.link_array()
        return self._group(links[:, 0], links[:, 1])

    def in_links(self) -> list[list[int]]:
        """``result[i']`` = users whose content reached i'."""
        links = self.link_array()
        return self._group(links[:, 1], links[:, 0])

    def _group(self, keys: np.ndarray, values: np.ndarray) -> list[list[int]]:
        """``values`` grouped by user ``keys``, each group in input order."""
        order = np.argsort(keys, kind="stable")
        ends = np.cumsum(np.bincount(keys, minlength=self.num_users))
        return [
            group.tolist() for group in np.split(values[order], ends[:-1])
        ]

    def link_set(self) -> set[tuple[int, int]]:
        """Links as a set for O(1) membership tests."""
        return set(self.links)

    def word_count_matrix(self) -> np.ndarray:
        """Dense ``(U, V)`` user-word count matrix (for feature baselines)."""
        U, V = self.num_users, self.vocab_size
        cells = np.repeat(self.post_authors, self.post_lengths) * V + self.tokens
        return np.bincount(cells, minlength=U * V).reshape(U, V)

    def timestamps(self) -> np.ndarray:
        """Per-post time slices as an int array (a copy)."""
        return np.array(self.post_times)

    def subset_posts(self, indices: "np.ndarray | list[int]") -> "SocialCorpus":
        """An in-RAM corpus containing only the selected posts (links
        unchanged), gathered from the columns."""
        rows = np.asarray(indices, np.int64).reshape(-1)
        rows = np.arange(self.num_posts)[rows]  # bounds-checked, negatives wrap
        tokens = _gather_tokens(self.token_offsets, self.post_lengths, rows)
        return self._in_ram(
            self.post_authors[rows], self.post_times[rows],
            self.post_lengths[rows], self.tokens[tokens], self.link_array(),
        )

    def subset_links(self, indices: "np.ndarray | list[int]") -> "SocialCorpus":
        """An in-RAM corpus containing only the selected links (posts
        unchanged)."""
        rows = np.asarray(indices, np.int64).reshape(-1)
        return self._in_ram(
            self.post_authors, self.post_times, self.post_lengths,
            self.tokens, self.link_array()[rows],
        )

    def _in_ram(self, authors, times, lengths, words, links) -> "SocialCorpus":
        """An in-RAM corpus of copies of these columns, which may be views
        of a map that closes."""
        return SocialCorpus.from_columns(
            self.num_users, self.num_time_slices,
            *map(np.array, (authors, times, lengths, words, links)),
            vocabulary=self.vocabulary, vocab_size=self.vocab_size,
        )

    def describe(self) -> dict[str, int]:
        """Summary statistics in the style of the paper's §6.1 dataset table."""
        return {
            "users": self.num_users,
            "posts": self.num_posts,
            "words": self.num_words,
            "links": self.num_links,
            "vocab": self.vocab_size,
            "time_slices": self.num_time_slices,
        }

    def __repr__(self) -> str:
        stats = self.describe()
        inner = ", ".join(f"{key}={value}" for key, value in stats.items())
        return f"{type(self).__name__}({inner})"


class SocialCorpus(CorpusReads):
    """The full observed dataset: users, posts, links, and the time grid.

    Posts and links live in int64 columns (see the module docstring);
    ``posts`` and ``links`` are read-only views of them.  Build a corpus
    from columns with :meth:`from_columns`, or from ``Post`` objects and
    ``(src, dst)`` pairs with the constructor, which converts them once.
    Grow it in place with :meth:`extend`.

    Parameters
    ----------
    num_users:
        Number of users ``U``; user ids are ``0..U-1``.
    num_time_slices:
        Number of discrete time slices ``T``.
    posts:
        All posts (any order).  Post indices are the canonical post ids
        used by samplers and splits.
    links:
        Directed positive interaction links ``(i, i')`` meaning content flows
        from ``i`` to ``i'``.  Stored deduplicated, in insertion order.
    vocabulary:
        Optional token mapping.  Models only need ``vocab_size``; keeping the
        mapping enables human-readable analysis output (word clouds).
    vocab_size:
        Size of the word-id space ``V``.  Derived from ``vocabulary`` when one
        is given, else from the largest word id when left 0.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        num_users: int,
        num_time_slices: int,
        posts=(),
        links=(),
        vocabulary: Vocabulary | None = None,
        vocab_size: int = 0,
    ) -> None:
        self._build(
            num_users, num_time_slices, post_columns(posts), link_pairs(links),
            vocabulary, vocab_size,
        )

    @classmethod
    def from_columns(
        cls,
        num_users: int,
        num_time_slices: int,
        authors,
        times,
        lengths,
        words,
        links=(),
        *,
        vocabulary: Vocabulary | None = None,
        vocab_size: int = 0,
    ) -> "SocialCorpus":
        """A corpus of posts given as columns: one author, time slice and
        length per post, and ``words`` end to end; ``links`` an ``(E, 2)``
        array or pairs.  The columns are checked exactly as the
        constructor checks ``Post`` objects, with the same errors.  Integer
        columns are kept as read-only views, not copied: do not write to
        the arrays passed in afterwards."""
        corpus = cls.__new__(cls)
        corpus._build(
            num_users, num_time_slices,
            tuple(map(int_ids, (authors, times, lengths, words))),
            link_pairs(links), vocabulary, vocab_size,
        )
        return corpus

    def _build(
        self, num_users, num_time_slices, columns, pairs, vocabulary, vocab_size
    ) -> None:
        if num_users <= 0:
            raise CorpusError(f"num_users must be positive, got {num_users}")
        if num_time_slices <= 0:
            raise CorpusError(
                f"num_time_slices must be positive, got {num_time_slices}"
            )
        if vocabulary is not None:
            if len(vocabulary) == 0:
                raise CorpusError(
                    "supplied vocabulary is empty; omit it to derive "
                    "vocab_size from the posts"
                )
            if vocab_size not in (0, len(vocabulary)):
                raise CorpusError(
                    "vocab_size disagrees with the supplied vocabulary"
                )
            vocab_size = len(vocabulary)
        self.num_users = num_users
        self.num_time_slices = num_time_slices
        self.vocabulary = vocabulary
        self.vocab_size = vocab_size
        empty = _frozen(np.zeros(0, np.int64))
        self.post_authors = self.post_times = self.post_lengths = empty
        self.tokens = empty
        self.token_offsets = _frozen(np.zeros(1, np.int64))
        self._links = _frozen(np.zeros((0, 2), np.int64))
        self._table: PostTable | None = None
        self._append_posts(*columns)
        check_links(pairs, num_users)
        self._links = _frozen(unique_links(pairs, num_users))

    # -- growth ------------------------------------------------------------------

    def extend(self, posts=(), links=()) -> None:
        """Append ``posts`` (``Post`` objects) and ``links`` in place.

        Posts are checked as at construction, numbered after the existing
        ones.  Self-links, links already in the corpus and repeats within
        ``links`` are dropped, the rule of the sampler state's increments
        (:func:`unique_links`); a dangling endpoint raises.  A rejected
        call changes nothing.
        """
        self.extend_columns(*post_columns(posts), links)

    def extend_columns(self, authors, times, lengths, words, links=()) -> None:
        """:meth:`extend` for posts given as columns (``words`` end to
        end), as :meth:`from_columns` takes them."""
        columns = tuple(map(int_ids, (authors, times, lengths, words)))
        pairs = link_pairs(links)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        check_links(pairs, self.num_users)
        self._append_posts(*columns)
        fresh = unique_links(pairs, self.num_users, known=self._links)
        if len(fresh):
            self._links = _frozen(np.concatenate([self._links, fresh]))

    def _append_posts(self, authors, times, lengths, words) -> None:
        row = first_bad_post(
            authors, times, lengths, words, num_users=self.num_users,
            num_time_slices=self.num_time_slices, vocab_size=self.vocab_size,
        )
        if row >= 0:
            self._reject_post(row, authors, times, lengths, words)
        if not len(authors):
            return
        if not self.vocab_size:
            self.vocab_size = 1 + int(words.max())
        authors, times, lengths, words = (
            column.astype(np.int64, copy=False)
            for column in (authors, times, lengths, words)
        )
        ends = np.cumsum(lengths) + self.token_offsets[-1]
        first_fill = not self.num_posts
        for name, column in (
            ("post_authors", authors), ("post_times", times),
            ("post_lengths", lengths), ("tokens", words),
        ):
            # A first fill keeps the given column (a read-only view of
            # it): the generator's columns are never held twice.
            setattr(self, name, _frozen(
                column.view() if first_fill
                else np.concatenate([getattr(self, name), column])
            ))
        self.token_offsets = _frozen(np.concatenate([self.token_offsets, ends]))
        self._table = None

    def _reject_post(self, row, authors, times, lengths, words) -> NoReturn:
        """Raise for the first failing check of batch row ``row``, in the
        order a ``Post`` and then the corpus check it: a negative author,
        a negative time slice, an empty post, a negative word id, then an
        author, time slice or word id past its bound."""
        post = self.num_posts + row
        author, timestamp = authors[row], times[row]
        lo = int(lengths[:row].sum())
        ids = words[lo : lo + lengths[row]]
        if author < 0:
            raise CorpusValidationError(f"author id must be >= 0, got {author}")
        if timestamp < 0:
            raise CorpusValidationError(f"timestamp must be >= 0, got {timestamp}")
        if len(ids) == 0:
            raise CorpusError("posts must contain at least one word")
        if (ids < 0).any():
            raise CorpusValidationError("word ids must be >= 0")
        if author >= self.num_users:
            raise CorpusValidationError(
                f"post {post}: author {author} >= num_users {self.num_users}"
            )
        if timestamp >= self.num_time_slices:
            raise CorpusValidationError(
                f"post {post}: timestamp {timestamp} >= "
                f"num_time_slices {self.num_time_slices}"
            )
        raise CorpusValidationError(
            f"post {post}: word id {ids.max()} >= vocab_size {self.vocab_size}"
        )

    # -- columns ------------------------------------------------------------------

    def link_array(self) -> np.ndarray:
        """Links as a read-only ``(E, 2)`` int64 array (empty -> ``(0, 2)``)."""
        return self._links

    def _post_table(self) -> "PostTable":
        if self._table is None:
            from ..core.state import PostTable

            table = PostTable.from_columns(
                self.post_authors, self.post_times, self.post_lengths,
                self.tokens,
            )
            for name in ("offsets", "unique_words", "unique_counts"):
                _frozen(getattr(table, name))
            self._table = table
        return self._table

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialCorpus):
            return NotImplemented
        return (
            (self.num_users, self.num_time_slices, self.vocab_size)
            == (other.num_users, other.num_time_slices, other.vocab_size)
            and self.vocabulary == other.vocabulary
            and self.posts == other.posts
            and self.links == other.links
        )
