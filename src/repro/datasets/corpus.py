"""Corpus containers: posts, links, and the :class:`SocialCorpus` aggregate.

These are the observed inputs of the COLD model (paper §3.1, Table 1):

* a set of ``U`` users;
* per user, time-stamped short posts (bags of word ids over a vocabulary);
* a directed interaction network ``E`` where ``(i, i')`` means information
  flowed from ``i`` to ``i'`` (e.g. ``i'`` retweeted ``i``);
* a discretisation of the full time span into ``T`` slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .vocabulary import Vocabulary


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


@dataclass
class SocialCorpus:
    """The full observed dataset: users, posts, links, and the time grid.

    Parameters
    ----------
    num_users:
        Number of users ``U``; user ids are ``0..U-1``.
    num_time_slices:
        Number of discrete time slices ``T``.
    posts:
        All posts (any order).  Post indices into this list are the canonical
        post ids used by samplers and splits.
    links:
        Directed positive interaction links ``(i, i')`` meaning content flows
        from ``i`` to ``i'``.  Stored deduplicated, in insertion order.
    vocabulary:
        Optional token mapping.  Models only need ``vocab_size``; keeping the
        mapping enables human-readable analysis output (word clouds).
    vocab_size:
        Size of the word-id space ``V``.  Derived from ``vocabulary`` when one
        is given.
    """

    num_users: int
    num_time_slices: int
    posts: list[Post] = field(default_factory=list)
    links: list[tuple[int, int]] = field(default_factory=list)
    vocabulary: Vocabulary | None = None
    vocab_size: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0:
            raise CorpusError(f"num_users must be positive, got {self.num_users}")
        if self.num_time_slices <= 0:
            raise CorpusError(
                f"num_time_slices must be positive, got {self.num_time_slices}"
            )
        if self.vocabulary is not None:
            if len(self.vocabulary) == 0:
                raise CorpusError(
                    "supplied vocabulary is empty; omit it to derive "
                    "vocab_size from the posts"
                )
            if self.vocab_size not in (0, len(self.vocabulary)):
                raise CorpusError(
                    "vocab_size disagrees with the supplied vocabulary"
                )
            self.vocab_size = len(self.vocabulary)
        self._validate_posts()
        self.links = self._validate_links(self.links)

    def _validate_posts(self) -> None:
        # One pass building id columns, then vectorised range checks — on a
        # large ingest this replaces three Python comparisons per post with
        # three array comparisons, and the same maxima derive vocab_size.
        if not self.posts:
            return
        count = len(self.posts)
        authors = np.fromiter(
            (post.author for post in self.posts), np.int64, count=count
        )
        times = np.fromiter(
            (post.timestamp for post in self.posts), np.int64, count=count
        )
        word_maxima = np.fromiter(
            (max(post.words) for post in self.posts), np.int64, count=count
        )
        bad = authors >= self.num_users
        if bad.any():
            idx = int(np.argmax(bad))
            raise CorpusValidationError(
                f"post {idx}: author {int(authors[idx])} >= "
                f"num_users {self.num_users}"
            )
        bad = times >= self.num_time_slices
        if bad.any():
            idx = int(np.argmax(bad))
            raise CorpusValidationError(
                f"post {idx}: timestamp {int(times[idx])} >= "
                f"num_time_slices {self.num_time_slices}"
            )
        if self.vocab_size:
            bad = word_maxima >= self.vocab_size
            if bad.any():
                idx = int(np.argmax(bad))
                raise CorpusValidationError(
                    f"post {idx}: word id {int(word_maxima[idx])} >= "
                    f"vocab_size {self.vocab_size}"
                )
        else:
            self.vocab_size = 1 + int(word_maxima.max())

    def _validate_links(self, links: list[tuple[int, int]]) -> list[tuple[int, int]]:
        seen: set[tuple[int, int]] = set()
        unique: list[tuple[int, int]] = []
        for src, dst in links:
            if not (0 <= src < self.num_users and 0 <= dst < self.num_users):
                raise CorpusValidationError(
                    f"link ({src}, {dst}) has dangling endpoint: user ids must "
                    f"lie in [0, {self.num_users})"
                )
            if src == dst:
                raise CorpusError(f"self-link ({src}, {dst}) is not allowed")
            edge = (int(src), int(dst))
            if edge not in seen:
                seen.add(edge)
                unique.append(edge)
        return unique

    # -- sizes (paper Table 1 quantities) ------------------------------------

    @property
    def num_posts(self) -> int:
        """Total number of posts (sum of ``D_i``)."""
        return len(self.posts)

    @property
    def num_links(self) -> int:
        """Number of positive links (sum of ``E_i``)."""
        return len(self.links)

    @property
    def num_words(self) -> int:
        """Total word tokens in the corpus."""
        return sum(len(post) for post in self.posts)

    @property
    def num_negative_links(self) -> int:
        """``n_neg = U(U-1) - |E|`` — used for the lambda_0 prior rule."""
        return self.num_users * (self.num_users - 1) - self.num_links

    # -- views ----------------------------------------------------------------

    def posts_by_user(self) -> list[list[int]]:
        """Post indices grouped by author: ``result[i]`` lists user i's posts."""
        grouped: list[list[int]] = [[] for _ in range(self.num_users)]
        for idx, post in enumerate(self.posts):
            grouped[post.author].append(idx)
        return grouped

    def out_links(self) -> list[list[int]]:
        """``result[i]`` = users that i links to (i's 'followers' who
        retweeted i, i.e. potential spreaders of i's content)."""
        adjacency: list[list[int]] = [[] for _ in range(self.num_users)]
        for src, dst in self.links:
            adjacency[src].append(dst)
        return adjacency

    def in_links(self) -> list[list[int]]:
        """``result[i']`` = users whose content reached i'."""
        adjacency: list[list[int]] = [[] for _ in range(self.num_users)]
        for src, dst in self.links:
            adjacency[dst].append(src)
        return adjacency

    def link_array(self) -> np.ndarray:
        """Links as an ``(E, 2)`` int array (empty -> shape ``(0, 2)``)."""
        if not self.links:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.links, dtype=np.int64)

    def link_set(self) -> set[tuple[int, int]]:
        """Links as a set for O(1) membership tests."""
        return set(self.links)

    def word_count_matrix(self) -> np.ndarray:
        """Dense ``(U, V)`` user-word count matrix (for feature baselines)."""
        matrix = np.zeros((self.num_users, self.vocab_size), dtype=np.int64)
        for post in self.posts:
            for w in post.words:
                matrix[post.author, w] += 1
        return matrix

    def timestamps(self) -> np.ndarray:
        """Per-post time slices as an int array."""
        return np.asarray([post.timestamp for post in self.posts], dtype=np.int64)

    def subset_posts(self, indices: "np.ndarray | list[int]") -> "SocialCorpus":
        """A corpus containing only the selected posts (links unchanged)."""
        selected = [self.posts[int(i)] for i in indices]
        return SocialCorpus(
            num_users=self.num_users,
            num_time_slices=self.num_time_slices,
            posts=selected,
            links=list(self.links),
            vocabulary=self.vocabulary,
            vocab_size=self.vocab_size,
        )

    def subset_links(self, indices: "np.ndarray | list[int]") -> "SocialCorpus":
        """A corpus containing only the selected links (posts unchanged)."""
        selected = [self.links[int(i)] for i in indices]
        return SocialCorpus(
            num_users=self.num_users,
            num_time_slices=self.num_time_slices,
            posts=list(self.posts),
            links=selected,
            vocabulary=self.vocabulary,
            vocab_size=self.vocab_size,
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
        return f"SocialCorpus({inner})"
