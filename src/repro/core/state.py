"""Count state of the collapsed Gibbs sampler.

Collapsed Gibbs sampling never stores ``pi/theta/phi/psi/eta`` directly;
everything is expressed through sufficient-statistic counters (paper Eqs.
1–3).  :class:`CountState` owns those counters plus the current latent
assignments, and knows how to add/remove one post or link in O(post length)
— the property that makes each Gibbs sweep linear in the data size (§4.2).

Counter glossary (paper notation -> attribute):

* ``n_i^(c)``    -> ``n_user_comm[i, c]``   posts *and* link endpoints of
  user ``i`` assigned to community ``c`` (both are draws from ``pi_i``);
* ``n_c^(k)``    -> ``n_comm_topic[c, k]``  posts in community ``c`` with
  topic ``k``;
* ``n_ck^(t)``   -> ``n_comm_topic_time[c, k, t]`` time stamps;
* ``n_k^(v)``    -> ``n_topic_word[k, v]``  word tokens;
* ``n_k^(.)``    -> ``n_topic_total[k]``;
* ``n_cc'``      -> ``n_link_comm[c, c']``  positive links labelled (c, c').
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..datasets.corpus import Post, SocialCorpus, post_columns, unique_links

#: Unique-word entries per post slice of :meth:`CountState._recount`:
#: bounds the index columns alive at once.
_SLICE_WORDS = 1 << 16

#: Word-id span the native unique-word kernel always takes: its scratch
#: is one int64 stamp per id.  Beyond this and four stamps per token the
#: numpy body runs instead, so a huge sparse id never costs a huge table.
_NATIVE_CSR_SPAN = 1 << 20


def unique_word_csr(
    words: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-post unique words and counts, in :meth:`Post.word_counts` order.

    ``words`` is the flat non-negative int64 token column of consecutive
    posts of ``lengths`` tokens each.  Returns the flat unique words,
    their multiplicities and each post's number of unique words, in post
    order, then first appearance.  This is the one definition of that
    order: the corpora's post tables, :meth:`PostTable.from_posts` and
    the ``.coldpack`` writer all call it.  The native kernel
    ``cold_unique_words`` computes it in one O(tokens) pass whenever the
    library loads; :func:`_unique_word_csr_numpy` is its oracle and the
    fallback without a compiler.
    """
    # Imported here: fastgibbs imports this module.
    from .fastgibbs import native_kernel

    lib = native_kernel()
    words = np.ascontiguousarray(words, np.int64)
    lengths = np.ascontiguousarray(lengths, np.int64)
    if len(words) != int(lengths.sum()) or (lengths < 0).any():
        raise ValueError("lengths must be non-negative and sum to len(words)")
    if lib is None or (len(words) and int(words.min()) < 0):
        return _unique_word_csr_numpy(words, lengths)
    span = int(words.max(initial=-1)) + 1
    if span > max(4 * len(words), _NATIVE_CSR_SPAN):
        return _unique_word_csr_numpy(words, lengths)
    stamp = np.full(span, -1, np.int64)
    unique_words = np.empty(len(words), np.int64)
    unique_counts = np.empty(len(words), np.int64)
    sizes = np.empty(len(lengths), np.int64)
    filled = lib.cold_unique_words(
        words.ctypes.data, lengths.ctypes.data, len(lengths),
        stamp.ctypes.data, unique_words.ctypes.data,
        unique_counts.ctypes.data, sizes.ctypes.data,
    )
    # Shrunk in place (realloc): the corpus keeps these for its lifetime,
    # and distinct words are often well under the token count.
    unique_words.resize(filled, refcheck=False)
    unique_counts.resize(filled, refcheck=False)
    return unique_words, unique_counts, sizes


def _unique_word_csr_numpy(
    words: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`unique_word_csr` by one stable sort of the (post, word)
    pairs, which gives every pair's first position and multiplicity; the
    pairs taken in first-position order are in post order, then first
    appearance."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    pairs = owner * (int(words.max(initial=0)) + 1) + words
    # Stably sorted, each (post, word) run starts at the pair's first
    # position and is as long as its count.
    order = np.argsort(pairs, kind="stable")
    starts = np.flatnonzero(np.diff(pairs[order], prepend=-1))
    counts = np.zeros(len(words), np.int64)
    counts[order[starts]] = np.diff(starts, append=len(words))
    first = np.flatnonzero(counts)
    return (
        words[first],
        counts[first],
        np.bincount(owner[first], minlength=len(lengths)),
    )


def _count_into(counter: np.ndarray, index: np.ndarray, weights=1) -> None:
    """``np.add.at`` of ``weights`` at the flat ids ``index`` of ``counter``.

    A 1-D scatter: numpy's ``add.at`` takes it several times faster than
    a tuple of per-axis indices, and faster than a weighted
    ``np.bincount`` with no span to allocate (EXPERIMENTS.md).
    """
    if counter.flags.c_contiguous:
        np.add.at(counter.reshape(-1), index, weights)
    else:
        np.add.at(counter, np.unravel_index(index, counter.shape), weights)


class StateError(ValueError):
    """Raised when the count state is used inconsistently."""


@dataclass
class PostTable:
    """Struct-of-arrays view of the corpus posts, built once per fit.

    ``unique_words`` / ``unique_counts`` are CSR-style flattened per-post
    multisets (``offsets[p]:offsets[p+1]`` is post ``p``'s slice); they feed
    the Eq. (3) word term without per-iteration dictionary work.
    """

    authors: np.ndarray
    times: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    unique_words: np.ndarray
    unique_counts: np.ndarray

    @classmethod
    def from_corpus(cls, corpus: SocialCorpus) -> "PostTable":
        """``corpus.post_table()``: every corpus keeps its posts as
        columns, so this loops over no ``Post``."""
        return corpus.post_table()

    @classmethod
    def from_columns(
        cls,
        authors: np.ndarray,
        times: np.ndarray,
        lengths: np.ndarray,
        words: np.ndarray,
    ) -> "PostTable":
        """The table of posts given as columns (``words`` end to end),
        each post's unique words in the first-appearance order of
        :meth:`Post.word_counts` (one :func:`unique_word_csr` call)."""
        unique_words, unique_counts, sizes = unique_word_csr(words, lengths)
        offsets = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            authors=authors,
            times=times,
            lengths=lengths,
            offsets=offsets,
            unique_words=unique_words,
            unique_counts=unique_counts,
        )

    @classmethod
    def from_posts(cls, posts: Sequence[Post]) -> "PostTable":
        """The table of ``Post`` objects, gathered into columns once."""
        return cls.from_columns(*post_columns(posts))

    def __len__(self) -> int:
        return len(self.authors)

    def words_of(self, post: int) -> tuple[np.ndarray, np.ndarray]:
        """Unique word ids and their multiplicities for one post."""
        lo, hi = self.offsets[post], self.offsets[post + 1]
        return self.unique_words[lo:hi], self.unique_counts[lo:hi]


@dataclass
class CountState:
    """All Gibbs counters plus current latent assignments.

    Shapes: ``U`` users, ``C`` communities, ``K`` topics, ``T`` time slices,
    ``V`` vocabulary terms, ``D`` posts, ``E`` positive links.
    """

    num_communities: int
    num_topics: int
    posts: PostTable
    links: np.ndarray  # (E, 2)
    n_user_comm: np.ndarray  # (U, C)
    n_comm_topic: np.ndarray  # (C, K)
    n_comm_topic_time: np.ndarray  # (C, K, T)
    n_topic_word: np.ndarray  # (K, V)
    n_topic_total: np.ndarray  # (K,)
    n_link_comm: np.ndarray  # (C, C)
    post_comm: np.ndarray  # (D,)
    post_topic: np.ndarray  # (D,)
    link_src_comm: np.ndarray  # (E,)
    link_dst_comm: np.ndarray  # (E,)
    #: Number of degenerate categorical draws (all-zero/non-finite weights)
    #: the Gibbs kernels fell back to uniform on; see repro.core.gibbs.
    degenerate_draws: int = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def initialize(
        cls,
        corpus: SocialCorpus,
        num_communities: int,
        num_topics: int,
        rng: np.random.Generator,
        include_network: bool = True,
    ) -> "CountState":
        """Random initial assignments with counters built to match."""
        if num_communities <= 0 or num_topics <= 0:
            raise StateError("num_communities and num_topics must be positive")
        posts = PostTable.from_corpus(corpus)
        links = corpus.link_array() if include_network else np.zeros((0, 2), np.int64)
        D, E = len(posts), len(links)
        state = cls(
            num_communities=num_communities,
            num_topics=num_topics,
            posts=posts,
            links=links,
            n_user_comm=np.zeros((corpus.num_users, num_communities), np.int64),
            n_comm_topic=np.zeros((num_communities, num_topics), np.int64),
            n_comm_topic_time=np.zeros(
                (num_communities, num_topics, corpus.num_time_slices), np.int64
            ),
            n_topic_word=np.zeros((num_topics, corpus.vocab_size), np.int64),
            n_topic_total=np.zeros(num_topics, np.int64),
            n_link_comm=np.zeros((num_communities, num_communities), np.int64),
            post_comm=rng.integers(num_communities, size=D),
            post_topic=rng.integers(num_topics, size=D),
            link_src_comm=rng.integers(num_communities, size=E),
            link_dst_comm=rng.integers(num_communities, size=E),
        )
        state._count_from(0, 0)
        return state

    # -- post bookkeeping -----------------------------------------------------

    def remove_post(self, post: int) -> tuple[int, int]:
        """Subtract post ``post``'s contribution; returns its (c, z)."""
        c = int(self.post_comm[post])
        k = int(self.post_topic[post])
        author = self.posts.authors[post]
        t = self.posts.times[post]
        self.n_user_comm[author, c] -= 1
        self.n_comm_topic[c, k] -= 1
        self.n_comm_topic_time[c, k, t] -= 1
        words, counts = self.posts.words_of(post)
        # Unique-word indices (PostTable is a unique-word CSR), so plain
        # fancy-index updates are exact and much cheaper than ufunc.at.
        self.n_topic_word[k, words] -= counts
        self.n_topic_total[k] -= self.posts.lengths[post]
        return c, k

    def add_post(self, post: int, c: int, k: int) -> None:
        """Add post ``post`` with assignment (c, z=k)."""
        author = self.posts.authors[post]
        t = self.posts.times[post]
        self.post_comm[post] = c
        self.post_topic[post] = k
        self.n_user_comm[author, c] += 1
        self.n_comm_topic[c, k] += 1
        self.n_comm_topic_time[c, k, t] += 1
        words, counts = self.posts.words_of(post)
        self.n_topic_word[k, words] += counts
        self.n_topic_total[k] += self.posts.lengths[post]

    def move_post(self, post: int, c: int, k: int) -> tuple[int, int]:
        """Reassign ``post`` to (c, k), applying only the net counter deltas.

        Exactly equivalent to ``remove_post`` followed by ``add_post(post,
        c, k)`` — all counters are integers, so skipping the cancelled
        updates (same community, same topic) changes nothing — but
        substantially cheaper on the sampler hot path.  Returns the old
        ``(c, k)``.
        """
        old_c = int(self.post_comm[post])
        old_k = int(self.post_topic[post])
        author = self.posts.authors[post]
        t = self.posts.times[post]
        self.post_comm[post] = c
        self.post_topic[post] = k
        if c != old_c:
            self.n_user_comm[author, old_c] -= 1
            self.n_user_comm[author, c] += 1
        self.n_comm_topic[old_c, old_k] -= 1
        self.n_comm_topic[c, k] += 1
        self.n_comm_topic_time[old_c, old_k, t] -= 1
        self.n_comm_topic_time[c, k, t] += 1
        if k != old_k:
            words, counts = self.posts.words_of(post)
            self.n_topic_word[old_k, words] -= counts
            self.n_topic_word[k, words] += counts
            length = self.posts.lengths[post]
            self.n_topic_total[old_k] -= length
            self.n_topic_total[k] += length
        return old_c, old_k

    # -- link bookkeeping -----------------------------------------------------

    def remove_link(self, link: int) -> tuple[int, int]:
        """Subtract link ``link``'s contribution; returns its (s, s')."""
        src, dst = self.links[link]
        c = int(self.link_src_comm[link])
        c_prime = int(self.link_dst_comm[link])
        self.n_user_comm[src, c] -= 1
        self.n_user_comm[dst, c_prime] -= 1
        self.n_link_comm[c, c_prime] -= 1
        return c, c_prime

    def add_link(self, link: int, c: int, c_prime: int) -> None:
        """Add link ``link`` with community labels (s=c, s'=c_prime)."""
        src, dst = self.links[link]
        self.link_src_comm[link] = c
        self.link_dst_comm[link] = c_prime
        self.n_user_comm[src, c] += 1
        self.n_user_comm[dst, c_prime] += 1
        self.n_link_comm[c, c_prime] += 1

    def move_link(self, link: int, c: int, c_prime: int) -> tuple[int, int]:
        """Relabel ``link`` to (c, c'), applying only the net counter deltas.

        Exactly equivalent to ``remove_link`` followed by ``add_link(link,
        c, c_prime)`` (integer counters, cancelled updates skipped).
        Returns the old ``(c, c')``.
        """
        src, dst = self.links[link]
        old_c = int(self.link_src_comm[link])
        old_c_prime = int(self.link_dst_comm[link])
        self.link_src_comm[link] = c
        self.link_dst_comm[link] = c_prime
        if c != old_c:
            self.n_user_comm[src, old_c] -= 1
            self.n_user_comm[src, c] += 1
        if c_prime != old_c_prime:
            self.n_user_comm[dst, old_c_prime] -= 1
            self.n_user_comm[dst, c_prime] += 1
        self.n_link_comm[old_c, old_c_prime] -= 1
        self.n_link_comm[c, c_prime] += 1
        return old_c, old_c_prime

    # -- incremental growth ---------------------------------------------------

    def fold_increment(
        self,
        posts: "Sequence[Post] | PostTable",
        links: "Sequence[tuple[int, int]]",
        num_users: int,
        vocab_size: int,
        num_time_slices: int,
        rng: np.random.Generator,
        include_network: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grow the state for new corpus content and fold it into the counters.

        ``posts`` are the new ``Post`` objects, or their
        :class:`PostTable` when the caller has converted them already.

        Dimensions are append-only: ``num_users`` / ``vocab_size`` /
        ``num_time_slices`` are the new totals and must not shrink (new
        rows/columns/slices start at zero counts — for psi that is exactly
        the prior-mass initialisation, since estimation smooths every
        count with epsilon).  New posts and links get random initial
        assignments from ``rng`` (mirroring :meth:`initialize`) and their
        counts are added in O(new data).  Links already present in the
        state (or duplicated within the increment) are dropped, matching
        corpus-construction dedup.  Returns ``(new_post_indices,
        new_link_indices)`` into the grown tables.

        Raises :class:`StateError` on shrinking dimensions, on a post
        that references an out-of-range user/word/time id or on a link
        with an out-of-range endpoint, before the state changes.
        """
        U, C = self.n_user_comm.shape
        K, V = self.n_topic_word.shape
        T = self.n_comm_topic_time.shape[2]
        if num_users < U or vocab_size < V or num_time_slices < T:
            raise StateError(
                "increment shrinks a dimension: "
                f"users {U}->{num_users}, vocab {V}->{vocab_size}, "
                f"slices {T}->{num_time_slices}"
            )
        new = posts if isinstance(posts, PostTable) else PostTable.from_posts(posts)
        for label, ids, bound in (
            ("author", new.authors, num_users),
            ("timestamp", new.times, num_time_slices),
            ("word id", new.unique_words, vocab_size),
        ):
            outside = (ids < 0) | (ids >= bound)
            if outside.any():
                raise StateError(f"post {label} {ids[outside][0]} out of range")
        fresh = np.zeros((0, 2), np.int64)
        if include_network and len(links):
            fresh = self._fresh_links(
                np.asarray(links, np.int64).reshape(-1, 2), num_users
            )

        if num_users > U:
            self.n_user_comm = np.concatenate(
                [self.n_user_comm, np.zeros((num_users - U, C), np.int64)]
            )
        if vocab_size > V:
            self.n_topic_word = np.concatenate(
                [self.n_topic_word, np.zeros((K, vocab_size - V), np.int64)],
                axis=1,
            )
        if num_time_slices > T:
            grown = np.zeros((C, K, num_time_slices), np.int64)
            grown[:, :, :T] = self.n_comm_topic_time
            self.n_comm_topic_time = grown

        # Append the new posts to the struct-of-arrays table.
        table = self.posts
        D = len(table)
        if len(new):
            table.authors = np.concatenate([table.authors, new.authors])
            table.times = np.concatenate([table.times, new.times])
            table.lengths = np.concatenate([table.lengths, new.lengths])
            table.offsets = np.concatenate(
                [table.offsets, table.offsets[-1] + new.offsets[1:]]
            )
            table.unique_words = np.concatenate(
                [table.unique_words, new.unique_words]
            )
            table.unique_counts = np.concatenate(
                [table.unique_counts, new.unique_counts]
            )
        self.post_comm = np.concatenate(
            [self.post_comm, rng.integers(C, size=len(new))]
        )
        self.post_topic = np.concatenate(
            [self.post_topic, rng.integers(K, size=len(new))]
        )
        E = len(self.links)
        if len(fresh):
            self.links = np.concatenate([self.links, fresh])
            self.link_src_comm = np.concatenate(
                [self.link_src_comm, rng.integers(C, size=len(fresh))]
            )
            self.link_dst_comm = np.concatenate(
                [self.link_dst_comm, rng.integers(C, size=len(fresh))]
            )
        self._count_from(D, E)
        return np.arange(D, D + len(new)), np.arange(E, E + len(fresh))

    def _fresh_links(self, links: np.ndarray, num_users: int) -> np.ndarray:
        """``links`` without self-links, edges already in the state and
        repeats, in first-occurrence order.

        Raises :class:`StateError` on the first remaining edge with an
        endpoint outside ``[0, num_users)``.
        """
        links = links[links[:, 0] != links[:, 1]]
        outside = ((links < 0) | (links >= num_users)).any(axis=1)
        if outside.any():
            edge = tuple(links[outside][0].tolist())
            raise StateError(f"link endpoint {edge} out of range")
        return unique_links(links, num_users, known=self.links)

    # -- sparse iteration -----------------------------------------------------

    def active_comm_topic_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices ``(cs, ks)`` of (community, topic) cells holding posts.

        On mixed chains most of the ``C x K`` grid is cold (zero posts);
        consumers that precompute per-cell quantities (the fast-sweep
        caches, occupancy reports) iterate only these cells and fill the
        cold ones with the shared zero-count value.
        """
        return np.nonzero(self.n_comm_topic)

    def active_topic_words(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices ``(ks, vs)`` of (topic, word) cells with nonzero counts.

        The ``K x V`` word-count matrix is overwhelmingly sparse for real
        vocabularies; per-cell precomputation touches only these entries.
        """
        return np.nonzero(self.n_topic_word)

    def top_comm_topic_cells(
        self, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``limit`` hottest (community, topic) cells by post count.

        Returns ``(cs, ks, counts)`` sorted by descending count; cold
        (zero) cells are never included, so fewer than ``limit`` rows come
        back on sparse states.  Used for top-K occupancy summaries (the
        perf harness reports these) without scanning the full grid.
        """
        if limit <= 0:
            raise StateError("limit must be positive")
        cs, ks = self.active_comm_topic_cells()
        counts = self.n_comm_topic[cs, ks]
        order = np.argsort(counts, kind="stable")[::-1][:limit]
        return cs[order], ks[order], counts[order]

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify every counter against a from-scratch recount.

        O(data); used by tests and available under a debug flag.  Raises
        :class:`StateError` on the first mismatch.
        """
        C, K = self.num_communities, self.num_topics
        for name, bound in (
            ("post_comm", C), ("post_topic", K),
            ("link_src_comm", C), ("link_dst_comm", C),
        ):
            labels = getattr(self, name)
            if len(labels) and (labels.min() < 0 or labels.max() >= bound):
                raise StateError(f"assignment {name} outside [0, {bound})")
        recount = self._recount()
        for name in self._COUNTERS:
            mine = getattr(self, name)
            theirs = recount[name]
            if not np.array_equal(mine, theirs):
                raise StateError(f"counter {name} inconsistent with assignments")
        if (self.n_user_comm < 0).any() or (self.n_link_comm < 0).any():
            raise StateError("negative counts detected")

    def _recount(
        self,
        first_post: int = 0,
        first_link: int = 0,
        into: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Every counter, counted from the assignments of the posts from
        ``first_post`` and the links from ``first_link`` on, and added to
        ``into`` (default: zero counters).

        Vectorised over the :class:`PostTable` columns, in post slices of
        about ``_SLICE_WORDS`` unique words, and the link array: each
        counter takes one flat-index :func:`_count_into` per slice.
        Integer counts, so exactly what one :meth:`add_post` /
        :meth:`add_link` per item adds.  From ``(0, 0)`` onto zeros this is
        :meth:`check_invariants`' reference.
        """
        counts = into if into is not None else {
            name: np.zeros_like(getattr(self, name)) for name in self._COUNTERS
        }
        _, K, T = counts["n_comm_topic_time"].shape
        C, V = counts["n_user_comm"].shape[1], counts["n_topic_word"].shape[1]
        table = self.posts
        offsets = table.offsets
        lo = first_post
        while lo < len(table):
            # The posts whose unique words end within _SLICE_WORDS of lo's
            # start; at least one.
            end = np.searchsorted(offsets, offsets[lo] + _SLICE_WORDS, "right") - 1
            hi = min(max(int(end), lo + 1), len(table))
            c, k = self.post_comm[lo:hi], self.post_topic[lo:hi]
            cell = c * K + k
            _count_into(counts["n_user_comm"], table.authors[lo:hi] * C + c)
            _count_into(counts["n_comm_topic"], cell)
            _count_into(counts["n_comm_topic_time"], cell * T + table.times[lo:hi])
            _count_into(counts["n_topic_total"], k, table.lengths[lo:hi])
            words = slice(offsets[lo], offsets[hi])
            rows = np.repeat(k * V, np.diff(offsets[lo:hi + 1]))
            _count_into(
                counts["n_topic_word"],
                rows + table.unique_words[words],
                table.unique_counts[words],
            )
            lo = hi
        s = self.link_src_comm[first_link:]
        d = self.link_dst_comm[first_link:]
        links = self.links[first_link:]
        _count_into(counts["n_user_comm"], links[:, 0] * C + s)
        _count_into(counts["n_user_comm"], links[:, 1] * C + d)
        _count_into(counts["n_link_comm"], s * C + d)
        return counts

    def _count_from(self, first_post: int, first_link: int) -> None:
        """Add the posts from ``first_post`` and the links from
        ``first_link`` on to the counters, under their assignments."""
        live = {name: getattr(self, name) for name in self._COUNTERS}
        self._recount(first_post, first_link, into=live)

    # -- serialisation --------------------------------------------------------

    #: The counters, all derived from the assignments.
    _COUNTERS = (
        "n_user_comm",
        "n_comm_topic",
        "n_comm_topic_time",
        "n_topic_word",
        "n_topic_total",
        "n_link_comm",
    )
    #: Arrays that fully determine a CountState (with the scalar dims).
    _ARRAY_FIELDS = (
        *_COUNTERS,
        "post_comm",
        "post_topic",
        "link_src_comm",
        "link_dst_comm",
        "links",
    )
    _POST_FIELDS = (
        "authors",
        "times",
        "lengths",
        "offsets",
        "unique_words",
        "unique_counts",
    )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Every array needed to reconstruct this state, flat by name.

        Together with ``num_communities``/``num_topics`` (carried in the
        checkpoint manifest) this is a complete, self-contained snapshot:
        the post table is included, so resuming needs no corpus reload.
        """
        arrays = {name: getattr(self, name) for name in self._ARRAY_FIELDS}
        for name in self._POST_FIELDS:
            arrays[f"posts_{name}"] = getattr(self.posts, name)
        return arrays

    @classmethod
    def from_arrays(
        cls,
        arrays: dict[str, np.ndarray],
        num_communities: int,
        num_topics: int,
        degenerate_draws: int = 0,
    ) -> "CountState":
        """Rebuild a state saved by :meth:`to_arrays`.

        Raises :class:`StateError` on missing arrays, then verifies the
        counters against a recount so a tampered checkpoint payload cannot
        smuggle in inconsistent state.
        """
        missing = [
            name
            for name in (
                *cls._ARRAY_FIELDS,
                *(f"posts_{field_name}" for field_name in cls._POST_FIELDS),
            )
            if name not in arrays
        ]
        if missing:
            raise StateError(f"state arrays missing: {', '.join(missing)}")
        posts = PostTable(
            **{name: np.asarray(arrays[f"posts_{name}"]) for name in cls._POST_FIELDS}
        )
        state = cls(
            num_communities=num_communities,
            num_topics=num_topics,
            posts=posts,
            degenerate_draws=degenerate_draws,
            **{
                name: np.asarray(arrays[name]).copy()
                for name in cls._ARRAY_FIELDS
            },
        )
        state.check_invariants()
        return state

    # -- sizes ----------------------------------------------------------------

    @property
    def num_posts(self) -> int:
        return len(self.posts)

    @property
    def num_links(self) -> int:
        return len(self.links)
