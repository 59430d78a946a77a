"""Unit tests for repro.core.state (Gibbs counters and bookkeeping)."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import state as state_module
from repro.core.state import CountState, PostTable, StateError
from repro.datasets.corpus import Post
from tests.conftest import make_corpus


def per_item_counters(state: CountState) -> dict[str, np.ndarray]:
    """The counters one ``add_post`` / ``add_link`` per item builds on zero
    counters, under ``state``'s assignments: the independent reference of
    the vectorised recount."""
    zero = replace(
        state,
        **{name: np.zeros_like(getattr(state, name)) for name in CountState._COUNTERS},
        post_comm=state.post_comm.copy(),
        post_topic=state.post_topic.copy(),
        link_src_comm=state.link_src_comm.copy(),
        link_dst_comm=state.link_dst_comm.copy(),
    )
    for p in range(zero.num_posts):
        zero.add_post(p, int(zero.post_comm[p]), int(zero.post_topic[p]))
    for e in range(zero.num_links):
        zero.add_link(e, int(zero.link_src_comm[e]), int(zero.link_dst_comm[e]))
    return {name: getattr(zero, name) for name in CountState._COUNTERS}


def assert_counters_equal(state: CountState, expected: dict[str, np.ndarray]) -> None:
    for name, counts in expected.items():
        np.testing.assert_array_equal(getattr(state, name), counts, err_msg=name)


@pytest.fixture()
def state(hand_corpus, rng) -> CountState:
    return CountState.initialize(hand_corpus, num_communities=3, num_topics=2, rng=rng)


class TestPostTable:
    def test_struct_of_arrays_shapes(self, hand_corpus):
        table = PostTable.from_corpus(hand_corpus)
        assert len(table) == hand_corpus.num_posts
        assert table.lengths.sum() == hand_corpus.num_words

    def test_words_of_reconstructs_multiset(self, hand_corpus):
        table = PostTable.from_corpus(hand_corpus)
        for p, post in enumerate(hand_corpus.posts):
            words, counts = table.words_of(p)
            assert dict(zip(words.tolist(), counts.tolist())) == post.word_counts()

    def test_authors_and_times(self, hand_corpus):
        table = PostTable.from_corpus(hand_corpus)
        assert table.authors.tolist() == [p.author for p in hand_corpus.posts]
        assert table.times.tolist() == [p.timestamp for p in hand_corpus.posts]

    def test_no_posts(self):
        table = PostTable.from_posts([])
        assert len(table) == 0
        assert table.offsets.tolist() == [0]
        assert table.unique_words.dtype == table.unique_counts.dtype == np.int64

    @settings(max_examples=150, deadline=None)
    @given(vocab=st.integers(1, 40), data=st.data())
    def test_from_posts_matches_word_counts_order(self, vocab, data):
        """Every post's unique words, counts and order are
        ``Post.word_counts()``'s: repeated ids, single-token posts, ids
        at V - 1."""
        word = st.integers(0, vocab - 1) | st.just(vocab - 1)
        posts = data.draw(st.lists(
            st.builds(
                Post,
                author=st.integers(0, 9),
                words=st.lists(word, min_size=1, max_size=12).map(tuple),
                timestamp=st.integers(0, 5),
            ),
            max_size=20,
        ))
        table = PostTable.from_posts(posts)
        assert table.authors.tolist() == [post.author for post in posts]
        assert table.times.tolist() == [post.timestamp for post in posts]
        assert table.lengths.tolist() == [len(post) for post in posts]
        assert len(table.unique_words) == table.offsets[-1]
        for p, post in enumerate(posts):
            words, counts = table.words_of(p)
            expected = post.word_counts()
            assert words.tolist() == list(expected)
            assert counts.tolist() == list(expected.values())


def add_at_recount(state, first_post, first_link, into):
    """``CountState._recount`` as one tuple-index ``np.add.at`` per
    counter: the scatter the flat-index recount replaced."""
    posts = slice(first_post, None)
    table, c, k = state.posts, state.post_comm[posts], state.post_topic[posts]
    np.add.at(into["n_user_comm"], (table.authors[posts], c), 1)
    np.add.at(into["n_comm_topic"], (c, k), 1)
    np.add.at(into["n_comm_topic_time"], (c, k, table.times[posts]), 1)
    np.add.at(into["n_topic_total"], k, table.lengths[posts])
    words = slice(table.offsets[first_post], None)
    np.add.at(
        into["n_topic_word"],
        (np.repeat(k, np.diff(table.offsets[first_post:])), table.unique_words[words]),
        table.unique_counts[words],
    )
    s, d = state.link_src_comm[first_link:], state.link_dst_comm[first_link:]
    links = state.links[first_link:]
    np.add.at(into["n_user_comm"], (links[:, 0], s), 1)
    np.add.at(into["n_user_comm"], (links[:, 1], d), 1)
    np.add.at(into["n_link_comm"], (s, d), 1)
    return into


class TestRecount:
    """The flat-index recount against tuple-index ``np.add.at``."""

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        slice_words=st.integers(1, 12),
        into=st.booleans(),
        strided=st.booleans(),
    )
    def test_matches_add_at_oracle(self, data, slice_words, into, strided):
        """Any post slicing, partial ``first_post``/``first_link``, onto
        zeros or onto counts already there (``into=``), C-contiguous or
        not."""
        U, T, V = 4, 3, data.draw(st.integers(1, 9))
        posts = data.draw(st.lists(
            st.builds(
                Post,
                author=st.integers(0, U - 1),
                words=st.lists(
                    st.integers(0, V - 1), min_size=1, max_size=8
                ).map(tuple),
                timestamp=st.integers(0, T - 1),
            ),
            min_size=1, max_size=12,
        ))
        links = data.draw(st.lists(
            st.tuples(st.integers(0, U - 1), st.integers(0, U - 1)).filter(
                lambda link: link[0] != link[1]
            ),
            max_size=10, unique=True,
        ))
        corpus = make_corpus(
            posts, links, num_users=U, num_time_slices=T, vocab_size=V
        )
        C, K = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        assignments = np.random.default_rng(data.draw(st.integers(0, 99)))
        state = CountState.initialize(corpus, C, K, assignments)
        first_post = data.draw(st.integers(0, state.num_posts))
        first_link = data.draw(st.integers(0, state.num_links))
        # Counts already there: every other entry of a wider array, so a
        # strided counter is not C-contiguous.
        rng = np.random.default_rng(7)
        start = {}
        for name in CountState._COUNTERS:
            shape = getattr(state, name).shape
            wide = rng.integers(0, 5, (*shape[:-1], 2 * shape[-1]))
            start[name] = wide[..., ::2] if strided else wide[..., ::2].copy()
        want = add_at_recount(
            state, first_post, first_link,
            {name: counts.copy() for name, counts in start.items()} if into else {
                name: np.zeros_like(getattr(state, name))
                for name in CountState._COUNTERS
            },
        )
        with mock.patch.object(state_module, "_SLICE_WORDS", slice_words):
            got = state._recount(first_post, first_link, into=start if into else None)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
            if into:
                assert got[name] is start[name]


class TestInitialize:
    def test_counters_match_recount_after_init(self, state):
        state.check_invariants()

    def test_count_totals(self, state, hand_corpus):
        assert state.n_comm_topic.sum() == hand_corpus.num_posts
        assert state.n_topic_total.sum() == hand_corpus.num_words
        assert state.n_link_comm.sum() == hand_corpus.num_links
        # posts + 2 endpoints per link
        assert state.n_user_comm.sum() == hand_corpus.num_posts + 2 * hand_corpus.num_links

    def test_without_network(self, hand_corpus, rng):
        state = CountState.initialize(
            hand_corpus, 3, 2, rng, include_network=False
        )
        assert state.num_links == 0
        assert state.n_link_comm.sum() == 0
        state.check_invariants()

    def test_rejects_bad_dimensions(self, hand_corpus, rng):
        with pytest.raises(StateError):
            CountState.initialize(hand_corpus, 0, 2, rng)

    @pytest.mark.parametrize("include_network", [True, False])
    @pytest.mark.parametrize("world", ["hand", "tiny", "no_links"])
    def test_counters_equal_a_per_item_build(
        self, world, include_network, hand_corpus, tiny_corpus
    ):
        corpus = {
            "hand": hand_corpus,
            "tiny": tiny_corpus,
            "no_links": make_corpus(hand_corpus.posts, []),
        }[world]
        state = CountState.initialize(
            corpus, 4, 3, np.random.default_rng(9), include_network=include_network
        )
        assert_counters_equal(state, per_item_counters(state))
        state.check_invariants()

    def test_assignments_are_the_same_integers_draws(self, tiny_corpus):
        """Posts' communities, topics, then links' source and target
        communities: one ``rng.integers`` call each, in that order."""
        state = CountState.initialize(tiny_corpus, 4, 3, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        D, E = tiny_corpus.num_posts, tiny_corpus.num_links
        for name, bound, size in (
            ("post_comm", 4, D), ("post_topic", 3, D),
            ("link_src_comm", 4, E), ("link_dst_comm", 4, E),
        ):
            np.testing.assert_array_equal(
                getattr(state, name), rng.integers(bound, size=size)
            )


class TestFoldIncrement:
    NEW_POSTS = (
        Post(author=5, words=(10, 10, 3), timestamp=4),
        Post(author=1, words=(11,), timestamp=0),
    )

    def _fold(self, state, posts, links, include_network=True):
        return state.fold_increment(
            posts, links, num_users=6, vocab_size=12, num_time_slices=5,
            rng=np.random.default_rng(4), include_network=include_network,
        )

    def test_counts_equal_a_per_item_build(self, state):
        links = [(5, 0), (0, 1), (4, 4), (5, 0), (1, 5), (0, 1)]
        new_posts, new_links = self._fold(state, self.NEW_POSTS, links)
        assert new_posts.tolist() == [6, 7]
        # (0, 1) already exists, (4, 4) is a self-link, (5, 0) repeats.
        assert new_links.tolist() == [4, 5]
        assert state.links[4:].tolist() == [[5, 0], [1, 5]]
        assert_counters_equal(state, per_item_counters(state))
        state.check_invariants()

    def test_post_table_matches_a_fresh_build(self, state, hand_corpus):
        self._fold(state, self.NEW_POSTS, [])
        fresh = PostTable.from_posts([*hand_corpus.posts, *self.NEW_POSTS])
        for name in CountState._POST_FIELDS:
            np.testing.assert_array_equal(
                getattr(state.posts, name), getattr(fresh, name), err_msg=name
            )

    def test_links_ignored_without_network(self, state):
        _, new_links = self._fold(state, (), [(5, 0)], include_network=False)
        assert len(new_links) == 0
        state.check_invariants()

    @pytest.mark.parametrize(
        "posts,links",
        [
            ((Post(author=6, words=(0,), timestamp=0),), []),
            ((Post(author=0, words=(12,), timestamp=0),), []),
            ((Post(author=0, words=(0,), timestamp=5),), []),
            (NEW_POSTS, [(0, 6)]),
            (NEW_POSTS, [(-1, 2)]),
        ],
    )
    def test_out_of_range_ids_raise_before_any_change(self, state, posts, links):
        before = {name: array.copy() for name, array in state.to_arrays().items()}
        with pytest.raises(StateError, match="out of range"):
            self._fold(state, posts, links)
        for name, array in state.to_arrays().items():
            np.testing.assert_array_equal(array, before[name], err_msg=name)


class TestPostBookkeeping:
    def test_remove_then_add_restores_state(self, state):
        before = {
            name: getattr(state, name).copy()
            for name in ("n_user_comm", "n_comm_topic", "n_comm_topic_time",
                         "n_topic_word", "n_topic_total")
        }
        c, k = state.remove_post(0)
        state.add_post(0, c, k)
        for name, expected in before.items():
            np.testing.assert_array_equal(getattr(state, name), expected)

    def test_remove_returns_current_assignment(self, state):
        expected = (int(state.post_comm[2]), int(state.post_topic[2]))
        assert state.remove_post(2) == expected
        state.add_post(2, *expected)

    def test_reassignment_moves_counts(self, state):
        c, k = state.remove_post(1)
        new_c, new_k = (c + 1) % 3, (k + 1) % 2
        state.add_post(1, new_c, new_k)
        state.check_invariants()
        assert state.post_comm[1] == new_c
        assert state.post_topic[1] == new_k

    def test_word_counts_follow_topic(self, state, hand_corpus):
        post = 3  # words (5, 5, 5)
        c, k = state.remove_post(post)
        other = (k + 1) % 2
        before = state.n_topic_word[other, 5]
        state.add_post(post, c, other)
        assert state.n_topic_word[other, 5] == before + 3


class TestLinkBookkeeping:
    def test_remove_then_add_restores_state(self, state):
        before_user = state.n_user_comm.copy()
        before_link = state.n_link_comm.copy()
        c, c2 = state.remove_link(0)
        state.add_link(0, c, c2)
        np.testing.assert_array_equal(state.n_user_comm, before_user)
        np.testing.assert_array_equal(state.n_link_comm, before_link)

    def test_reassignment_updates_both_endpoints(self, state):
        c, c2 = state.remove_link(1)
        state.add_link(1, (c + 1) % 3, (c2 + 2) % 3)
        state.check_invariants()


class TestInvariantChecking:
    @pytest.mark.parametrize("name", ["post_comm", "post_topic", "link_dst_comm"])
    @pytest.mark.parametrize("label", [-1, 3])
    def test_detects_assignment_out_of_range(self, state, name, label):
        getattr(state, name)[0] = label
        with pytest.raises(StateError, match=name):
            state.check_invariants()

    def test_detects_corrupted_counter(self, state):
        state.n_comm_topic[0, 0] += 1
        with pytest.raises(StateError, match="n_comm_topic"):
            state.check_invariants()

    def test_detects_negative_counts(self, state):
        # Remove the same post twice -> negative counters somewhere.
        state.remove_post(0)
        state.post_comm[0] = state.post_comm[0]  # assignment unchanged
        with pytest.raises(StateError):
            state.check_invariants()
