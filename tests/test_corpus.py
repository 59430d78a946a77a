"""Unit tests for repro.datasets.corpus."""

import copy
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastgibbs, state
from repro.core.state import PostTable, _unique_word_csr_numpy, unique_word_csr
from repro.datasets.corpus import (
    CorpusError,
    CorpusValidationError,
    Post,
    SocialCorpus,
    post_columns,
)
from repro.datasets.packed import PackedCorpus, write_packed
from repro.datasets.synthetic import SyntheticConfig, generate_corpus
from repro.datasets.vocabulary import Vocabulary

#: A world shaped like the end-to-end benchmark's MEDIUM one (600 users,
#: ~4.9K posts of ~40 words), at a seed of its own.
MEDIUM_SHAPED = SyntheticConfig(
    num_users=600, num_communities=8, num_topics=12, num_time_slices=24,
    vocab_size=2000, mean_posts_per_user=8.0, mean_words_per_post=40.0,
    mean_links_per_user=3.0, seed=11,
)

#: Every column an extend grows.
_COLUMNS = (
    "post_authors", "post_times", "post_lengths", "tokens", "token_offsets",
    "_links",
)


class TestPost:
    def test_valid_post(self):
        post = Post(author=1, words=(0, 2, 2), timestamp=3)
        assert len(post) == 3

    def test_word_counts_multiset(self):
        post = Post(author=0, words=(4, 4, 1), timestamp=0)
        assert post.word_counts() == {4: 2, 1: 1}

    def test_rejects_empty_posts(self):
        with pytest.raises(CorpusError):
            Post(author=0, words=(), timestamp=0)

    def test_rejects_negative_ids(self):
        with pytest.raises(CorpusError):
            Post(author=-1, words=(0,), timestamp=0)
        with pytest.raises(CorpusError):
            Post(author=0, words=(-1,), timestamp=0)
        with pytest.raises(CorpusError):
            Post(author=0, words=(0,), timestamp=-1)

    def test_posts_are_immutable(self):
        post = Post(author=0, words=(1,), timestamp=0)
        with pytest.raises(AttributeError):
            post.author = 5  # type: ignore[misc]


class TestSocialCorpusValidation:
    def test_rejects_out_of_range_author(self):
        with pytest.raises(CorpusError):
            SocialCorpus(
                num_users=2,
                num_time_slices=4,
                posts=[Post(author=2, words=(0,), timestamp=0)],
            )

    def test_rejects_out_of_range_timestamp(self):
        with pytest.raises(CorpusError):
            SocialCorpus(
                num_users=2,
                num_time_slices=2,
                posts=[Post(author=0, words=(0,), timestamp=2)],
            )

    def test_rejects_out_of_range_word_when_vocab_size_given(self):
        with pytest.raises(CorpusError):
            SocialCorpus(
                num_users=1,
                num_time_slices=1,
                posts=[Post(author=0, words=(5,), timestamp=0)],
                vocab_size=3,
            )

    def test_rejects_self_links(self):
        with pytest.raises(CorpusError):
            SocialCorpus(num_users=3, num_time_slices=1, links=[(1, 1)])

    def test_rejects_out_of_range_links(self):
        with pytest.raises(CorpusError):
            SocialCorpus(num_users=3, num_time_slices=1, links=[(0, 3)])

    def test_deduplicates_links_preserving_order(self):
        corpus = SocialCorpus(
            num_users=3, num_time_slices=1, links=[(0, 1), (1, 2), (0, 1)]
        )
        assert corpus.links == [(0, 1), (1, 2)]

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(CorpusError):
            SocialCorpus(num_users=0, num_time_slices=1)
        with pytest.raises(CorpusError):
            SocialCorpus(num_users=1, num_time_slices=0)

    def test_infers_vocab_size_from_posts(self):
        corpus = SocialCorpus(
            num_users=1,
            num_time_slices=1,
            posts=[Post(author=0, words=(7,), timestamp=0)],
        )
        assert corpus.vocab_size == 8

    def test_vocabulary_fixes_vocab_size(self):
        vocab = Vocabulary(["a", "b", "c"]).freeze()
        corpus = SocialCorpus(num_users=1, num_time_slices=1, vocabulary=vocab)
        assert corpus.vocab_size == 3

    def test_vocab_size_conflict_with_vocabulary_raises(self):
        vocab = Vocabulary(["a", "b"]).freeze()
        with pytest.raises(CorpusError):
            SocialCorpus(
                num_users=1, num_time_slices=1, vocabulary=vocab, vocab_size=5
            )

    def test_word_out_of_vocabulary_names_offending_post(self):
        vocab = Vocabulary(["a", "b", "c"]).freeze()
        with pytest.raises(CorpusValidationError, match=r"post 1.*word.*3"):
            SocialCorpus(
                num_users=1,
                num_time_slices=1,
                posts=[
                    Post(author=0, words=(0, 2), timestamp=0),
                    Post(author=0, words=(3,), timestamp=0),
                ],
                vocabulary=vocab,
            )

    def test_author_error_names_offending_post(self):
        with pytest.raises(CorpusValidationError, match=r"post 2.*author 9"):
            SocialCorpus(
                num_users=2,
                num_time_slices=4,
                posts=[
                    Post(author=0, words=(0,), timestamp=0),
                    Post(author=1, words=(0,), timestamp=1),
                    Post(author=9, words=(0,), timestamp=0),
                ],
            )

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(CorpusError, match="empty"):
            SocialCorpus(
                num_users=1, num_time_slices=1, vocabulary=Vocabulary().freeze()
            )


class TestSocialCorpusViews:
    def test_size_properties(self, hand_corpus):
        assert hand_corpus.num_posts == 6
        assert hand_corpus.num_links == 4
        assert hand_corpus.num_words == 3 + 1 + 2 + 3 + 2 + 3

    def test_negative_link_count(self, hand_corpus):
        assert hand_corpus.num_negative_links == 5 * 4 - 4

    def test_posts_by_user_grouping(self, hand_corpus):
        grouped = hand_corpus.posts_by_user()
        assert grouped[0] == [0, 1]
        assert grouped[1] == [2]
        assert all(
            hand_corpus.posts[idx].author == user
            for user, indices in enumerate(grouped)
            for idx in indices
        )

    def test_out_links_and_in_links_are_transposes(self, hand_corpus):
        outgoing = hand_corpus.out_links()
        incoming = hand_corpus.in_links()
        for src, targets in enumerate(outgoing):
            for dst in targets:
                assert src in incoming[dst]

    def test_link_array_shape_and_dtype(self, hand_corpus):
        array = hand_corpus.link_array()
        assert array.shape == (4, 2)
        assert array.dtype == np.int64

    def test_link_array_empty(self):
        corpus = SocialCorpus(num_users=2, num_time_slices=1)
        assert corpus.link_array().shape == (0, 2)

    def test_word_count_matrix_totals(self, hand_corpus):
        matrix = hand_corpus.word_count_matrix()
        assert matrix.shape == (5, 10)
        assert matrix.sum() == hand_corpus.num_words
        assert matrix[0, 1] == 2  # author 0 used word 1 twice

    def test_timestamps_array(self, hand_corpus):
        assert hand_corpus.timestamps().tolist() == [0, 1, 2, 3, 0, 2]

    def test_describe_keys(self, hand_corpus):
        stats = hand_corpus.describe()
        assert stats["users"] == 5
        assert stats["posts"] == 6
        assert "links" in stats and "vocab" in stats


class TestSubsets:
    def test_subset_posts_keeps_links(self, hand_corpus):
        subset = hand_corpus.subset_posts([0, 3])
        assert subset.num_posts == 2
        assert subset.links == hand_corpus.links
        assert subset.posts[1] == hand_corpus.posts[3]

    def test_subset_links_keeps_posts(self, hand_corpus):
        subset = hand_corpus.subset_links([1, 2])
        assert subset.num_links == 2
        assert subset.num_posts == hand_corpus.num_posts
        assert subset.links == [hand_corpus.links[1], hand_corpus.links[2]]

    def test_subset_preserves_vocab_size(self, hand_corpus):
        subset = hand_corpus.subset_posts([0])
        assert subset.vocab_size == hand_corpus.vocab_size

    def test_subsets_do_not_alias_originals(self, hand_corpus):
        subset = hand_corpus.subset_links([0])
        subset.extend([], [(4, 0)])
        assert subset.num_links == 2
        assert hand_corpus.num_links == 4


class TestColumnarGeneration:
    def test_generation_builds_no_post(self, monkeypatch):
        """``generate_corpus`` goes from the draw columns to the corpus
        without a single ``Post``: none is constructed, and none survives
        in the heap to be walked by the garbage collector."""
        gc.collect()
        before = {id(obj) for obj in gc.get_objects() if isinstance(obj, Post)}
        built = []
        post_init = Post.__post_init__
        monkeypatch.setattr(
            Post, "__post_init__", lambda post: built.append(post_init(post))
        )
        corpus, _ = generate_corpus(MEDIUM_SHAPED)
        gc.collect()
        after = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Post) and id(obj) not in before
        ]
        assert corpus.num_posts > 4000
        assert built == []
        assert after == []


#: (columns of one bad post, its Post fields or None when a Post itself
#: refuses them, the exception type and message both construction paths
#: raise).  U = 3 users, T = 4 slices, V = 5 words, bad post at row 1.
BAD_POSTS = {
    "negative author": ((-1, 0, (1,)), CorpusValidationError,
                        "author id must be >= 0, got -1"),
    "author past U": ((3, 0, (1,)), CorpusValidationError,
                      "post 1: author 3 >= num_users 3"),
    "negative timestamp": ((0, -2, (1,)), CorpusValidationError,
                           "timestamp must be >= 0, got -2"),
    "timestamp past T": ((0, 4, (1,)), CorpusValidationError,
                         "post 1: timestamp 4 >= num_time_slices 4"),
    "empty post": ((0, 0, ()), CorpusError,
                   "posts must contain at least one word"),
    "negative word": ((0, 0, (1, -1)), CorpusValidationError,
                      "word ids must be >= 0"),
    "word past V": ((0, 0, (6, 1, 5)), CorpusValidationError,
                    "post 1: word id 6 >= vocab_size 5"),
}

BAD_LINKS = {
    "dangling endpoint": ([(0, 1), (1, 3)], CorpusValidationError,
                          "link (1, 3) has dangling endpoint: user ids must "
                          "lie in [0, 3)"),
    "self-link": ([(0, 1), (2, 2)], CorpusError,
                  "self-link (2, 2) is not allowed"),
}


class TestErrorParity:
    """``from_columns`` and the ``Post``-list adapter refuse each bad input
    with the same exception type and message (those of the per-post
    checks the corpus has always made)."""

    GOOD = (1, 2, (0, 4))

    @staticmethod
    def _raised(build) -> tuple[type, str]:
        with pytest.raises(CorpusError) as info:
            build()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("name", BAD_POSTS)
    def test_bad_post(self, name):
        fields, kind, message = BAD_POSTS[name]
        rows = [self.GOOD, fields, self.GOOD]
        authors, times, words = zip(*rows)

        def from_columns():
            return SocialCorpus.from_columns(
                3, 4, authors, times, [len(w) for w in words],
                [w for ids in words for w in ids], vocab_size=5,
            )

        def from_posts():
            posts = [Post(a, tuple(w), t) for a, t, w in rows]
            return SocialCorpus(3, 4, posts=posts, vocab_size=5)

        assert self._raised(from_columns) == (kind, message)
        assert self._raised(from_posts) == (kind, message)

    @pytest.mark.parametrize("name", BAD_LINKS)
    def test_bad_link(self, name):
        links, kind, message = BAD_LINKS[name]
        assert self._raised(
            lambda: SocialCorpus.from_columns(3, 4, [], [], [], [], links)
        ) == (kind, message)
        assert self._raised(
            lambda: SocialCorpus(3, 4, links=links)
        ) == (kind, message)

    def test_first_bad_post_in_order_is_named(self):
        with pytest.raises(CorpusValidationError, match=r"^post 1: timestamp 9"):
            SocialCorpus.from_columns(
                3, 4, [0, 0, 7], [0, 9, 0], [1, 1, 1], [0, 0, 0]
            )


class TestViews:
    def test_posts_view_is_a_read_only_sequence(self, hand_corpus):
        posts = hand_corpus.posts
        listed = list(posts)
        assert posts == listed and listed == posts
        assert posts != listed[:-1]
        assert len(posts) == 6
        assert posts[-1] == Post(author=4, words=(8, 9, 0), timestamp=2)
        assert posts[np.int64(2)] == listed[2]
        assert posts[1:4] == listed[1:4]
        assert posts[::-2] == listed[::-2]
        with pytest.raises(IndexError):
            posts[6]
        with pytest.raises(IndexError):
            posts[-7]
        with pytest.raises(AttributeError):
            posts.append(listed[0])  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            posts[0] = listed[1]  # type: ignore[index]
        with pytest.raises(ValueError):
            hand_corpus.tokens[0] = 3

    def test_links_view_is_a_read_only_sequence(self, hand_corpus):
        links = hand_corpus.links
        assert links == [(0, 1), (1, 2), (2, 0), (3, 4)]
        assert [(0, 1), (1, 2), (2, 0), (3, 4)] == links
        assert links[-1] == (3, 4) and links[1:3] == [(1, 2), (2, 0)]
        assert (2, 0) in links
        with pytest.raises(IndexError):
            links[4]
        with pytest.raises(AttributeError):
            links.append((4, 0))  # type: ignore[attr-defined]
        with pytest.raises(ValueError):
            hand_corpus.link_array()[0, 0] = 2

    def test_views_follow_the_corpus(self, hand_corpus):
        corpus = hand_corpus.subset_posts(range(6))
        posts, links = corpus.posts, corpus.links
        corpus.extend([Post(author=1, words=(2,), timestamp=3)], [(4, 0)])
        assert len(posts) == 7 and posts[6].words == (2,)
        assert links[-1] == (4, 0)

    def test_post_table_is_a_fresh_object_over_shared_columns(self, hand_corpus):
        first, second = hand_corpus.post_table(), hand_corpus.post_table()
        assert first is not second
        assert first.unique_words is second.unique_words
        reference = PostTable.from_posts(list(hand_corpus.posts))
        for name in ("authors", "times", "lengths", "offsets",
                     "unique_words", "unique_counts"):
            np.testing.assert_array_equal(
                getattr(first, name), getattr(reference, name)
            )


class TestSharedReadSurface:
    def test_in_ram_and_packed_read_alike(self, tiny_corpus, tmp_path):
        """One read surface over columns: the in-RAM corpus and its packed
        copy (mmap views) answer every read the same."""
        with PackedCorpus.open(write_packed(tiny_corpus, tmp_path / "w.coldpack")) as packed:
            for corpus in (packed, packed.to_social_corpus()):
                assert corpus.posts == tiny_corpus.posts
                assert corpus.links == tiny_corpus.links
                np.testing.assert_array_equal(
                    corpus.link_array(), tiny_corpus.link_array()
                )
                for name in ("posts_by_user", "out_links", "in_links",
                             "link_set", "describe"):
                    assert getattr(corpus, name)() == getattr(tiny_corpus, name)()
                for name in ("word_count_matrix", "timestamps"):
                    np.testing.assert_array_equal(
                        getattr(corpus, name)(), getattr(tiny_corpus, name)()
                    )
                mine, theirs = corpus.post_table(), tiny_corpus.post_table()
                for name in ("authors", "times", "lengths", "offsets",
                             "unique_words", "unique_counts"):
                    np.testing.assert_array_equal(
                        getattr(mine, name), getattr(theirs, name)
                    )
                rows = [5, 0, -1, 3]
                assert corpus.subset_posts(rows) == tiny_corpus.subset_posts(rows)
                assert corpus.subset_links(rows) == tiny_corpus.subset_links(rows)


class TestExtend:
    def test_links_follow_the_set_rule_in_first_occurrence_order(self, hand_corpus):
        corpus = hand_corpus.subset_posts(range(6))
        seen = set(corpus.links)
        expected = list(corpus.links)
        increments = [
            [(1, 0), (1, 1), (1, 0), (0, 1), (4, 3)],
            [(4, 3), (2, 2), (0, 4), (3, 0), (0, 4)],
            [],
            [(3, 0), (1, 0), (4, 4), (2, 4)],
        ]
        for links in increments:
            corpus.extend([], links)
            for edge in links:
                if edge[0] != edge[1] and edge not in seen:
                    seen.add(edge)
                    expected.append(edge)
            assert corpus.links == expected

    def test_rejected_extend_changes_nothing(self, hand_corpus):
        corpus = hand_corpus.subset_posts(range(6))
        good = Post(author=1, words=(2,), timestamp=3)
        with pytest.raises(CorpusValidationError, match=r"^post 7: author 5"):
            corpus.extend([good, Post(author=5, words=(1,), timestamp=0)])
        with pytest.raises(CorpusValidationError, match="dangling"):
            corpus.extend([good], [(0, 1), (2, 5)])
        assert corpus == hand_corpus

    def test_extend_columns_matches_extend(self, hand_corpus):
        posts = [
            Post(author=1, words=(2, 2), timestamp=3),
            Post(author=4, words=(0, 9, 1), timestamp=0),
        ]
        links = [(4, 1), (0, 1), (3, 3)]
        by_posts = hand_corpus.subset_posts(range(6))
        by_columns = hand_corpus.subset_posts(range(6))
        by_posts.extend(posts, links)
        by_columns.extend_columns(*post_columns(posts), links)
        assert by_columns == by_posts
        with pytest.raises(CorpusValidationError, match=r"^post 8: author 5"):
            by_columns.extend_columns([5], [0], [1], [1])
        assert by_columns == by_posts

    def test_small_extends_grow_into_one_buffer(self, hand_corpus):
        """The first extend copies each column into a buffer with spare
        room; the next small one writes into it, and views read before
        either keep their length and contents."""
        corpus = hand_corpus.subset_posts(range(6))
        first = Post(author=1, words=(2, 2), timestamp=3)
        second = Post(author=4, words=(0, 9, 1), timestamp=0)
        before = {name: getattr(corpus, name) for name in _COLUMNS}
        frozen = {name: column.copy() for name, column in before.items()}
        corpus.extend([first], [(4, 1)])
        grown = {name: getattr(corpus, name) for name in _COLUMNS}
        corpus.extend([second], [(0, 2)])
        for name in _COLUMNS:
            column = getattr(corpus, name)
            assert column.base is grown[name].base is not None, name
            assert not column.flags.writeable, name
            np.testing.assert_array_equal(before[name], frozen[name])
        expected = hand_corpus.subset_posts(range(6))
        for post, link in ((first, (4, 1)), (second, (0, 2))):
            expected = SocialCorpus(
                expected.num_users, expected.num_time_slices,
                [*expected.posts, post], [*expected.links, link],
                vocabulary=expected.vocabulary,
            )
        assert corpus == expected

    def test_copies_never_share_growth(self, hand_corpus):
        """A shallow copy shares the grown buffers; whichever corpus extends
        second copies instead of writing over the other's posts."""
        corpus = hand_corpus.subset_posts(range(6))
        corpus.extend([Post(author=1, words=(2,), timestamp=3)])
        twin = copy.copy(corpus)
        corpus.extend([Post(author=1, words=(5,), timestamp=0)])
        twin.extend([Post(author=4, words=(7,), timestamp=1)])
        assert corpus.posts[-1] == Post(author=1, words=(5,), timestamp=0)
        assert twin.posts[-1] == Post(author=4, words=(7,), timestamp=1)

    def test_extend_drops_the_cached_post_table(self, hand_corpus):
        corpus = hand_corpus.subset_posts(range(6))
        assert len(corpus.post_table()) == 6
        corpus.extend([Post(author=1, words=(2, 2), timestamp=3)])
        table = corpus.post_table()
        assert len(table) == 7
        assert table.words_of(6)[1].tolist() == [2]


def _posts_strategy(max_id: int):
    return st.lists(
        st.lists(st.integers(0, max_id), min_size=1, max_size=12),
        min_size=0, max_size=30,
    )


def _csr_of(posts: list[list[int]]):
    words = np.array([w for post in posts for w in post], np.int64)
    lengths = np.array([len(post) for post in posts], np.int64)
    return words, lengths


class TestNativeUniqueWords:
    """``cold_unique_words`` against its oracle, the numpy stable-sort
    body, and against ``Post.word_counts``."""

    @staticmethod
    def _native():
        if fastgibbs.native_kernel() is None:
            pytest.skip("no native kernels (no C compiler)")

    @settings(max_examples=60, deadline=None)
    @given(
        max_id=st.sampled_from([0, 3, 50, 999_999]),
        data=st.data(),
    )
    def test_native_matches_numpy(self, max_id, data):
        self._native()
        posts = data.draw(_posts_strategy(max_id))
        words, lengths = _csr_of(posts)
        native = unique_word_csr(words, lengths)
        oracle = _unique_word_csr_numpy(words, lengths)
        for got, want in zip(native, oracle):
            np.testing.assert_array_equal(got, want)
        flat = iter(zip(native[0].tolist(), native[1].tolist()))
        for post, size in zip(posts, native[2].tolist()):
            counts = Post(author=0, words=tuple(post), timestamp=0).word_counts()
            assert [next(flat) for _ in range(size)] == list(counts.items())

    def test_one_word_posts_and_single_word_vocabulary(self):
        self._native()
        words, lengths = _csr_of([[0], [0, 0, 0], [0]])
        got = unique_word_csr(words, lengths)
        assert [column.tolist() for column in got] == [[0, 0, 0], [1, 3, 1], [1, 1, 1]]

    def test_native_path_never_runs_the_numpy_body(self, monkeypatch, tiny_corpus):
        """No silent fallback: with the library loaded, neither the corpus
        tables nor the increments' reach the numpy body."""
        self._native()
        monkeypatch.setattr(state, "_unique_word_csr_numpy", None)
        words, lengths = _csr_of([[4, 1, 4], [2]])
        unique_word_csr(words, lengths)
        tiny_corpus.subset_posts(range(10)).post_table()
        PostTable.from_posts(list(tiny_corpus.posts[:5]))

    def test_numpy_body_serves_without_a_compiler(self, monkeypatch):
        monkeypatch.setattr(fastgibbs, "native_kernel", lambda: None)
        words, lengths = _csr_of([[4, 1, 4], [2]])
        got = unique_word_csr(words, lengths)
        assert [column.tolist() for column in got] == [[4, 1, 2], [2, 1, 1], [2, 1]]
