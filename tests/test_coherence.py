"""Unit tests for repro.eval.coherence (UMass topic coherence)."""

import math

import numpy as np
import pytest

from repro.datasets.corpus import Post, SocialCorpus
from repro.eval.coherence import (
    CoherenceError,
    CooccurrenceIndex,
    mean_coherence,
    topic_coherences,
    umass_coherence,
    umass_coherences,
)


@pytest.fixture()
def block_corpus() -> SocialCorpus:
    """Words 0-2 always co-occur; words 5-7 always co-occur; no crossing."""
    posts = []
    for i in range(20):
        words = (0, 1, 2) if i % 2 == 0 else (5, 6, 7)
        posts.append(Post(author=0, words=words, timestamp=0))
    return SocialCorpus(num_users=1, num_time_slices=1, posts=posts, vocab_size=8)


class TestCooccurrenceIndex:
    def test_document_frequencies(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        assert index.document_frequency(0) == 10
        assert index.document_frequency(5) == 10
        assert index.document_frequency(4) == 0

    def test_pair_frequencies(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        assert index.co_document_frequency(0, 1) == 10
        assert index.co_document_frequency(1, 0) == 10  # order-free
        assert index.co_document_frequency(0, 5) == 0

    def test_same_word_pair_is_document_frequency(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        assert index.co_document_frequency(2, 2) == 10

    def test_duplicate_words_in_post_count_once(self):
        posts = [Post(author=0, words=(3, 3, 3), timestamp=0)]
        corpus = SocialCorpus(num_users=1, num_time_slices=1, posts=posts, vocab_size=4)
        index = CooccurrenceIndex(corpus)
        assert index.document_frequency(3) == 1

    def test_empty_corpus_raises(self):
        corpus = SocialCorpus(num_users=1, num_time_slices=1)
        with pytest.raises(CoherenceError):
            CooccurrenceIndex(corpus)


class TestUMassCoherence:
    def test_perfectly_cooccurring_words_score_near_zero(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        value = umass_coherence(index, [0, 1, 2])
        # log((10 + 1)/10) per pair: slightly positive due to epsilon.
        assert value == pytest.approx(math.log(11 / 10))

    def test_never_cooccurring_words_score_low(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        coherent = umass_coherence(index, [0, 1, 2])
        incoherent = umass_coherence(index, [0, 5, 6])
        assert incoherent < coherent

    def test_needs_two_words(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        with pytest.raises(CoherenceError):
            umass_coherence(index, [0])

    def test_all_unseen_words_raise(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        with pytest.raises(CoherenceError):
            umass_coherence(index, [3, 4])

    def test_epsilon_validation(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        with pytest.raises(CoherenceError):
            umass_coherence(index, [0, 1], epsilon=0.0)


class TestTopicCoherences:
    def test_block_topics_beat_mixed_topics(self, block_corpus):
        coherent_phi = np.zeros((2, 8))
        coherent_phi[0, [0, 1, 2]] = 1 / 3
        coherent_phi[1, [5, 6, 7]] = 1 / 3
        mixed_phi = np.zeros((2, 8))
        mixed_phi[0, [0, 5, 1]] = 1 / 3
        mixed_phi[1, [2, 6, 7]] = 1 / 3
        good = topic_coherences(coherent_phi, block_corpus, top_n=3)
        bad = topic_coherences(mixed_phi, block_corpus, top_n=3)
        assert good.mean() > bad.mean()

    def test_fitted_model_coherence_beats_random_topics(
        self, estimates, tiny_corpus
    ):
        fitted = mean_coherence(estimates.phi, tiny_corpus, top_n=5)
        rng = np.random.default_rng(0)
        random_phi = rng.dirichlet(
            np.ones(tiny_corpus.vocab_size), size=estimates.num_topics
        )
        random_score = mean_coherence(random_phi, tiny_corpus, top_n=5)
        assert fitted > random_score

    def test_shape_validation(self, block_corpus):
        with pytest.raises(CoherenceError):
            topic_coherences(np.ones((2, 5)), block_corpus)
        with pytest.raises(CoherenceError):
            topic_coherences(np.ones((2, 8)), block_corpus, top_n=1)


class TestBatchedCoherence:
    """``topic_coherences`` sorts phi once row-wise and scores every pair
    in one batch; each topic must equal the scalar ``umass_coherence`` of
    its own 1-D sort."""

    @staticmethod
    def _scalar(phi, corpus, top_n):
        index = CooccurrenceIndex(corpus)
        return [
            umass_coherence(index, [int(v) for v in np.argsort(row)[::-1][:top_n]])
            for row in phi
        ]

    @pytest.mark.parametrize("top_n", [2, 5, 10])
    def test_each_topic_matches_umass_coherence(self, estimates, tiny_corpus, top_n):
        # Rounded phi ties many words: the row-wise sort must break the
        # ties as each 1-D sort does.
        for phi in (estimates.phi, np.round(estimates.phi, 2)):
            got = topic_coherences(phi, tiny_corpus, top_n=top_n)
            np.testing.assert_allclose(
                got, self._scalar(phi, tiny_corpus, top_n), rtol=0, atol=1e-12
            )

    def test_quality_stream_mean_matches(self, estimates, tiny_corpus):
        from repro.diagnostics.quality import QualityStream

        stream = QualityStream(tiny_corpus, top_n=10)
        want = np.mean(self._scalar(estimates.phi, tiny_corpus, 10))
        assert abs(stream._mean_coherence(estimates.phi) - want) <= 1e-12

    def test_repeated_and_unseen_words(self, block_corpus):
        index = CooccurrenceIndex(block_corpus)
        rows = [[2, 2, 0], [0, 3, 1], [5, 6, 7]]
        got = umass_coherences(index, np.array(rows))
        np.testing.assert_allclose(
            got, [umass_coherence(index, row) for row in rows], rtol=0, atol=1e-12
        )
        with pytest.raises(CoherenceError, match="no scorable"):
            umass_coherences(index, np.array([[0, 1], [3, 4]]))
        with pytest.raises(CoherenceError, match="epsilon"):
            umass_coherences(index, np.array([[0, 1]]), epsilon=0.0)
