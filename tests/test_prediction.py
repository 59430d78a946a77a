"""Unit tests for repro.core.prediction (Eqs. 5–7 + time-stamp/link tasks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastgibbs, prediction
from repro.core.estimates import ParameterEstimates
from repro.core.prediction import (
    DiffusionPredictor,
    PredictionError,
    link_probability,
    post_probability,
    predict_timestamp,
    timestamp_scores,
    top_communities,
)
from repro.datasets.corpus import Post


class TestTopCommunities:
    def test_selects_largest_memberships(self):
        pi_row = np.array([0.1, 0.5, 0.05, 0.3, 0.05])
        top = set(top_communities(pi_row, 2).tolist())
        assert top == {1, 3}

    def test_size_clamped_to_dimension(self):
        pi_row = np.array([0.6, 0.4])
        assert len(top_communities(pi_row, 10)) == 2

    def test_rejects_nonpositive_size(self):
        with pytest.raises(PredictionError):
            top_communities(np.array([1.0]), 0)

    def test_matrix_ranks_each_row(self):
        pi = np.array([[0.1, 0.5, 0.4], [0.7, 0.2, 0.1]])
        top = top_communities(pi, 2)
        assert [set(row.tolist()) for row in top] == [{1, 2}, {0, 1}]


def _normalised(rows: list[list[float]]) -> np.ndarray:
    matrix = np.array(rows)
    return matrix / matrix.sum(axis=1, keepdims=True)


def _distributions(rows: int, cols: int):
    """``(rows, cols)`` row-stochastic matrices with tied and zero entries."""
    entry = st.sampled_from([0.0, 0.25, 0.25]) | st.floats(0.01, 1.0)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols).filter(any),
        min_size=rows,
        max_size=rows,
    ).map(_normalised)


@st.composite
def predictor_estimates(draw):
    """Estimates with tied and zero memberships, ``C`` from 1 up, and a
    TopComm size that may exceed ``C``."""
    users, C, K = (draw(st.integers(1, top)) for top in (8, 7, 5))
    estimates = ParameterEstimates(
        pi=draw(_distributions(users, C)),
        theta=draw(_distributions(C, K)),
        phi=np.full((K, 3), 1 / 3),
        psi=np.full((K, C, 2), 0.5),
        eta=np.full((C, C), 0.5),
    )
    return estimates, draw(st.integers(1, 8))


class TestPredictorTables:
    """The per-user tables built in one pass, against per-user oracles."""

    @settings(max_examples=100, deadline=None)
    @given(predictor_estimates())
    def test_tables_equal_per_user_top_communities(self, case):
        estimates, size = case
        predictor = DiffusionPredictor(estimates, top_comm_size=size)
        for user, pi_row in enumerate(estimates.pi):
            communities = top_communities(pi_row, size)
            memberships = pi_row[communities]
            preference = memberships @ estimates.theta[communities]
            total = preference.sum()
            if total > 0:
                preference = preference / total
            np.testing.assert_array_equal(predictor._top_communities[user], communities)
            np.testing.assert_array_equal(predictor._top_memberships[user], memberships)
            np.testing.assert_array_equal(predictor._topic_preference[user], preference)

    @pytest.mark.parametrize("size", [0, -1])
    def test_rejects_nonpositive_top_comm_size(self, estimates, size):
        with pytest.raises(PredictionError, match="TopComm size"):
            DiffusionPredictor(estimates, top_comm_size=size)


class TestRangeChecks:
    """Out-of-range users and words raise, never wrap around or IndexError."""

    @pytest.fixture()
    def predictor(self, estimates) -> DiffusionPredictor:
        return DiffusionPredictor(estimates)

    @pytest.fixture()
    def bad_users(self, estimates) -> list[int]:
        return [-1, estimates.num_users]

    @pytest.fixture()
    def bad_words(self, estimates) -> list[int]:
        return [-1, estimates.vocab_size]

    def test_users(self, predictor, bad_users):
        for bad in bad_users:
            with pytest.raises(PredictionError, match="out of range"):
                predictor.topic_posterior([1], bad)
            with pytest.raises(PredictionError, match="out of range"):
                predictor.topic_influence(bad, 1)
            with pytest.raises(PredictionError, match="out of range"):
                predictor.topic_influence(1, bad)
            with pytest.raises(PredictionError, match="out of range"):
                predictor.diffusion_probability(bad, 1, [1])
            with pytest.raises(PredictionError, match="out of range"):
                predictor.diffusion_probability(0, bad, [1])
            with pytest.raises(PredictionError, match="out of range"):
                predictor.score_candidates(bad, [1], [1])
            with pytest.raises(PredictionError, match="out of range"):
                predictor.score_candidates(0, [1, bad], [1])

    def test_words(self, predictor, bad_words):
        for bad in bad_words:
            with pytest.raises(PredictionError, match="word id out of range"):
                predictor.topic_posterior([1, bad], 0)
            with pytest.raises(PredictionError, match="word id out of range"):
                predictor.diffusion_probability(0, 1, [bad])
            with pytest.raises(PredictionError, match="word id out of range"):
                predictor.score_candidates(0, [1, 2], [bad, 1])


class TestTopicPosterior:
    @pytest.fixture()
    def predictor(self, estimates) -> DiffusionPredictor:
        return DiffusionPredictor(estimates)

    def test_posterior_is_distribution(self, predictor, tiny_corpus):
        post = tiny_corpus.posts[0]
        posterior = predictor.topic_posterior(post.words, post.author)
        np.testing.assert_allclose(posterior.sum(), 1.0, atol=1e-9)
        assert (posterior >= 0).all()

    def test_rejects_empty_words(self, predictor):
        with pytest.raises(PredictionError):
            predictor.topic_posterior([], author=0)

    def test_rejects_bad_author(self, predictor):
        with pytest.raises(PredictionError):
            predictor.topic_posterior([0], author=10_000)

    def test_anchor_words_select_their_topic(self, oracle_estimates, tiny_corpus):
        """With oracle parameters, a post of pure topic-k anchors must get
        posterior mass concentrated on topic k."""
        predictor = DiffusionPredictor(oracle_estimates)
        anchors_per_topic = 12  # TINY_CONFIG setting
        for k in range(oracle_estimates.num_topics):
            words = tuple(range(k * anchors_per_topic, k * anchors_per_topic + 4))
            posterior = predictor.topic_posterior(words, author=0)
            assert posterior.argmax() == k


class TestDiffusionProbability:
    @pytest.fixture()
    def predictor(self, oracle_estimates) -> DiffusionPredictor:
        return DiffusionPredictor(oracle_estimates)

    def test_probability_nonnegative(self, predictor, tiny_corpus):
        post = tiny_corpus.posts[0]
        value = predictor.diffusion_probability(post.author, 1, post.words)
        assert value >= 0

    def test_equation_seven_composition(self, predictor, tiny_corpus):
        """diffusion_probability must equal posterior . topic_influence."""
        post = tiny_corpus.posts[0]
        source, target = post.author, (post.author + 1) % tiny_corpus.num_users
        posterior = predictor.topic_posterior(post.words, source)
        influence = predictor.topic_influence(source, target)
        expected = float(posterior @ influence)
        assert predictor.diffusion_probability(
            source, target, post.words
        ) == pytest.approx(expected)

    def test_topic_influence_matches_truncated_eq6(self, oracle_estimates):
        """Eq. (6) restricted to TopComm, computed naively."""
        predictor = DiffusionPredictor(oracle_estimates, top_comm_size=2)
        source, target = 0, 1
        influence = predictor.topic_influence(source, target)

        pi = oracle_estimates.pi
        src_top = set(top_communities(pi[source], 2).tolist())
        dst_top = set(top_communities(pi[target], 2).tolist())
        from repro.core.diffusion import zeta

        z = zeta(oracle_estimates)
        for k in range(oracle_estimates.num_topics):
            expected = sum(
                pi[source, c] * pi[target, c2] * z[k, c, c2]
                for c in src_top
                for c2 in dst_top
            )
            assert influence[k] == pytest.approx(expected, rel=1e-9)

    def test_score_candidates_matches_pointwise(self, predictor, tiny_corpus):
        post = tiny_corpus.posts[0]
        candidates = [1, 2, 3]
        batch = predictor.score_candidates(post.author, candidates, post.words)
        for score, candidate in zip(batch, candidates):
            assert score == pytest.approx(
                predictor.diffusion_probability(post.author, candidate, post.words)
            )

    def test_same_community_pairs_score_higher(self, oracle_estimates, tiny_truth):
        """With assortative planted eta, pairs sharing a dominant community
        should on average outscore cross-community pairs."""
        predictor = DiffusionPredictor(oracle_estimates)
        main = tiny_truth.pi.argmax(axis=1)
        words = (0, 1, 2)
        same, cross = [], []
        for source in range(0, 15):
            for target in range(15, 30):
                score = predictor.diffusion_probability(source, target, words)
                (same if main[source] == main[target] else cross).append(score)
        assert np.mean(same) > np.mean(cross)

    def test_top_comm_size_affects_profiles(self, oracle_estimates):
        full = DiffusionPredictor(oracle_estimates, top_comm_size=3)
        narrow = DiffusionPredictor(oracle_estimates, top_comm_size=1)
        diff = 0.0
        for source, target in [(0, 1), (2, 3), (4, 5)]:
            diff += abs(
                full.topic_influence(source, target).sum()
                - narrow.topic_influence(source, target).sum()
            )
        assert diff > 0


class TestLinkProbability:
    def test_formula(self, estimates):
        value = link_probability(estimates, 0, 1)[0]
        expected = float(estimates.pi[0] @ estimates.eta @ estimates.pi[1])
        assert value == pytest.approx(expected)

    def test_vectorised_matches_scalar(self, estimates):
        sources = np.array([0, 1, 2])
        targets = np.array([3, 4, 5])
        batch = link_probability(estimates, sources, targets)
        for idx in range(3):
            single = link_probability(estimates, sources[idx], targets[idx])[0]
            assert batch[idx] == pytest.approx(single)

    def test_mismatched_shapes_raise(self, estimates):
        with pytest.raises(PredictionError):
            link_probability(estimates, np.array([0, 1]), np.array([2]))

    def test_probabilities_in_unit_interval(self, estimates):
        values = link_probability(
            estimates, np.arange(10), np.arange(10, 20)
        )
        assert ((values >= 0) & (values <= 1)).all()

    def test_oracle_separates_linked_pairs(self, oracle_estimates, tiny_corpus):
        links = tiny_corpus.link_array()
        positives = link_probability(
            oracle_estimates, links[:, 0], links[:, 1]
        ).mean()
        rng = np.random.default_rng(0)
        neg_src = rng.integers(tiny_corpus.num_users, size=200)
        neg_dst = rng.integers(tiny_corpus.num_users, size=200)
        negatives = link_probability(oracle_estimates, neg_src, neg_dst).mean()
        assert positives > negatives


class TestTimestampPrediction:
    def test_scores_cover_grid(self, estimates, tiny_corpus):
        post = tiny_corpus.posts[0]
        scores = timestamp_scores(estimates, post)
        assert scores.shape == (tiny_corpus.num_time_slices,)
        assert (scores >= 0).all()

    def test_prediction_is_argmax(self, estimates, tiny_corpus):
        post = tiny_corpus.posts[5]
        assert predict_timestamp(estimates, post) == int(
            timestamp_scores(estimates, post).argmax()
        )

    def test_oracle_beats_chance(self, oracle_estimates, tiny_corpus):
        hits = 0
        n = min(100, tiny_corpus.num_posts)
        for post in tiny_corpus.posts[:n]:
            if abs(predict_timestamp(oracle_estimates, post) - post.timestamp) <= 1:
                hits += 1
        chance = 3 / tiny_corpus.num_time_slices  # +-1 tolerance window
        assert hits / n > chance


class TestPostProbability:
    def test_log_space_value_is_finite_negative(self, estimates, tiny_corpus):
        post = tiny_corpus.posts[0]
        value = post_probability(estimates, post.words, post.author)
        assert np.isfinite(value)
        assert value < 0

    def test_monotone_in_post_length(self, estimates):
        """Longer posts (more factors < 1) have lower log probability."""
        short = post_probability(estimates, (0,), 0)
        long = post_probability(estimates, (0, 1, 2, 3, 4), 0)
        assert long < short

    def test_empty_post_raises(self, estimates):
        with pytest.raises(PredictionError):
            post_probability(estimates, [], 0)

    def test_matches_direct_mixture_computation(self, oracle_estimates):
        words = [0, 5, 9]
        value = post_probability(oracle_estimates, words, 2)
        direct = 0.0
        e = oracle_estimates
        for c in range(e.num_communities):
            for k in range(e.num_topics):
                prod = np.prod([e.phi[k, w] for w in words])
                direct += e.pi[2, c] * e.theta[c, k] * prod
        assert value == pytest.approx(np.log(direct), rel=1e-9)


def _native():
    if fastgibbs.native_kernel() is None:
        pytest.skip("no native kernels (no C compiler)")


def numpy_predictor(estimates, top_comm_size=5) -> DiffusionPredictor:
    """A predictor built as if no library could be loaded: the fallback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prediction, "native_kernel", lambda: None)
        return DiffusionPredictor(estimates, top_comm_size)


def _stochastic(rng, rows: int, cols: int, zeros: bool) -> np.ndarray:
    matrix = rng.random((rows, cols)) + 0.01
    if zeros:
        matrix[rng.random((rows, cols)) < 0.3] = 0.0
        matrix[np.arange(rows), rng.integers(cols, size=rows)] += 0.5
    return matrix / matrix.sum(axis=1, keepdims=True)


@st.composite
def scoring_cases(draw):
    """Random estimates with K in {1, 40, 100} and C in {1, 20}, a TopComm
    size from 1 past C, and a query with repeated words and candidates,
    possibly no candidate at all."""
    K, C = draw(st.sampled_from([1, 40, 100])), draw(st.sampled_from([1, 20]))
    users, vocab = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.booleans())
    estimates = ParameterEstimates(
        pi=_stochastic(rng, users, C, zeros),
        theta=_stochastic(rng, C, K, zeros),
        phi=_stochastic(rng, K, vocab, False),
        psi=np.full((K, C, 2), 0.5),
        eta=rng.random((C, C)) * (rng.random((C, C)) > 0.3 * zeros),
    )
    words = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=12))
    words += words[: draw(st.integers(0, len(words)))]  # repeats
    candidates = draw(st.lists(st.integers(0, users - 1), max_size=8))
    candidates += candidates[:2]
    return (
        estimates,
        draw(st.integers(1, C + 2)),
        draw(st.integers(0, users - 1)),
        candidates,
        words,
    )


class TestNativeScorer:
    """``cold_retweet_scores`` against the numpy bodies it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(scoring_cases())
    def test_scores_and_fold_match_numpy_bodies(self, case):
        _native()
        estimates, size, source, candidates, words = case
        native = DiffusionPredictor(estimates, top_comm_size=size)
        fallback = numpy_predictor(estimates, top_comm_size=size)
        want_fold = native._source_fold_numpy(source)
        want = native._score_candidates_numpy(
            source, np.array(candidates, np.int64), np.array(words, np.int64), want_fold
        )
        fold = native.source_fold(source)
        np.testing.assert_allclose(fold, want_fold, rtol=1e-12, atol=0)
        for scores in (
            native.score_candidates(source, candidates, words),
            native.score_candidates(source, candidates, words, source_fold=fold),
        ):
            assert scores.shape == (len(candidates),)
            np.testing.assert_allclose(scores, want, rtol=1e-12, atol=0)
        # The fallback runs the numpy bodies themselves.
        np.testing.assert_array_equal(fallback.source_fold(source), want_fold)
        np.testing.assert_array_equal(
            fallback.score_candidates(source, candidates, words), want
        )

    @pytest.mark.parametrize(
        ("source", "candidates", "words"),
        [
            (-1, [1], [0]),
            (10**6, [1], [0]),
            (2**70, [1], [0]),
            (0, [1, -1], [0]),
            (0, [10**6], [0]),
            (0, [1], [-1]),
            (0, [1], [10**6]),
            (0, [1], []),
            (-1, [-1], [-1]),
            (0, [-1], [-1]),
            (-1, [1], [10**6]),
            (0, [[1]], [0]),
            (0, [1], [[0]]),
        ],
    )
    def test_bad_input_raises_same_error(self, estimates, source, candidates, words):
        _native()
        outcomes = []
        for predictor in (DiffusionPredictor(estimates), numpy_predictor(estimates)):
            with pytest.raises(PredictionError) as caught:
                predictor.score_candidates(source, candidates, words)
            outcomes.append(str(caught.value))
        assert outcomes[0] == outcomes[1]

    def test_wrong_fold_shape_rejected(self, estimates):
        predictor = DiffusionPredictor(estimates)
        with pytest.raises(PredictionError, match="source_fold must have shape"):
            predictor.score_candidates(0, [1], [0], source_fold=np.zeros((1, 1)))

    def test_status_bits_match_numpy_fallback(self, estimates):
        """Both paths flag every bad id at once, and fill the fold whenever
        the source is in range."""
        _native()
        U, V = estimates.num_users, estimates.vocab_size
        ids = prediction.flat_ids
        for predictor in (DiffusionPredictor(estimates), numpy_predictor(estimates)):
            _, fold, status = predictor.retweet_scores(0, ids([U], "c"), ids([V], "w"))
            assert status == prediction.BAD_WORD | prediction.BAD_CANDIDATE
            np.testing.assert_allclose(
                fold, predictor._source_fold_numpy(0), rtol=1e-12, atol=0
            )
            _, fold, status = predictor.retweet_scores(-1, ids([0], "c"), ids([0], "w"))
            assert (fold, status) == (None, prediction.BAD_SOURCE)

    @pytest.mark.parametrize(
        ("value", "bit"),
        [(np.nan, prediction.NONFINITE), (-1.0, prediction.BELOW_ZERO),
         (50.0, prediction.ABOVE_ONE)],
    )
    def test_guard_bits_match_numpy_fallback(self, estimates, value, bit):
        _native()
        for predictor in (DiffusionPredictor(estimates), numpy_predictor(estimates)):
            predictor._zeta[...] = value
            words, candidates = prediction.flat_ids([0, 1], "w"), np.arange(3)
            scores, _, status = predictor.retweet_scores(0, candidates, words)
            assert status == bit
            assert scores.shape == (3,)
