"""ModelServer: batched kernels match the reference paths; guards trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastgibbs, prediction
from repro.core.estimates import ParameterEstimates
from repro.core.influence import community_influence, top_influential_users, user_influence
from repro.core.prediction import (
    DiffusionPredictor,
    PredictionError,
    batch_timestamp_scores,
    link_probability,
    timestamp_scores,
)
from repro.datasets.corpus import Post
from repro.serving import Deadline, DegenerateScoreError, ModelServer, ServingError
from repro.serving import engine as engine_module
from repro.serving.engine import MAX_IC_SIMULATIONS
from repro.serving.robustness import DeadlineExceeded


class TestRetweet:
    def test_matches_reference_predictor(self, engine, estimates):
        predictor = DiffusionPredictor(estimates, top_comm_size=5)
        candidates = [1, 2, 3, 7]
        words = [0, 3, 5]
        got = engine.retweet(0, candidates, words)
        want = predictor.score_candidates(0, candidates, words)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_fold_cache_hits_on_repeat_source(self, estimates):
        engine = ModelServer(estimates, cache_size=8)
        engine.retweet(2, [0, 1], [1])
        before = engine._fold_cache.stats()["hits"]
        engine.retweet(2, [3], [2, 4])
        assert engine._fold_cache.stats()["hits"] == before + 1

    def test_validates_inputs(self, engine, estimates):
        with pytest.raises(PredictionError):
            engine.retweet(0, [1], [])
        with pytest.raises(PredictionError):
            engine.retweet(estimates.num_users + 5, [1], [0])
        with pytest.raises(PredictionError):
            engine.retweet(0, [estimates.num_users + 5], [0])
        with pytest.raises(PredictionError):
            engine.retweet(0, [1], [estimates.vocab_size + 5])

    def test_expired_deadline_raises(self, engine):
        clock_now = [0.0]
        deadline = Deadline(expires_at=-1.0, clock=lambda: clock_now[0])
        with pytest.raises(DeadlineExceeded):
            engine.retweet(0, [1], [0], deadline=deadline)


def _numpy_engine(estimates, **kwargs) -> ModelServer:
    """An engine built as if no library could be loaded: the fallback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prediction, "native_kernel", lambda: None)
        return ModelServer(estimates, **kwargs)


def _outcome(call):
    try:
        return call()
    except (PredictionError, DegenerateScoreError) as exc:
        return type(exc), str(exc)


class TestNativeRetweet:
    """The one-call cold path against the engine's numpy fallback."""

    @pytest.fixture(autouse=True)
    def _needs_library(self):
        if fastgibbs.native_kernel() is None:
            pytest.skip("no native kernels (no C compiler)")

    def test_scores_match_numpy_fallback(self, estimates):
        native, fallback = ModelServer(estimates), _numpy_engine(estimates)
        candidates = list(range(estimates.num_users))
        for source in range(estimates.num_users):
            for words in ([0], [3, 3, 9, 1], list(range(12))):
                np.testing.assert_allclose(
                    native.retweet(source, candidates, words),
                    fallback.retweet(source, candidates, words),
                    rtol=1e-12,
                    atol=0,
                )

    def test_errors_and_fold_cache_match_numpy_fallback(self, estimates):
        """Same exception type and message for every bad input, and the
        same fold-cache keys, hits and misses after them."""
        U, V = estimates.num_users, estimates.vocab_size
        requests = [
            (0, [1], []), (0, [1], [V]), (1, [1], [-1, 0]), (U, [1], [0]),
            (-1, [1], [V]), (2**70, [1], [0]), (2, [U], [0]), (3, [-1], [V]),
            (3, [1], [[0]]), (4, [[1]], [0]), (2, [1], [0]), (5, [], [0]),
            (0, [1, 1, 2], [4, 4]),
        ]
        engines = ModelServer(estimates, cache_size=4), _numpy_engine(
            estimates, cache_size=4
        )
        outcomes = [
            [_outcome(lambda: engine.retweet(*request)) for request in requests]
            for engine in engines
        ]
        for native, fallback in zip(*outcomes):
            if isinstance(native, tuple):
                assert native == fallback
            else:
                np.testing.assert_allclose(native, fallback, rtol=1e-12, atol=0)
        assert [type(o) for o in outcomes[0]].count(tuple) == 10
        native, fallback = (engine._fold_cache for engine in engines)
        assert native.stats() == fallback.stats()
        assert list(native._entries) == list(fallback._entries) == [2, 5, 0]

    @pytest.mark.parametrize(
        ("value", "message"),
        [
            (np.nan, "retweet produced non-finite scores"),
            (-1.0, "retweet produced scores below 0.0"),
            (50.0, "retweet produced scores above 1.000000001"),
        ],
    )
    def test_degenerate_estimates_raise(self, estimates, value, message):
        for engine in (ModelServer(estimates), _numpy_engine(estimates)):
            engine._predictor._zeta[...] = value
            with pytest.raises(DegenerateScoreError) as caught:
                engine.retweet(0, [1, 2], [0, 1])
            assert str(caught.value) == message


class TestLink:
    def test_matches_link_probability(self, engine, estimates):
        sources = np.array([0, 1, 2])
        targets = np.array([3, 4, 5])
        got = engine.link(sources, targets)
        want = link_probability(estimates, sources, targets)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_range_validation(self, engine, estimates):
        with pytest.raises(PredictionError):
            engine.link([0], [estimates.num_users])


class TestTimestamp:
    def test_batch_matches_per_post_argmax(self, engine, estimates):
        posts = [
            (0, [0, 1, 2]),
            (3, [4]),
            (5, [1, 1, 3, 7]),
        ]
        slices, confidences = engine.timestamp(
            [author for author, _ in posts], [words for _, words in posts]
        )
        for n, (author, words) in enumerate(posts):
            reference = timestamp_scores(
                estimates, Post(author=author, words=tuple(words), timestamp=0)
            )
            assert slices[n] == reference.argmax()
            np.testing.assert_allclose(
                confidences[n], reference / reference.sum(), rtol=1e-9
            )

    def test_batch_kernel_matches_reference_rows(self, estimates):
        authors = [0, 2, 4]
        words_per_post = [[0, 5], [3], [2, 2, 6]]
        batch = batch_timestamp_scores(estimates, authors, words_per_post)
        for n, (author, words) in enumerate(zip(authors, words_per_post)):
            reference = timestamp_scores(
                estimates, Post(author=author, words=tuple(words), timestamp=0)
            )
            # Rows agree up to the positive per-post rescaling argmax ignores.
            np.testing.assert_allclose(
                batch[n] / batch[n].sum(),
                reference / reference.sum(),
                rtol=1e-9,
            )

    def test_batch_kernel_validates(self, estimates):
        with pytest.raises(PredictionError):
            batch_timestamp_scores(estimates, [0, 1], [[0]])
        with pytest.raises(PredictionError):
            batch_timestamp_scores(estimates, [0], [[]])
        with pytest.raises(PredictionError):
            batch_timestamp_scores(estimates, [estimates.num_users], [[0]])
        empty = batch_timestamp_scores(estimates, [], [])
        assert empty.shape == (0, estimates.num_time_slices)


class TestInfluential:
    def test_result_structure_and_caching(self, estimates):
        engine = ModelServer(estimates, ic_simulations=10)
        first = engine.influential(0, size=2, top_users=3)
        assert first["cached"] is False
        assert len(first["communities"]) == 2
        assert len(first["top_users"]) == 3
        again = engine.influential(0, size=2, top_users=3)
        assert again["cached"] is True
        assert again["communities"] == first["communities"]

    def test_matches_direct_influence_path(self, estimates):
        engine = ModelServer(estimates, ic_simulations=10, seed=7)
        result = engine.influential(1, size=3, top_users=4)
        influence = community_influence(estimates, 1, num_simulations=10, seed=7)
        assert result["communities"] == influence.top(3)
        users, scores = top_influential_users(estimates, influence, size=4)
        assert result["top_users"] == [int(u) for u in users]
        np.testing.assert_allclose(result["user_scores"], np.round(scores, 6))

    def test_hit_answers_from_the_finished_answer(
        self, estimates, influential_answer, monkeypatch
    ):
        """A repeated query reruns no ranking and gives the same answer;
        an edit to a returned answer never reaches the cache."""
        engine = ModelServer(estimates, ic_simulations=10, seed=7)
        shapes = [(1, 0), (2, 3), (2, 5), (estimates.num_communities + 5, 10**6)]
        first = [engine.influential(0, size=s, top_users=u) for s, u in shapes]
        assert [answer["cached"] for answer in first] == [False, True, True, True]
        for (size, top_users), answer in zip(shapes, first):
            assert answer == influential_answer(
                estimates, 0, 10, 7, size, top_users, cached=answer["cached"]
            )
        ranked = []

        def recording(*args, **kwargs):
            ranked.append(args)
            return top_influential_users(*args, **kwargs)

        monkeypatch.setattr(engine_module, "top_influential_users", recording)
        again = [engine.influential(0, size=s, top_users=u) for s, u in shapes]
        assert ranked == []
        assert again == [{**answer, "cached": True} for answer in first]
        again[1]["top_users"].append(-1)
        again[1]["degree"][0] = -1.0
        assert engine.influential(0, size=2, top_users=3) == {
            **first[1], "cached": True
        }
        assert ranked == []

    def test_validates_topic_and_sims(self, engine, estimates):
        with pytest.raises(PredictionError):
            engine.influential(estimates.num_topics)
        with pytest.raises(PredictionError):
            engine.influential(0, num_simulations=0)

    def test_simulation_cap_rejects_before_any_run(self, estimates, monkeypatch):
        ran = []

        def recording(estimates, topic, num_simulations, seed):
            ran.append(num_simulations)
            return community_influence(estimates, topic, 1, seed)

        monkeypatch.setattr(engine_module, "community_influence", recording)
        engine = ModelServer(estimates, ic_simulations=10)
        with pytest.raises(PredictionError, match="num_simulations"):
            engine.influential(0, num_simulations=MAX_IC_SIMULATIONS + 1)
        assert ran == []
        assert engine.describe()["influence_cache"]["entries"] == 0
        engine.influential(0, num_simulations=MAX_IC_SIMULATIONS)
        assert ran == [MAX_IC_SIMULATIONS]

    @pytest.mark.parametrize(
        ("field", "value"), [("size", 0), ("size", -3), ("top_users", -2)]
    )
    def test_bad_sizes_reject_before_any_run(self, estimates, field, value):
        engine = ModelServer(estimates, ic_simulations=10)
        misses = engine.describe()["influence_cache"]["misses"]
        with pytest.raises(PredictionError, match=field):
            engine.influential(0, **{field: value})
        cache = engine.describe()["influence_cache"]
        assert (cache["misses"], cache["entries"]) == (misses, 0)

    def test_zero_top_users_ranks_communities_only(self, estimates):
        result = ModelServer(estimates, ic_simulations=10).influential(
            0, size=1, top_users=0
        )
        assert result["top_users"] == [] and len(result["communities"]) == 1


class TestTopInfluentialUsers:
    def test_orders_by_score_desc(self, estimates):
        influence = community_influence(estimates, 0, num_simulations=10)
        users, scores = top_influential_users(estimates, influence, size=5)
        all_scores = user_influence(estimates, influence)
        assert list(scores) == sorted(all_scores, reverse=True)[:5]
        np.testing.assert_allclose(all_scores[users], scores)

    def test_size_clamped_to_population(self, estimates):
        influence = community_influence(estimates, 0, num_simulations=10)
        users, _ = top_influential_users(estimates, influence, size=10**6)
        assert len(users) == estimates.num_users


class TestGuards:
    def _poisoned(self, estimates: ParameterEstimates) -> ModelServer:
        engine = ModelServer(estimates)
        # Corrupt the engine's (private, contiguous) copy post-validation:
        # exactly what a buggy in-place mutation would do in production.
        engine.estimates.eta[0, 0] = np.nan
        return engine

    def test_nan_scores_raise_degenerate(self, estimates):
        engine = self._poisoned(estimates)
        with pytest.raises(DegenerateScoreError):
            engine.link(np.zeros(3, dtype=np.int64), np.arange(3))

    def test_self_check_rejects_poisoned_model(self, estimates):
        engine = self._poisoned(estimates)
        with pytest.raises((DegenerateScoreError, ServingError)):
            engine.self_check()

    def test_self_check_passes_on_healthy_model(self, engine):
        checks = engine.self_check()
        assert set(checks) == {"retweet", "link", "timestamp", "influential_top"}
        assert 0.0 <= checks["retweet"] <= 1.0
        assert 0.0 <= checks["link"] <= 1.0


class TestConstruction:
    def test_from_path_roundtrip(self, model_path, estimates):
        engine = ModelServer.from_path(model_path, ic_simulations=10)
        np.testing.assert_allclose(engine.estimates.pi, estimates.pi)
        description = engine.describe()
        assert description["num_users"] == estimates.num_users
        assert "fold_cache" in description

    def test_engine_owns_its_tensors(self, estimates):
        # Mutating the caller's estimates after construction must not
        # reach the serving engine (hot-swap immutability contract).
        engine = ModelServer(estimates)
        before = engine.estimates.eta[0, 0]
        original = estimates.eta[0, 0]
        try:
            estimates.eta[0, 0] = np.nan
            assert engine.estimates.eta[0, 0] == before
        finally:
            estimates.eta[0, 0] = original

    def test_tensors_are_contiguous_float64(self, engine):
        for name in ("pi", "theta", "phi", "psi", "eta"):
            tensor = getattr(engine.estimates, name)
            assert tensor.flags["C_CONTIGUOUS"]
            assert tensor.dtype == np.float64
