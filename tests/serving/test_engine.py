"""ModelServer: batched kernels match the reference paths; guards trip."""

from __future__ import annotations

import numpy as np
import pytest

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
