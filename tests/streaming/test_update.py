"""COLDModel.update unit tests: growth, windows, invariants, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import COLDConfig, ConfigError, StreamConfig
from repro.core.model import COLDModel, ModelError, UpdateReport


class TestUpdateBasics:
    def test_unfitted_model_rejects_update(self, stream_world):
        _model, builder, remainder = stream_world(iterations=5)
        fresh = COLDModel(num_communities=3, num_topics=4)
        fresh.stream_builder_ = builder
        with pytest.raises(ModelError, match="fitted"):
            fresh.update(remainder)

    def test_raw_events_need_a_builder(self, stream_world):
        model, _builder, remainder = stream_world(iterations=5)
        model.stream_builder_ = None
        with pytest.raises(ModelError, match="builder"):
            model.update(remainder)

    def test_report_accounts_for_the_increment(self, stream_world):
        model, builder, remainder = stream_world(iterations=10)
        posts_before = model.state_.num_posts
        links_before = model.state_.num_links
        report = model.update(remainder)
        assert isinstance(report, UpdateReport)
        assert report.update_index == 1
        assert report.new_posts == model.state_.num_posts - posts_before
        assert report.new_links == model.state_.num_links - links_before
        assert report.window_posts >= report.new_posts
        assert report.seconds >= 0.0
        assert np.isfinite(report.log_likelihood)
        assert model.update_count_ == 1

    def test_invariants_hold_after_update(self, stream_world):
        model, _builder, remainder = stream_world(iterations=10)
        model.update(remainder)
        model.state_.check_invariants()

    def test_corpus_mirrors_state_growth(self, stream_world):
        model, _builder, remainder = stream_world(iterations=10)
        model.update(remainder)
        state = model.state_
        corpus = model.corpus_
        assert len(corpus.posts) == state.num_posts
        assert corpus.vocab_size == state.n_topic_word.shape[1]
        assert corpus.num_time_slices == state.n_comm_topic_time.shape[2]
        assert corpus.num_users == state.n_user_comm.shape[0]


class TestGrowth:
    def test_vocabulary_growth_extends_phi(self, stream_world):
        model, builder, remainder = stream_world(iterations=10)
        vocab_before = model.state_.n_topic_word.shape[1]
        builder.add_post("u0", ["brandnewtoken", "anothernewone"], time=0.2)
        increment = builder.pop_increment()
        assert increment.vocab_size == vocab_before + 2
        report = model.update(increment)
        assert report.new_terms == 2
        assert model.state_.n_topic_word.shape[1] == vocab_before + 2
        assert model.estimates_.phi.shape[1] == vocab_before + 2
        rows = model.estimates_.phi.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, rtol=1e-9)

    def test_slice_rollover_extends_psi_with_prior_mass(self, stream_world):
        model, builder, remainder = stream_world(iterations=10)
        slices_before = model.state_.n_comm_topic_time.shape[2]
        span_end = builder._origin + builder._span
        builder.add_post("u0", ["rolled"], time=span_end * 3.0)
        report = model.update(builder.pop_increment(rollover="grow"))
        assert report.new_slices > 0
        psi = model.estimates_.psi
        assert psi.shape[2] == slices_before + report.new_slices
        # The grown columns were never observed: their mass is the
        # smoothing prior, so every (community, topic) row still sums to 1
        # and the new columns are strictly positive.
        np.testing.assert_allclose(psi.sum(axis=2), 1.0, rtol=1e-9)
        assert (psi[:, :, slices_before:] > 0).all()

    def test_new_users_extend_membership(self, stream_world):
        model, builder, _remainder = stream_world(iterations=10)
        users_before = model.state_.n_user_comm.shape[0]
        builder.add_post("someone-new", ["hello"], time=0.3)
        report = model.update(builder.pop_increment())
        assert report.new_users == 1
        assert model.state_.n_user_comm.shape[0] == users_before + 1
        assert model.estimates_.pi.shape[0] == users_before + 1


class TestWindowing:
    def test_frozen_posts_keep_their_assignments(self, stream_world):
        frozen_config = StreamConfig(
            window_posts=0, window_links=0, resample_fraction=0.0
        )
        model, _builder, remainder = stream_world(
            iterations=10, stream=frozen_config
        )
        posts_before = model.state_.num_posts
        links_before = model.state_.num_links
        old_post_comm = model.state_.post_comm[:posts_before].copy()
        old_link_src = model.state_.link_src_comm[:links_before].copy()
        model.update(remainder)
        np.testing.assert_array_equal(
            model.state_.post_comm[:posts_before], old_post_comm
        )
        np.testing.assert_array_equal(
            model.state_.link_src_comm[:links_before], old_link_src
        )

    def test_tail_window_is_bounded(self, stream_world):
        model, _builder, remainder = stream_world(
            iterations=10, stream=StreamConfig(window_posts=3, window_links=2)
        )
        posts_before = model.state_.num_posts
        report = model.update(remainder)
        assert report.window_posts == report.new_posts + min(3, posts_before)

    def test_update_is_deterministic(self, stream_world):
        runs = []
        for _ in range(2):
            model, _builder, remainder = stream_world(iterations=10, seed=5)
            model.update(remainder)
            runs.append(model.state_.post_comm.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_per_call_stream_override(self, stream_world):
        model, _builder, remainder = stream_world(iterations=10)
        report = model.update(
            remainder, stream=StreamConfig(update_sweeps=2, sample_last=1)
        )
        assert report.sweeps == 2


class TestStreamConfig:
    def test_defaults_validate(self):
        config = StreamConfig()
        assert config.window_posts == 512
        assert config.rollover == "grow"

    @pytest.mark.parametrize(
        "bad",
        [
            {"window_posts": -1},
            {"resample_fraction": 1.5},
            {"update_sweeps": 0},
            {"sample_last": 0},
            {"sample_last": 9, "update_sweeps": 4},
            {"rollover": "wrap"},
            {"publish_interval": 0},
            {"checkpoint_interval": 0},
            {"max_new_slices": 0},
        ],
    )
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            StreamConfig(**bad)

    def test_nested_in_cold_config_from_dict(self):
        config = COLDConfig(stream={"window_posts": 9})
        assert isinstance(config.stream, StreamConfig)
        assert config.stream.window_posts == 9

    def test_flat_stream_spelling_is_an_unknown_field(self):
        with pytest.raises(ConfigError, match="stream_window_posts"):
            COLDConfig().evolve(stream_window_posts=64)

    def test_model_normalises_stream_dict(self):
        model = COLDModel(
            num_communities=3, num_topics=4, stream={"update_sweeps": 3}
        )
        assert isinstance(model.stream, StreamConfig)
        with pytest.raises(ModelError):
            COLDModel(num_communities=3, num_topics=4, stream=42)
