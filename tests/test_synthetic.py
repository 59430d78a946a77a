"""Unit tests for repro.datasets.synthetic (the planted COLD generator)."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.datasets.corpus import Post
from repro.datasets.synthetic import (
    GroundTruth,
    SyntheticConfig,
    SyntheticError,
    benchmark_world,
    dataset1,
    dataset2,
    generate_corpus,
    generate_packed_corpus,
    plant_parameters,
)

#: The e2e benchmark's MEDIUM world: 600 users, ~4.9K posts of ~40 words.
MEDIUM_WORLD = SyntheticConfig(
    num_users=600, num_communities=10, num_topics=20, num_time_slices=12,
    vocab_size=2000, mean_posts_per_user=8.0, mean_words_per_post=40.0,
    mean_links_per_user=3.0,
)


def choice_oracle(config: SyntheticConfig):
    """The planted process with one ``rng.choice(n, p=row)`` call per draw.

    The reference both generators must reproduce draw for draw.  Returns
    the planted truth, posts, sorted links and per-post ``(c, k)`` latents.
    """
    rng = np.random.default_rng(config.seed)
    truth = plant_parameters(config, rng)
    C, K, U = config.num_communities, config.num_topics, config.num_users
    posts, latents, links = [], [], set()
    for user in range(U):
        num_posts = max(1, int(rng.poisson(config.mean_posts_per_user)))
        for c in rng.choice(C, size=num_posts, p=truth.pi[user]):
            k = rng.choice(K, p=truth.theta[c])
            length = max(1, int(rng.poisson(config.mean_words_per_post)))
            words = rng.choice(config.vocab_size, size=length, p=truth.phi[k])
            t = rng.choice(config.num_time_slices, p=truth.psi[k, c])
            posts.append(Post(user, tuple(int(w) for w in words), int(t)))
            latents.append((int(c), int(k)))
    column_weights = truth.pi / truth.pi.sum(axis=0, keepdims=True)
    for user in range(U):
        for _ in range(int(rng.poisson(config.mean_links_per_user))):
            s = rng.choice(C, p=truth.pi[user])
            c_dst = rng.choice(C, p=truth.eta[s] / truth.eta[s].sum())
            target = int(rng.choice(U, p=column_weights[:, c_dst]))
            if target != user:
                links.add((user, target))
    return truth, posts, sorted(links), latents


def _preset_config(preset, seed: int) -> SyntheticConfig:
    """The config a preset such as ``dataset1`` hands to generate_corpus."""
    with mock.patch.object(synthetic, "generate_corpus") as generate:
        preset(seed=seed)
    return generate.call_args.args[0]


class TestConfigValidation:
    def test_default_config_is_valid(self):
        SyntheticConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_users", 0),
            ("num_communities", 0),
            ("num_topics", -1),
            ("num_time_slices", 0),
            ("vocab_size", 0),
            ("mean_posts_per_user", 0.0),
            ("membership_concentration", -0.1),
            ("temporal_width", 0.0),
        ],
    )
    def test_rejects_nonpositive_fields(self, field, value):
        from dataclasses import replace

        config = replace(SyntheticConfig(), **{field: value})
        with pytest.raises(SyntheticError):
            config.validate()

    def test_rejects_anchor_overflow(self):
        config = SyntheticConfig(vocab_size=10, num_topics=4, anchors_per_topic=5)
        with pytest.raises(SyntheticError):
            config.validate()

    def test_rejects_bad_eta_ranges(self):
        config = SyntheticConfig(eta_within=1.5)
        with pytest.raises(SyntheticError):
            config.validate()


class TestPlantedParameters:
    @pytest.fixture()
    def truth(self) -> GroundTruth:
        config = SyntheticConfig(seed=5)
        return plant_parameters(config, np.random.default_rng(5))

    def test_pi_rows_are_distributions(self, truth):
        np.testing.assert_allclose(truth.pi.sum(axis=1), 1.0, atol=1e-9)
        assert (truth.pi >= 0).all()

    def test_theta_rows_are_distributions(self, truth):
        np.testing.assert_allclose(truth.theta.sum(axis=1), 1.0, atol=1e-9)

    def test_phi_rows_are_distributions(self, truth):
        np.testing.assert_allclose(truth.phi.sum(axis=1), 1.0, atol=1e-9)

    def test_psi_rows_are_distributions(self, truth):
        np.testing.assert_allclose(truth.psi.sum(axis=2), 1.0, atol=1e-9)

    def test_eta_in_unit_interval_and_assortative(self, truth):
        assert ((truth.eta > 0) & (truth.eta <= 1)).all()
        off_diag = truth.eta[~np.eye(truth.eta.shape[0], dtype=bool)]
        assert np.diag(truth.eta).min() > off_diag.max()

    def test_anchor_words_dominate_their_topic(self, truth):
        config = SyntheticConfig(seed=5)
        anchors = config.anchors_per_topic
        for k in range(config.num_topics):
            block = truth.phi[k, k * anchors : (k + 1) * anchors].sum()
            assert block > 0.4  # anchor_strength mass stays in the block

    def test_zeta_shape_and_formula(self, truth):
        zeta = truth.zeta()
        K, C = truth.num_topics, truth.num_communities
        assert zeta.shape == (K, C, C)
        np.testing.assert_allclose(
            zeta[1, 0, 2], truth.theta[0, 1] * truth.theta[2, 1] * truth.eta[0, 2]
        )


class TestGenerateCorpus:
    def test_deterministic_given_seed(self):
        c1, t1 = generate_corpus(SyntheticConfig(seed=9))
        c2, t2 = generate_corpus(SyntheticConfig(seed=9))
        assert c1.posts == c2.posts
        assert c1.links == c2.links
        np.testing.assert_array_equal(t1.pi, t2.pi)

    def test_seed_override_changes_output(self):
        c1, _ = generate_corpus(SyntheticConfig(seed=1))
        c2, _ = generate_corpus(SyntheticConfig(seed=1), seed=2)
        assert c1.posts != c2.posts

    def test_every_user_has_at_least_one_post(self, tiny_corpus):
        authored = {post.author for post in tiny_corpus.posts}
        assert authored == set(range(tiny_corpus.num_users))

    def test_post_latents_recorded_and_aligned(self, tiny_corpus, tiny_truth):
        assert len(tiny_truth.post_communities) == tiny_corpus.num_posts
        assert len(tiny_truth.post_topics) == tiny_corpus.num_posts
        assert tiny_truth.post_communities.max() < tiny_truth.num_communities
        assert tiny_truth.post_topics.max() < tiny_truth.num_topics

    def test_links_are_valid_and_sparse(self, tiny_corpus):
        assert tiny_corpus.num_links > 0
        assert tiny_corpus.num_links < tiny_corpus.num_users * (
            tiny_corpus.num_users - 1
        )

    def test_links_respect_block_structure(self):
        """Within-community links should dominate under assortative eta."""
        config = SyntheticConfig(
            num_users=120, mean_links_per_user=8, membership_concentration=0.05,
            seed=13,
        )
        corpus, truth = generate_corpus(config)
        main = truth.pi.argmax(axis=1)
        within = sum(1 for s, d in corpus.links if main[s] == main[d])
        assert within / corpus.num_links > 0.5

    def test_timestamps_follow_planted_psi(self):
        """Posts of a (k, c) pair should concentrate where psi_kc does."""
        config = SyntheticConfig(seed=21, max_temporal_modes=1, temporal_floor=0.01)
        corpus, truth = generate_corpus(config)
        times = corpus.timestamps()
        for k in range(truth.num_topics):
            for c in range(truth.num_communities):
                mask = (truth.post_topics == k) & (truth.post_communities == c)
                if mask.sum() < 10:
                    continue
                peak = truth.psi[k, c].argmax()
                spread = np.abs(times[mask] - peak).mean()
                assert spread < corpus.num_time_slices / 2

    def test_themed_vocabulary_has_readable_anchor_tokens(self):
        config = SyntheticConfig(themed=True, seed=2)
        corpus, _ = generate_corpus(config)
        assert corpus.vocabulary is not None
        first_anchor = corpus.vocabulary.token_of(0)
        assert not first_anchor.startswith("term")

    def test_generic_vocabulary_tokens(self):
        corpus, _ = generate_corpus(SyntheticConfig(seed=2))
        assert corpus.vocabulary is not None
        assert corpus.vocabulary.token_of(0) == "term00000"

    def test_invalid_config_raises(self):
        with pytest.raises(SyntheticError):
            generate_corpus(SyntheticConfig(num_users=1))


class TestPresets:
    def test_dataset1_statistics(self):
        corpus, truth = dataset1(scale=0.3)
        assert corpus.num_users >= 20
        assert corpus.num_posts > corpus.num_users  # many posts per user
        assert truth.num_communities == 6

    def test_dataset2_is_sparser_than_dataset1(self):
        c1, _ = dataset1(scale=0.3)
        c2, _ = dataset2(scale=0.3)
        assert c2.num_users > c1.num_users
        assert c2.num_posts / c2.num_users < c1.num_posts / c1.num_users

    def test_benchmark_world_overrides(self):
        corpus, truth = benchmark_world(seed=1, num_users=40)
        assert corpus.num_users == 40
        assert truth.num_communities == 4


ORACLE_WORLDS = {
    "default": lambda seed: SyntheticConfig(seed=seed),
    "dataset1": lambda seed: _preset_config(dataset1, seed),
    "benchmark_world": lambda seed: _preset_config(benchmark_world, seed),
    "medium": lambda seed: replace(MEDIUM_WORLD, seed=seed),
    "themed": lambda seed: SyntheticConfig(themed=True, num_users=80, seed=seed),
}


class TestChoiceOracle:
    """Both generators draw exactly what per-call ``rng.choice`` draws."""

    @pytest.mark.parametrize("seed", [7, 8, 100])
    @pytest.mark.parametrize("world", sorted(ORACLE_WORLDS))
    def test_generators_reproduce_choice_oracle(self, world, seed, tmp_path):
        config = ORACLE_WORLDS[world](seed)
        truth, posts, links, latents = choice_oracle(config)
        communities = np.array([c for c, _ in latents])
        topics = np.array([k for _, k in latents])
        vocabulary = (
            synthetic._themed_vocabulary(config) if config.themed
            else synthetic._generic_vocabulary(config)
        )

        corpus, ram_truth = generate_corpus(config)
        assert corpus.posts == posts
        assert corpus.links == links
        assert corpus.vocabulary == vocabulary
        np.testing.assert_array_equal(ram_truth.pi, truth.pi)
        np.testing.assert_array_equal(ram_truth.post_communities, communities)
        np.testing.assert_array_equal(ram_truth.post_topics, topics)

        packed, packed_truth = generate_packed_corpus(
            config, path=tmp_path / "w.coldpack", keep_latents=True
        )
        with packed:
            assert list(packed.posts) == posts
            assert sorted(packed.link_set()) == links
            assert packed.num_links == len(links)
            assert packed.vocabulary == vocabulary
        np.testing.assert_array_equal(packed_truth.post_communities, communities)
        np.testing.assert_array_equal(packed_truth.post_topics, topics)


def _corrupt(row: np.ndarray, defect: str) -> None:
    """Break one probability row in place, as ``Generator.choice`` rejects."""
    if defect == "nan":
        row[0] = np.nan
    elif defect == "inf":
        row[0] = np.inf
    elif defect == "negative":  # still sums to one
        row[1] += row[0] + 0.1
        row[0] = -0.1
    else:
        row *= 1.01


#: Every planted tensor with every defect, except a rescaled ``eta`` row:
#: eta rows are normalised before drawing, so their scale is not a defect.
BAD_ROWS = [
    (tensor, defect)
    for tensor in ("pi", "theta", "phi", "psi", "eta")
    for defect in ("nan", "inf", "negative", "sum_1.01")
    if (tensor, defect) != ("eta", "sum_1.01")
]


class TestDrawValidation:
    """A bad planted tensor fails as ``rng.choice`` would, before any draw."""

    @pytest.mark.parametrize("tensor,defect", BAD_ROWS)
    @np.errstate(invalid="ignore")
    def test_bad_row_raises_value_error_like_choice(self, tensor, defect):
        config = SyntheticConfig(
            num_users=6, num_communities=3, num_topics=3, num_time_slices=4,
            vocab_size=30, anchors_per_topic=4, seed=1,
        )
        truth = plant_parameters(config, np.random.default_rng(1))
        array = getattr(truth, tensor)
        row = array.reshape(-1, array.shape[-1])[0]
        _corrupt(row, defect)
        drawn_row = row / row.sum() if tensor == "eta" else row
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(row.size, p=drawn_row)

        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            next(synthetic._planted_draws(config, truth, rng))
        assert rng.bit_generator.state == before

    def test_bad_truth_fails_generate_corpus(self):
        truth = plant_parameters(SyntheticConfig(), np.random.default_rng(0))
        truth.theta[0, 0] = np.nan
        with mock.patch.object(synthetic, "plant_parameters", return_value=truth):
            with pytest.raises(ValueError):
                generate_corpus(SyntheticConfig())
