"""Unit tests for repro.datasets.synthetic (the planted COLD generator)."""

from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import fastgibbs
from repro.datasets import synthetic
from repro.datasets.corpus import Post
from repro.datasets.vocabulary import Vocabulary
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


def reference_vocabulary(config: SyntheticConfig) -> Vocabulary:
    """The world's vocabulary, built token by token from the rules: a
    generic ``termNNNNN`` per id, themed worlds' anchors first."""
    tokens = []
    if config.themed:
        themes = list(synthetic.THEMED_WORDS.values())
        for k in range(config.num_topics):
            bank = themes[k % len(themes)]
            for a in range(config.anchors_per_topic):
                word = bank[a % len(bank)]
                tokens.append(word if a < len(bank) else f"{word}_{a // len(bank)}")
        seen = set()
        for idx, token in enumerate(tokens):
            if token in seen:
                tokens[idx] = f"{token}_{idx}"
            seen.add(tokens[idx])
    tokens += [f"term{v:05d}" for v in range(len(tokens), config.vocab_size)]
    vocabulary = Vocabulary()
    for token in tokens:
        vocabulary.add(token)
    return vocabulary.freeze()


@cache
def cached_choice_oracle(world: str, seed: int):
    """:func:`choice_oracle` of an ``ORACLE_WORLDS`` entry, computed once."""
    return choice_oracle(ORACLE_WORLDS[world](seed))


def _native():
    lib = fastgibbs.native_kernel()
    if lib is None:
        pytest.skip("no native kernels (no C compiler)")
    return lib


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

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("max_temporal_modes", 0, "max_temporal_modes must be at least 1, got 0"),
            ("temporal_floor", -2.0, "temporal_floor must be >= 0, got -2.0"),
        ],
    )
    def test_rejects_bad_temporal_shape(self, field, value, message):
        """Caught at validation: no mode fails deep in planting, and a
        negative floor would plant an inverted psi."""
        from dataclasses import replace

        config = replace(SyntheticConfig(), **{field: value})
        with pytest.raises(SyntheticError, match=message):
            config.validate()
        with pytest.raises(SyntheticError, match=message):
            generate_corpus(config)

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
    """Both generators draw exactly what per-call ``rng.choice`` draws,
    natively (whenever the library loads) and on the reference loop."""

    @pytest.mark.parametrize("seed", [7, 8, 100])
    @pytest.mark.parametrize("world", sorted(ORACLE_WORLDS))
    def test_generators_reproduce_choice_oracle(self, world, seed, tmp_path):
        self._check(world, seed, tmp_path)

    @pytest.mark.parametrize("seed", [7, 8, 100])
    @pytest.mark.parametrize("world", sorted(ORACLE_WORLDS))
    def test_reference_loop_reproduces_choice_oracle(
        self, world, seed, tmp_path, monkeypatch
    ):
        """The no-compiler path: ``native_kernel`` returns ``None``."""
        monkeypatch.setattr(fastgibbs, "native_kernel", lambda: None)
        self._check(world, seed, tmp_path)

    @staticmethod
    def _check(world: str, seed: int, tmp_path) -> None:
        config = ORACLE_WORLDS[world](seed)
        truth, posts, links, latents = cached_choice_oracle(world, seed)
        communities = np.array([c for c, _ in latents])
        topics = np.array([k for _, k in latents])
        vocabulary = reference_vocabulary(config)

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


#: Worlds for the native draws: each Poisson branch (multiplication below
#: a mean of 10, PTRS from 10, nothing at 0) on posts, words and links.
NATIVE_WORLDS = {
    "medium": replace(MEDIUM_WORLD, seed=3),
    "ptrs_posts_mult_words": SyntheticConfig(
        num_users=40, mean_posts_per_user=25.0, mean_words_per_post=3.0,
        mean_links_per_user=12.0, seed=4,
    ),
    "means_at_ten": SyntheticConfig(
        num_users=50, mean_posts_per_user=10.0, mean_words_per_post=10.0,
        mean_links_per_user=10.0, seed=5,
    ),
    "large_means": SyntheticConfig(
        num_users=8, mean_posts_per_user=150.0, mean_words_per_post=60.0,
        mean_links_per_user=40.0, seed=6,
    ),
    "no_links": SyntheticConfig(num_users=30, mean_links_per_user=0.0, seed=7),
    "tiny_means": SyntheticConfig(
        num_users=30, mean_posts_per_user=0.3, mean_words_per_post=0.5,
        mean_links_per_user=0.2, seed=8,
    ),
}


def _reference_columns(config: SyntheticConfig, rng: np.random.Generator):
    """The reference loop's draws as one set of columns, and the links."""
    truth = plant_parameters(config, rng)
    draws = list(synthetic._planted_draws(config, truth, rng))
    posts = [draw for draw in draws if len(draw) == 5]
    links = np.array([draw for draw in draws if len(draw) == 2], np.int64)
    users, times, words, communities, topics = zip(*posts)
    columns = synthetic._PostColumns(
        *(np.array(column, np.int64) for column in (users, times, communities, topics)),
        np.array([len(w) for w in words], np.int64),
        np.concatenate(words),
    )
    return columns, links.reshape(-1, 2)


def _drawn_columns(config: SyntheticConfig, rng: np.random.Generator):
    """:func:`synthetic._planted_columns`' chunks, concatenated."""
    truth = plant_parameters(config, rng)
    chunks = list(synthetic._planted_columns(config, truth, rng))
    posts = [chunk for chunk in chunks if isinstance(chunk, synthetic._PostColumns)]
    links = [chunk for chunk in chunks if not isinstance(chunk, synthetic._PostColumns)]
    columns = synthetic._PostColumns(
        *(np.concatenate(column) for column in zip(*posts))
    )
    return columns, np.concatenate([np.zeros((0, 2), np.int64), *links])


class TestNativeDraws:
    """``cold_planted_posts`` / ``cold_planted_links`` against their oracle,
    the reference loop ``_planted_draws``: same values, same generator
    state after."""

    @pytest.mark.parametrize("world", sorted(NATIVE_WORLDS))
    @pytest.mark.parametrize("buffered", [False, True])
    def test_columns_and_generator_state_match_reference(self, world, buffered):
        _native()
        config = NATIVE_WORLDS[world]
        reference = np.random.default_rng(config.seed)
        native = np.random.default_rng(config.seed)
        if buffered:  # leaves half a uint64 in the generator (has_uint32)
            reference.integers(0, 7, dtype=np.uint32)
            native.integers(0, 7, dtype=np.uint32)
        want_posts, want_links = _reference_columns(config, reference)
        got_posts, got_links = _drawn_columns(config, native)
        for name, want, got in zip(want_posts._fields, want_posts, got_posts):
            np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(got_links, want_links)
        assert native.bit_generator.state == reference.bit_generator.state
        assert native.random() == reference.random()

    def test_users_past_the_capacity_are_rewound(self, monkeypatch):
        """Capacities of one post, word and link: nearly every user
        overflows a call, is rewound and redrawn in a grown one."""
        _native()
        monkeypatch.setattr(synthetic, "_CHUNK_POSTS", 1)
        monkeypatch.setattr(synthetic, "_CHUNK_WORDS", 1)
        monkeypatch.setattr(synthetic, "_CHUNK_LINKS", 1)
        config = NATIVE_WORLDS["ptrs_posts_mult_words"]
        reference, native = (np.random.default_rng(1) for _ in range(2))
        want_posts, want_links = _reference_columns(config, reference)
        got_posts, got_links = _drawn_columns(config, native)
        for want, got in zip(want_posts, got_posts):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_links, want_links)
        assert native.bit_generator.state == reference.bit_generator.state

    def test_native_path_never_runs_the_reference_loop(self, monkeypatch, tmp_path):
        """No silent fallback: with the library loaded, neither generator
        reaches ``_planted_draws``."""
        _native()
        monkeypatch.setattr(synthetic, "_planted_draws", None)
        generate_corpus(SyntheticConfig(seed=3))
        packed, _ = generate_packed_corpus(
            SyntheticConfig(seed=3), path=tmp_path / "w.coldpack"
        )
        packed.close()

    @pytest.mark.parametrize(
        ("bit_generator", "reference_calls"),
        [(np.random.PCG64, 0), (np.random.Philox, 1), (np.random.MT19937, 1)],
    )
    def test_only_pcg64_runs_natively(
        self, bit_generator, reference_calls, monkeypatch
    ):
        """Any other bit generator takes the reference loop and still
        draws exactly what it draws."""
        _native()
        calls = []
        planted_draws = synthetic._planted_draws

        def recording(*args):
            calls.append(args)
            return planted_draws(*args)

        config = NATIVE_WORLDS["no_links"]
        want = _reference_columns(config, np.random.Generator(bit_generator(5)))
        monkeypatch.setattr(synthetic, "_planted_draws", recording)
        got = _drawn_columns(config, np.random.Generator(bit_generator(5)))
        assert len(calls) == reference_calls
        for want_column, got_column in zip(want[0], got[0]):
            np.testing.assert_array_equal(got_column, want_column)


def _generated(config: SyntheticConfig):
    """``generate_corpus``'s corpus and truth, and its generator's state after."""
    plant_world = synthetic._plant_world
    planted = []

    def recording(*args):
        planted.append(plant_world(*args))
        return planted[-1]

    with mock.patch.object(synthetic, "_plant_world", recording):
        corpus, truth = generate_corpus(config)
    return corpus, truth, planted[0][2].bit_generator.state


def _assert_same_world(got, want) -> None:
    (corpus, truth, state), (want_corpus, want_truth, want_state) = got, want
    for name in ("post_authors", "post_times", "post_lengths", "tokens"):
        np.testing.assert_array_equal(
            getattr(corpus, name), getattr(want_corpus, name), err_msg=name
        )
    np.testing.assert_array_equal(corpus.link_array(), want_corpus.link_array())
    for name in ("pi", "theta", "phi", "psi", "eta", "post_communities", "post_topics"):
        np.testing.assert_array_equal(
            getattr(truth, name), getattr(want_truth, name), err_msg=name
        )
    assert corpus.vocabulary.to_list() == want_corpus.vocabulary.to_list()
    assert state == want_state


#: A generic and a themed world; the themed one reuses banks across
#: topics and words within a topic, so its tokens take both suffixes.
WHOLE_WORLDS = {
    "generic": NATIVE_WORLDS["ptrs_posts_mult_words"],
    "themed": SyntheticConfig(
        num_users=50, num_topics=14, anchors_per_topic=25, vocab_size=500,
        themed=True, seed=9,
    ),
}


class TestWholeWorldCall:
    """``generate_corpus`` draws the whole world in one native call whose
    columns the corpus keeps, and draws exactly what chunked calls and
    the reference loop draw."""

    @pytest.mark.parametrize("world", sorted(WHOLE_WORLDS))
    def test_same_world_as_tiny_capacities_and_reference_loop(self, world):
        _native()
        config = WHOLE_WORLDS[world]
        whole = _generated(config)
        with mock.patch.object(synthetic, "_world_capacity", lambda config: (1, 1, 1)):
            _assert_same_world(_generated(config), whole)
        with mock.patch.object(fastgibbs, "native_kernel", lambda: None):
            _assert_same_world(_generated(config), whole)
        assert whole[0].vocabulary == reference_vocabulary(config)

    def test_one_posts_call_and_no_slack_kept(self, monkeypatch):
        lib = _native()
        calls = []
        posts_call = lib.cold_planted_posts

        def counting(*args):
            calls.append(args)
            return posts_call(*args)

        monkeypatch.setattr(lib, "cold_planted_posts", counting)
        corpus, truth = generate_corpus(replace(MEDIUM_WORLD, seed=3))
        assert len(calls) == 1
        for column in (
            corpus.post_authors, corpus.post_times, corpus.post_lengths,
            corpus.tokens, truth.post_communities, truth.post_topics,
        ):
            owner = column if column.base is None else column.base
            assert owner.nbytes == column.nbytes

    def test_world_capacity_holds_the_presets(self):
        for preset in (dataset1, dataset2, benchmark_world):
            config = _preset_config(preset, seed=3)
            corpus, _ = generate_corpus(config)
            posts, words, links = synthetic._world_capacity(config)
            assert corpus.num_posts <= posts and corpus.num_words <= words
            assert corpus.num_links <= links


class TestWorldVocabulary:
    @pytest.mark.parametrize("world", sorted(WHOLE_WORLDS))
    def test_tokens_and_ids_equal_the_rules(self, world):
        config = WHOLE_WORLDS[world]
        vocabulary = synthetic._world_vocabulary(config)
        tokens = vocabulary.to_list()
        assert vocabulary == reference_vocabulary(config)
        assert vocabulary._token_to_id == Vocabulary(tokens)._token_to_id
        assert [vocabulary.id_of(token) for token in tokens] == list(range(len(tokens)))
        assert vocabulary.frozen and len(vocabulary) == config.vocab_size

    def test_shared_per_shape(self):
        config = WHOLE_WORLDS["themed"]
        vocabulary = synthetic._world_vocabulary(config)
        assert synthetic._world_vocabulary(replace(config, seed=1)) is vocabulary
        generic = synthetic._world_vocabulary(replace(config, themed=False))
        assert generic is not vocabulary


#: psi worlds: mode counts 1, 2, 3, 5 and T on both sides of the
#: pairwise sum's 8-element blocks, at C = K = 1 and C = K = 100.
PSI_WORLDS = [
    SyntheticConfig(
        num_communities=C, num_topics=K, num_time_slices=T,
        vocab_size=max(K * 12, 400), max_temporal_modes=modes,
    )
    for modes in (1, 2, 3, 5)
    for T in (1, 7, 8, 9, 16, 200)
    for C, K in ((1, 1), (4, 6))
] + [
    SyntheticConfig(
        num_communities=100, num_topics=100, num_time_slices=T,
        vocab_size=1200, max_temporal_modes=modes,
    )
    for modes, T in ((3, 12), (5, 200))
]


class TestPsiDraws:
    """The native ``_plant_psi`` (``cold_psi_draws`` plus the numpy
    densities) against its oracle, the reference loop
    ``_plant_psi_loop``: the same psi bit for bit and the same generator
    state after, the 32-bit buffer included."""

    @pytest.mark.parametrize(
        "config", PSI_WORLDS,
        ids=lambda c: (
            f"modes{c.max_temporal_modes}-T{c.num_time_slices}"
            f"-C{c.num_communities}-K{c.num_topics}"
        ),
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_psi_and_generator_state_match_reference(self, config, buffered):
        _native()
        reference, native = (np.random.default_rng(11) for _ in range(2))
        if buffered:  # leaves half a uint64 in the generator (has_uint32)
            reference.integers(0, 7, dtype=np.uint32)
            native.integers(0, 7, dtype=np.uint32)
        want = synthetic._plant_psi_loop(config, reference)
        got = synthetic._plant_psi(config, native)
        assert got.tobytes() == want.tobytes()
        assert native.bit_generator.state == reference.bit_generator.state
        assert native.integers(1 << 20) == reference.integers(1 << 20)

    @pytest.mark.parametrize("modes", [2, 3, 5])
    @pytest.mark.parametrize("uinteger", [0, 1, 3, 0x55555555, 0xFFFFFFFF])
    def test_pending_half_words_and_lemire_rejection(self, modes, uinteger):
        """Entry with a chosen pending half-word: 0 makes Lemire's
        product leftover 0, below the rejection threshold of 3 and 5
        modes, so the first draw is rejected and redrawn."""
        _native()
        config = SyntheticConfig(
            num_topics=3, num_communities=2, max_temporal_modes=modes
        )
        reference, native = (np.random.default_rng(4) for _ in range(2))
        for rng in (reference, native):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, uinteger
            rng.bit_generator.state = state
        want = synthetic._plant_psi_loop(config, reference)
        got = synthetic._plant_psi(config, native)
        assert got.tobytes() == want.tobytes()
        assert native.bit_generator.state == reference.bit_generator.state

    def test_native_path_never_runs_the_reference_loop(self, monkeypatch):
        """No silent fallback: with the library loaded, planting never
        reaches ``_plant_psi_loop``."""
        _native()
        monkeypatch.setattr(synthetic, "_plant_psi_loop", None)
        plant_parameters(SyntheticConfig(seed=3), np.random.default_rng(3))
        generate_corpus(SyntheticConfig(seed=3))

    @pytest.mark.parametrize(
        ("bit_generator", "reference_calls"),
        [(np.random.PCG64, 0), (np.random.Philox, 1), (np.random.MT19937, 1)],
    )
    def test_only_pcg64_runs_natively(
        self, bit_generator, reference_calls, monkeypatch
    ):
        """Any other bit generator takes the reference loop."""
        _native()
        calls = []
        loop = synthetic._plant_psi_loop

        def recording(*args):
            calls.append(args)
            return loop(*args)

        config = SyntheticConfig(max_temporal_modes=4)
        want = loop(config, np.random.Generator(bit_generator(5)))
        monkeypatch.setattr(synthetic, "_plant_psi_loop", recording)
        rng = np.random.Generator(bit_generator(5))
        got = synthetic._plant_psi(config, rng)
        assert len(calls) == reference_calls
        assert got.tobytes() == want.tobytes()

    def test_no_library_runs_the_reference_loop(self, monkeypatch):
        monkeypatch.setattr(fastgibbs, "native_kernel", lambda: None)
        config = SyntheticConfig(max_temporal_modes=4)
        want = synthetic._plant_psi_loop(config, np.random.default_rng(2))
        got = synthetic._plant_psi(config, np.random.default_rng(2))
        assert got.tobytes() == want.tobytes()


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


def _search_right(lib, cdf: np.ndarray, u: float) -> int:
    row = np.ascontiguousarray(cdf, np.float64)
    return lib.cold_search_right(row.ctypes.data, len(row), u)


#: Sorted rows with repeats: n = 1 and 2, non-powers of two, and flat
#: stretches where zero-probability cells repeat a CDF value.
_CDF_ROWS = st.lists(
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
    | st.floats(0.0, 1.0, allow_nan=False),
    min_size=1, max_size=70,
).map(sorted)


class TestSearchRight:
    """The planted kernels' branch-free ``search_right`` (through the
    ``cold_search_right`` test entry) is numpy's right searchsorted: the
    count of row entries <= u."""

    @settings(max_examples=300, deadline=None)
    @given(
        row=_CDF_ROWS,
        probe=st.sampled_from(["below", "on", "between", "last", "above"]),
        pick=st.integers(0, 1 << 16),
        u=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_matches_numpy_right_searchsorted(self, row, probe, pick, u):
        lib = _native()
        cdf = np.array(row)
        u = {
            "below": np.nextafter(cdf[0], -np.inf),
            "on": cdf[pick % len(cdf)],
            "between": u,
            "last": cdf[-1],
            "above": np.nextafter(cdf[-1], np.inf),
        }[probe]
        assert _search_right(lib, cdf, u) == cdf.searchsorted(u, side="right")

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 31, 33, 100])
    def test_every_entry_and_gap_of_a_cumsum_row(self, n):
        """A ``_choice_cdfs`` row with zero-probability cells (repeated
        values): u on each entry, just below it, and 0 and 1."""
        lib = _native()
        p = np.zeros(n)
        p[::3] = 1.0
        cdf = synthetic._choice_cdfs(p / p.sum())
        probes = [0.0, 1.0, *cdf, *np.nextafter(cdf, -np.inf)]
        for u in probes:
            assert _search_right(lib, cdf, u) == cdf.searchsorted(u, side="right"), u


def _guided_search(lib, cdf: np.ndarray, u: float) -> int:
    row = np.ascontiguousarray(cdf, np.float64)
    return lib.cold_guided_search(row.ctypes.data, len(row), u)


def _bucket_count(n: int) -> int:
    """The guide's bucket count: the smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


#: Sorted rows of every length class: n = 1, 2^j and 2^j + 1, runs of
#: one repeated value (zero-probability cells), values on bucket edges,
#: and hundreds of entries packed into one bucket.  Hypothesis draws the
#: shape; a seeded numpy generator fills in the values.
@st.composite
def _guided_rows(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257, 600]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))
    m = _bucket_count(n)
    crowd = rng.integers(m)
    if draw(st.booleans()):
        kinds = rng.integers(4, size=n)
    else:
        kinds = np.full(n, draw(st.integers(0, 3)))
    values = np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        [
            rng.random(n),  # anywhere
            rng.integers(m + 1, size=n) / m,  # on a bucket edge
            (crowd + rng.random(n)) / m,  # inside one bucket
        ],
        rng.integers(2, size=n).astype(float),  # 0 or 1
    )
    if draw(st.booleans()):  # one long run of a repeated value
        start = draw(st.integers(0, n - 1))
        values[start:start + draw(st.integers(1, n - start))] = values[start]
    return np.sort(values)


class TestGuidedSearch:
    """The word draws' guided search (through the ``cold_guided_search``
    test entry): for any u in [0, 1) it is numpy's right searchsorted on
    the whole row, whichever bucket u falls in."""

    @settings(max_examples=300, deadline=None)
    @given(
        cdf=_guided_rows(),
        probe=st.sampled_from(["edge", "on", "below", "above", "between"]),
        pick=st.integers(0, 1 << 16),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_numpy_right_searchsorted(self, cdf, probe, pick, u):
        lib = _native()
        m = _bucket_count(len(cdf))
        entry = cdf[pick % len(cdf)]
        u = {
            "edge": (pick % m) / m,
            "on": entry,
            "below": np.nextafter(entry, -np.inf),
            "above": np.nextafter(entry, np.inf),
            "between": u,
        }[probe]
        assume(0.0 <= u < 1.0)
        assert _guided_search(lib, cdf, u) == cdf.searchsorted(u, side="right")

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 32, 33, 100, 2000])
    def test_every_edge_entry_and_gap_of_a_cumsum_row(self, n):
        """A ``_choice_cdfs`` row with zero-probability cells: u on each
        bucket edge, on each entry and just below it, and just below 1."""
        lib = _native()
        p = np.zeros(n)
        p[::3] = 1.0
        cdf = synthetic._choice_cdfs(p / p.sum())
        m = _bucket_count(n)
        probes = [
            *np.arange(m) / m, *cdf, *np.nextafter(cdf, -np.inf),
            np.nextafter(1.0, 0.0),
        ]
        for u in probes:
            if 0.0 <= u < 1.0:
                want = cdf.searchsorted(u, side="right")
                assert _guided_search(lib, cdf, u) == want, u

    def test_hundreds_of_entries_in_one_bucket(self):
        """A row whose 700 tiny middle cells share one bucket (m = 2048),
        probed on every entry of that bucket, just below each, and
        across the bucket."""
        lib = _native()
        p = np.concatenate(
            [np.full(310, 1.0), np.full(700, 1e-9), np.full(290, 1.0)]
        )
        cdf = synthetic._choice_cdfs(p / p.sum())
        m = _bucket_count(len(cdf))
        bucket = int(cdf[310] * m)
        assert ((cdf[309:1010] * m).astype(int) == bucket).all()
        edges = np.linspace(bucket / m, (bucket + 1) / m, 257)
        for u in [*cdf[308:1011], *np.nextafter(cdf[308:1011], 0.0), *edges]:
            want = cdf.searchsorted(u, side="right")
            assert _guided_search(lib, cdf, u) == want, u


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

        # The reference loop, then the columns (native when the library
        # loads): both fail before their first draw.
        for draws in (synthetic._planted_draws, synthetic._planted_columns):
            rng = np.random.default_rng(2)
            before = rng.bit_generator.state
            with pytest.raises(ValueError):
                next(draws(config, truth, rng))
            assert rng.bit_generator.state == before

    def test_bad_truth_fails_generate_corpus(self):
        truth = plant_parameters(SyntheticConfig(), np.random.default_rng(0))
        truth.theta[0, 0] = np.nan
        with mock.patch.object(synthetic, "plant_parameters", return_value=truth):
            with pytest.raises(ValueError):
                generate_corpus(SyntheticConfig())
