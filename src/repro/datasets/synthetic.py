"""Synthetic Weibo-like corpus generator (planted COLD process).

The paper evaluates on two crawled Sina Weibo datasets which are not
redistributable.  This module substitutes them with a generator that *plants*
ground-truth COLD parameters (``pi``, ``theta``, ``phi``, ``psi``, ``eta``)
and runs the paper's generative process (Algorithm 1) forward to produce a
:class:`~repro.datasets.corpus.SocialCorpus`.

The substitution preserves everything the evaluation needs:

* short, single-topic posts with community-dependent temporal dynamics;
* a sparse directed interaction network with block (community) structure;
* known ground truth, which additionally enables recovery tests that the
  original evaluation could not run.

Link generation note: Algorithm 1 draws a Bernoulli for every ordered user
pair, which is O(U^2).  Real interaction networks are sparse, so we instead
draw a per-user out-degree and sample each link's endpoint communities and
target user proportionally to the same ``pi`` / ``eta`` factors.  This keeps
the planted block structure (the quantity COLD estimates) while producing a
sparse network directly.

Draw note: one loop, :func:`_planted_draws`, holds the whole RNG call
sequence, and both generators consume it.  Every categorical draw looks up
a CDF table built once per world (:func:`_choice_cdfs`), drawing exactly
what ``Generator.choice`` would from the same uniforms without rebuilding
the CDF per call.  The tables have the shapes of the planted tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from pathlib import Path

from .corpus import Post, SocialCorpus
from .packed import PackedCorpus, PackedCorpusWriter
from .vocabulary import Vocabulary

#: Thematic word banks used to label synthetic topics with readable tokens.
#: Loosely mirrors the communities surfaced in the paper's Figure 5 (movie,
#: sports, music, literature, traffic, finance...).
THEMED_WORDS: dict[str, list[str]] = {
    "movie": [
        "film", "box_office", "director", "premiere", "cinema", "trailer",
        "actor", "actress", "sequel", "screening", "oscar", "blockbuster",
        "journey_west", "ticket", "studio", "script", "scene", "cast",
        "release", "critic",
    ],
    "sports": [
        "match", "league", "goal", "coach", "team", "season", "playoff",
        "champion", "score", "stadium", "transfer", "injury", "derby",
        "final", "training", "referee", "fans", "tournament", "record",
        "medal",
    ],
    "music": [
        "album", "concert", "singer", "tour", "single", "chart", "band",
        "lyrics", "stage", "festival", "melody", "studio_session", "vocal",
        "debut", "encore", "playlist", "grammy", "acoustic", "remix",
        "soundtrack",
    ],
    "literature": [
        "novel", "author", "poem", "chapter", "publisher", "essay",
        "bookstore", "manuscript", "translation", "prose", "anthology",
        "fiction", "memoir", "critique", "serial", "classic", "verse",
        "preface", "paperback", "librarian",
    ],
    "traffic": [
        "road", "accident", "congestion", "highway", "detour", "police",
        "signal", "lane", "rush_hour", "closure", "subway", "bridge",
        "violation", "speed_limit", "crosswalk", "bus_route", "parking",
        "toll", "checkpoint", "commute",
    ],
    "finance": [
        "market", "stock", "investor", "earnings", "dividend", "index",
        "portfolio", "bond", "rally", "regulator", "ipo", "futures",
        "hedge", "liquidity", "valuation", "broker", "yield", "margin",
        "takeover", "audit",
    ],
    "technology": [
        "startup", "gadget", "smartphone", "chip", "software", "update",
        "launch_event", "battery", "platform", "cloud", "app", "beta",
        "patent", "hardware", "network", "algorithm", "interface", "sensor",
        "firmware", "developer",
    ],
    "food": [
        "restaurant", "recipe", "dumpling", "noodle", "chef", "banquet",
        "spicy", "dessert", "tea_house", "street_food", "hotpot", "menu",
        "tasting", "cuisine", "snack", "festival_food", "kitchen", "flavor",
        "ingredient", "delicacy",
    ],
    "travel": [
        "itinerary", "flight", "hotel", "scenery", "passport", "beach",
        "mountain", "museum_visit", "tour_guide", "luggage", "visa",
        "landmark", "holiday", "resort", "backpack", "souvenir", "cruise",
        "temple", "roadtrip", "homestay",
    ],
    "news": [
        "headline", "report", "press", "statement", "breaking", "interview",
        "coverage", "editorial", "bulletin", "correspondent", "summit",
        "policy", "announcement", "briefing", "broadcast", "scandal",
        "investigation", "spokesperson", "dispatch", "feature",
    ],
}


class SyntheticError(ValueError):
    """Raised for invalid synthetic-corpus configurations."""


@dataclass(frozen=True, kw_only=True)
class SyntheticConfig:
    """Knobs of the planted COLD process.

    The defaults produce a small corpus suitable for unit tests; the
    :func:`dataset1` / :func:`dataset2` presets mirror (at laptop scale) the
    paper's two Weibo datasets.
    """

    num_users: int = 60
    num_communities: int = 4
    num_topics: int = 6
    num_time_slices: int = 24
    vocab_size: int = 400
    mean_posts_per_user: float = 8.0
    mean_words_per_post: float = 9.0
    mean_links_per_user: float = 5.0
    #: Dirichlet concentration of user memberships pi_i.  Small -> users
    #: concentrate on one or two communities (matches Fig 16's observation).
    membership_concentration: float = 0.15
    #: Dirichlet concentration of community interests theta_c.  Small ->
    #: each community has a few dominant topics plus a long tail.
    interest_concentration: float = 0.25
    #: Dirichlet concentration of topic-word distributions phi_k.
    word_concentration: float = 0.05
    #: Number of anchor words per topic boosted in phi_k (makes topics
    #: separable and word clouds readable).
    anchors_per_topic: int = 12
    #: Extra probability mass concentrated on the anchors.
    anchor_strength: float = 0.55
    #: Range of temporal bumps per (topic, community) pair: psi_kc is a
    #: mixture of 1..max_temporal_modes discretised Gaussians, yielding the
    #: multimodal dynamics §3.3 argues for.
    max_temporal_modes: int = 3
    #: Width of each temporal bump, as a fraction of the time span.
    temporal_width: float = 0.06
    #: Uniform smoothing mass of psi (keeps every slice reachable).
    temporal_floor: float = 0.05
    #: Within-community link probability scale (diagonal of eta).
    eta_within: float = 0.7
    #: Cross-community link probability scale (off-diagonal of eta).
    eta_between: float = 0.08
    #: Use the themed word banks for topic anchors (human-readable tokens).
    themed: bool = False
    seed: int = 0

    def validate(self) -> None:
        positive_ints = {
            "num_users": self.num_users,
            "num_communities": self.num_communities,
            "num_topics": self.num_topics,
            "num_time_slices": self.num_time_slices,
            "vocab_size": self.vocab_size,
        }
        for name, value in positive_ints.items():
            if value <= 0:
                raise SyntheticError(f"{name} must be positive, got {value}")
        if self.num_users < 2:
            raise SyntheticError("need at least 2 users to form links")
        if self.anchors_per_topic * self.num_topics > self.vocab_size:
            raise SyntheticError(
                "vocab_size too small for the requested anchors_per_topic"
            )
        for name in (
            "mean_posts_per_user",
            "mean_words_per_post",
            "membership_concentration",
            "interest_concentration",
            "word_concentration",
            "temporal_width",
        ):
            if getattr(self, name) <= 0:
                raise SyntheticError(f"{name} must be positive")
        if self.mean_links_per_user < 0:
            raise SyntheticError("mean_links_per_user must be >= 0")
        if not 0 < self.eta_within <= 1 or not 0 <= self.eta_between <= 1:
            raise SyntheticError("eta_within/eta_between must lie in (0, 1]")


@dataclass
class GroundTruth:
    """The planted parameters, in the paper's notation.

    All arrays are proper (rows sum to one where applicable):

    * ``pi``    — ``(U, C)`` user community memberships;
    * ``theta`` — ``(C, K)`` community topic interests;
    * ``phi``   — ``(K, V)`` topic word distributions;
    * ``psi``   — ``(K, C, T)`` community-specific temporal distributions;
    * ``eta``   — ``(C, C)`` inter-community link probabilities;
    * ``post_communities`` / ``post_topics`` — the latent ``c_ij`` / ``z_ij``
      actually drawn for each generated post (aligned with corpus.posts).
    """

    pi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    eta: np.ndarray
    post_communities: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    post_topics: np.ndarray = field(default_factory=lambda: np.zeros(0, int))

    @property
    def num_communities(self) -> int:
        return self.pi.shape[1]

    @property
    def num_topics(self) -> int:
        return self.theta.shape[1]

    def zeta(self) -> np.ndarray:
        """Planted topic-sensitive influence, Eq. (4): ``(K, C, C)``."""
        theta_k_c = self.theta.T  # (K, C)
        return theta_k_c[:, :, None] * theta_k_c[:, None, :] * self.eta[None, :, :]


def _sample_simplex(rng: np.random.Generator, concentration: float, shape: tuple[int, ...]) -> np.ndarray:
    """Rows of symmetric-Dirichlet draws with the trailing axis normalised."""
    draws = rng.gamma(concentration, 1.0, size=shape)
    draws = np.maximum(draws, 1e-12)
    return draws / draws.sum(axis=-1, keepdims=True)


def _plant_phi(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Topic-word distributions with disjoint boosted anchor blocks."""
    phi = _sample_simplex(
        rng, config.word_concentration, (config.num_topics, config.vocab_size)
    )
    anchors = config.anchors_per_topic
    for k in range(config.num_topics):
        block = slice(k * anchors, (k + 1) * anchors)
        boost = rng.dirichlet(np.full(anchors, 2.0)) * config.anchor_strength
        phi[k] *= 1.0 - config.anchor_strength
        phi[k, block] += boost
    return phi / phi.sum(axis=1, keepdims=True)


def _plant_psi(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Multimodal (topic, community)-specific temporal distributions."""
    T = config.num_time_slices
    grid = np.arange(T, dtype=np.float64)
    width = max(config.temporal_width * T, 0.5)
    psi = np.zeros((config.num_topics, config.num_communities, T))
    for k in range(config.num_topics):
        for c in range(config.num_communities):
            modes = rng.integers(1, config.max_temporal_modes + 1)
            density = np.zeros(T)
            for _ in range(modes):
                center = rng.uniform(0, T - 1)
                weight = rng.uniform(0.4, 1.0)
                density += weight * np.exp(-0.5 * ((grid - center) / width) ** 2)
            density += config.temporal_floor * density.max() + 1e-9
            psi[k, c] = density / density.sum()
    return psi


def _plant_eta(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Assortative block link probabilities with mild random variation."""
    C = config.num_communities
    eta = rng.uniform(0.5, 1.0, size=(C, C)) * config.eta_between
    diagonal = rng.uniform(0.8, 1.0, size=C) * config.eta_within
    np.fill_diagonal(eta, diagonal)
    return np.clip(eta, 1e-6, 1.0)


def plant_parameters(config: SyntheticConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw the planted parameters of the generative process."""
    pi = _sample_simplex(
        rng, config.membership_concentration, (config.num_users, config.num_communities)
    )
    theta = _sample_simplex(
        rng, config.interest_concentration, (config.num_communities, config.num_topics)
    )
    phi = _plant_phi(config, rng)
    psi = _plant_psi(config, rng)
    eta = _plant_eta(config, rng)
    return GroundTruth(pi=pi, theta=theta, phi=phi, psi=psi, eta=eta)


def _themed_vocabulary(config: SyntheticConfig) -> Vocabulary:
    """Vocabulary whose anchor ids carry thematic tokens, rest are generic."""
    tokens: list[str] = []
    themes = list(THEMED_WORDS)
    anchors = config.anchors_per_topic
    for k in range(config.num_topics):
        theme = themes[k % len(themes)]
        bank = THEMED_WORDS[theme]
        for a in range(anchors):
            word = bank[a % len(bank)]
            suffix = "" if a < len(bank) else f"_{a // len(bank)}"
            tokens.append(f"{word}{suffix}" if suffix else word)
    # De-duplicate across topics that share a theme.
    seen: dict[str, int] = {}
    for idx, token in enumerate(tokens):
        if token in seen:
            tokens[idx] = f"{token}_{idx}"
        seen[tokens[idx]] = idx
    for v in range(len(tokens), config.vocab_size):
        tokens.append(f"term{v:05d}")
    return Vocabulary(tokens).freeze()


def _generic_vocabulary(config: SyntheticConfig) -> Vocabulary:
    return Vocabulary(f"term{v:05d}" for v in range(config.vocab_size)).freeze()


def _choice_cdfs(p: np.ndarray) -> np.ndarray:
    """Row CDFs of the distributions along the last axis of ``p``.

    ``Generator.choice(n, size, p=row)`` re-validates ``row`` and rebuilds
    ``row.cumsum()`` on every call: a 2,000-entry cumsum for a 40-word
    post.  This runs the same checks (finite, non-negative, sums to one
    within ``sqrt(eps)``; ``ValueError`` otherwise) and the same
    arithmetic (cumsum, then divide by the last entry) once per table, so
    ``cdfs[row].searchsorted(rng.random(size), side="right")`` consumes
    the same uniforms and returns the same indices.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("probabilities contain non-finite values")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(p.sum(axis=-1) - 1.0) > np.sqrt(np.finfo(np.float64).eps)).any():
        raise ValueError("probabilities do not sum to 1")
    cdfs = p.cumsum(axis=-1)
    cdfs /= cdfs[..., -1:]
    return cdfs


def _target_cdfs(pi: np.ndarray) -> np.ndarray:
    """``(C, U)`` per-community target-user CDFs.

    A link into community ``c'`` picks its target user proportionally to
    ``pi_{.,c'}``, the column-normalised memberships.  As a table this is
    an O(log U) draw instead of a per-call O(U) cumsum per link, which
    would turn the link pass quadratic in users.
    """
    weights = np.ascontiguousarray(pi.T)
    weights /= pi.sum(axis=0)[:, None]
    return _choice_cdfs(weights)


def _planted_draws(
    config: SyntheticConfig, truth: GroundTruth, rng: np.random.Generator
):
    """Steps 3(b)-(c) of Algorithm 1: the one RNG call sequence of both generators.

    Yields every post as ``(user, t, words, c, k)`` in author order
    (``words`` an int64 array), then every link as ``(user, target)`` in
    sorted order.  Links are sparse: for each of user ``i``'s links draw a
    source community ``s ~ pi_i``, a destination community
    ``c' ~ eta_{s,.}`` (normalised), then a target user ``i' ~ pi_{.,c'}``
    (normalised over users), and drop self-links and repeats.  Every
    source is the current user, so each user's sorted link set, emitted
    in user order, is the globally sorted link list.
    """
    pi = _choice_cdfs(truth.pi)
    theta = _choice_cdfs(truth.theta)
    phi = _choice_cdfs(truth.phi)
    psi = _choice_cdfs(truth.psi)
    eta = _choice_cdfs(truth.eta / truth.eta.sum(axis=1, keepdims=True))
    for user in range(config.num_users):
        num_posts = max(1, int(rng.poisson(config.mean_posts_per_user)))
        for c in pi[user].searchsorted(rng.random(num_posts), side="right").tolist():
            k = int(theta[c].searchsorted(rng.random(), side="right"))
            length = max(1, int(rng.poisson(config.mean_words_per_post)))
            words = phi[k].searchsorted(rng.random(length), side="right")
            t = int(psi[k, c].searchsorted(rng.random(), side="right"))
            yield user, t, words, c, k
    # Built after the posts pass, so this (C, U) table never coexists
    # with the packed writer's chunk buffers.
    targets = _target_cdfs(truth.pi)
    for user in range(config.num_users):
        user_targets: set[int] = set()
        for _ in range(int(rng.poisson(config.mean_links_per_user))):
            s = pi[user].searchsorted(rng.random(), side="right")
            c_dst = eta[s].searchsorted(rng.random(), side="right")
            target = int(targets[c_dst].searchsorted(rng.random(), side="right"))
            if target != user:
                user_targets.add(target)
        for target in sorted(user_targets):
            yield user, target


def _plant_world(
    config: SyntheticConfig | None, seed: int | None
) -> tuple[SyntheticConfig, GroundTruth, np.random.Generator, Vocabulary]:
    """Validated config, planted parameters, the live RNG and the vocabulary."""
    config = config or SyntheticConfig()
    config.validate()
    if seed is not None:
        config = replace(config, seed=seed)
    rng = np.random.default_rng(config.seed)
    truth = plant_parameters(config, rng)
    vocabulary = (
        _themed_vocabulary(config) if config.themed else _generic_vocabulary(config)
    )
    return config, truth, rng, vocabulary


def generate_corpus(
    config: SyntheticConfig | None = None, seed: int | None = None
) -> tuple[SocialCorpus, GroundTruth]:
    """Generate a corpus and its planted ground truth.

    ``seed`` overrides ``config.seed`` when given, which keeps call sites
    that sweep seeds readable.
    """
    config, truth, rng, vocabulary = _plant_world(config, seed)
    posts: list[Post] = []
    links: list[tuple[int, int]] = []
    communities: list[int] = []
    topics: list[int] = []
    # One shared int object per word id: posts hold no per-token ints.
    word_ids = np.arange(config.vocab_size).astype(object)
    for draw in _planted_draws(config, truth, rng):
        if len(draw) == 2:
            links.append(draw)
            continue
        user, t, words, c, k = draw
        posts.append(Post(user, tuple(word_ids[words].tolist()), t))
        communities.append(c)
        topics.append(k)
    corpus = SocialCorpus(
        num_users=config.num_users,
        num_time_slices=config.num_time_slices,
        posts=posts,
        links=links,
        vocabulary=vocabulary,
    )
    truth.post_communities = np.asarray(communities)
    truth.post_topics = np.asarray(topics)
    return corpus, truth


def generate_packed_corpus(
    config: SyntheticConfig | None = None,
    path: str | Path = "corpus.coldpack",
    seed: int | None = None,
    chunk_tokens: int = 1 << 20,
    keep_latents: bool = False,
) -> tuple[PackedCorpus, GroundTruth]:
    """Stream the planted COLD process to a ``.coldpack`` file.

    Consumes the same draw loop as :func:`generate_corpus`, but streams
    every post to a :class:`~repro.datasets.packed.PackedCorpusWriter` in
    ``chunk_tokens``-sized flushes instead of materialising ``Post``
    objects.  Peak RSS is therefore bounded by the planted parameter
    tensors plus their CDF tables of the same shapes (O(users x
    communities + topics x vocabulary)), however many tokens are
    generated.  At equal seed the corpus is bit-identical to the in-RAM
    path: same posts, same links, same vocabulary.

    ``keep_latents=True`` records the drawn per-post community/topic
    latents on the returned :class:`GroundTruth` (two O(posts) arrays —
    leave it off at million-user scale).
    """
    config, truth, rng, vocabulary = _plant_world(config, seed)
    communities: list[int] = []
    topics: list[int] = []
    writer = PackedCorpusWriter(
        path,
        num_users=config.num_users,
        num_time_slices=config.num_time_slices,
        vocab_size=config.vocab_size,
        vocabulary=vocabulary,
        chunk_tokens=chunk_tokens,
    )
    try:
        for draw in _planted_draws(config, truth, rng):
            if len(draw) == 2:
                writer.add_link(*draw)
                continue
            user, t, words, c, k = draw
            writer.add_post(user, t, words)
            if keep_latents:
                communities.append(c)
                topics.append(k)
        packed_path = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    if keep_latents:
        truth.post_communities = np.asarray(communities)
        truth.post_topics = np.asarray(topics)
    return PackedCorpus.open(packed_path), truth


def dataset1(scale: float = 1.0, seed: int = 11) -> tuple[SocialCorpus, GroundTruth]:
    """Laptop-scale analogue of the paper's Weibo dataset 1.

    The paper's dataset 1 has 53K users / 11M posts / 2.7M links over a
    three-month hourly grid.  We keep the *ratios* (about 200 posts and 50
    links per user, short posts) at ``scale``-adjustable laptop size.
    """
    config = SyntheticConfig(
        num_users=max(20, int(120 * scale)),
        num_communities=6,
        num_topics=10,
        num_time_slices=48,
        vocab_size=600,
        mean_posts_per_user=12.0,
        mean_words_per_post=8.0,
        mean_links_per_user=6.0,
        themed=True,
        seed=seed,
    )
    return generate_corpus(config)


def benchmark_world(
    seed: int = 3, **overrides: object
) -> tuple[SocialCorpus, GroundTruth]:
    """The calibrated evaluation world used by the benchmark suite.

    Chosen (see EXPERIMENTS.md) so that every signal the paper relies on is
    present and the method ordering is identifiable at laptop scale: sharp
    overlapping memberships, separable topics over a sparse vocabulary,
    multimodal community-specific dynamics, and an assortative network.
    """
    config = SyntheticConfig(
        num_users=100,
        num_communities=4,
        num_topics=8,
        num_time_slices=24,
        vocab_size=4000,
        anchors_per_topic=120,
        anchor_strength=0.75,
        mean_posts_per_user=25.0,
        mean_words_per_post=8.0,
        mean_links_per_user=12.0,
        membership_concentration=0.08,
        interest_concentration=0.2,
        seed=seed,
    )
    if overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    return generate_corpus(config)


def dataset2(scale: float = 1.0, seed: int = 23) -> tuple[SocialCorpus, GroundTruth]:
    """Laptop-scale analogue of the paper's (larger, sparser) dataset 2."""
    config = SyntheticConfig(
        num_users=max(40, int(400 * scale)),
        num_communities=8,
        num_topics=12,
        num_time_slices=48,
        vocab_size=900,
        mean_posts_per_user=5.0,
        mean_words_per_post=8.0,
        mean_links_per_user=4.0,
        themed=False,
        seed=seed,
    )
    return generate_corpus(config)
