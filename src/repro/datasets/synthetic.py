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

Draw note: one loop, :func:`_planted_draws`, defines the whole RNG call
sequence.  Every categorical draw looks up a CDF table built once per
world (:func:`_choice_cdfs`), drawing exactly what ``Generator.choice``
would from the same uniforms without rebuilding the CDF per call.  The
tables have the shapes of the planted tensors.  Both generators consume
:func:`_planted_columns`, which runs that loop natively
(``core/_planted.c``, stepping numpy's PCG64 in C) and hands back
columns: :func:`generate_corpus` draws the whole world's posts in one
call and keeps its columns, :func:`generate_packed_corpus` draws them
in chunks of one writer flush.  A word's draw searches only one bucket
of its phi row, through a guide table built once per world.  The
planted psi's draws run natively too (``cold_psi_draws``), with numpy
computing its densities.  The Python loops (:func:`_planted_draws`,
:func:`_plant_psi_loop`) stay as the oracles the native draws are
tested against and as the fallback without a C compiler: same draws,
same generator state after.  The vocabulary depends only on its shape
and is built once per shape (:func:`_world_vocabulary`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import SocialCorpus
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
        if self.max_temporal_modes < 1:
            raise SyntheticError(
                f"max_temporal_modes must be at least 1, got {self.max_temporal_modes}"
            )
        if not self.temporal_floor >= 0:
            raise SyntheticError(
                f"temporal_floor must be >= 0, got {self.temporal_floor}"
            )
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
    np.maximum(draws, 1e-12, out=draws)
    draws /= draws.sum(axis=-1, keepdims=True)
    return draws


def _plant_phi(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Topic-word distributions with disjoint boosted anchor blocks."""
    phi = _sample_simplex(
        rng, config.word_concentration, (config.num_topics, config.vocab_size)
    )
    K, anchors = config.num_topics, config.anchors_per_topic
    # One Dirichlet call for every topic's anchor boost: the same rows,
    # and the same generator state after, as one call per topic.
    boosts = rng.dirichlet(np.full(anchors, 2.0), size=K) * config.anchor_strength
    phi *= 1.0 - config.anchor_strength
    # Topic k's anchors are the block of columns [k * anchors, (k + 1) * anchors).
    phi[np.arange(K).repeat(anchors), np.arange(K * anchors)] += boosts.ravel()
    phi /= phi.sum(axis=1, keepdims=True)
    return phi


def _plant_psi(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Multimodal (topic, community)-specific temporal distributions.

    Each cell, topic-major, draws ``rng.integers(1, max_temporal_modes +
    1)`` Gaussian bumps, each a centre ``uniform(0, T - 1)`` and a weight
    ``uniform(0.4, 1.0)``; the bumps are summed, floored at
    ``temporal_floor`` of the peak and normalised.  The native
    ``cold_psi_draws`` replays those RNG calls when the library loads and
    ``rng`` is a ``PCG64`` generator; the densities are numpy's, one
    vectorised pass per mode slot over every cell, each element the
    reference's formula (a slot past a cell's modes has weight 0 and adds
    +0.0).  Either way psi and the generator's state afterwards are the
    reference loop's (:func:`_plant_psi_loop`), its oracle and fallback.
    """
    # Imported here: repro.core imports this package while it initialises.
    from ..core.fastgibbs import native_kernel, pcg64_words

    K, C, T = config.num_topics, config.num_communities, config.num_time_slices
    M = config.max_temporal_modes
    lib = native_kernel()
    bitgen = rng.bit_generator
    if lib is None or type(bitgen) is not np.random.PCG64 or not 1 <= M < 1 << 32:
        return _plant_psi_loop(config, rng)
    centres, weights = np.empty((2, K * C, M))
    with pcg64_words(bitgen) as state:
        lib.cold_psi_draws(
            K * C, M, float(T - 1), state.ctypes.data,
            centres.ctypes.data, weights.ctypes.data,
        )
    grid = np.arange(T, dtype=np.float64)
    width = max(config.temporal_width * T, 0.5)
    density = np.zeros((K * C, T))
    for mode in range(M):
        density += weights[:, mode, None] * np.exp(
            -0.5 * ((grid - centres[:, mode, None]) / width) ** 2
        )
    density += (config.temporal_floor * density.max(axis=1) + 1e-9)[:, None]
    density /= density.sum(axis=1, keepdims=True)
    return density.reshape(K, C, T)


def _plant_psi_loop(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """:func:`_plant_psi`'s reference: one cell at a time, scalar draws."""
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


def _world_vocabulary(config: SyntheticConfig) -> Vocabulary:
    """The world's frozen vocabulary: generic ``termNNNNN`` tokens, or
    themed anchor tokens followed by generic ones.

    It depends only on the vocabulary's shape, so each shape's is built
    once and shared by every world of that shape (a small bounded cache).
    """
    if config.themed:
        return _themed_vocabulary(
            config.num_topics, config.anchors_per_topic, config.vocab_size
        )
    return _generic_vocabulary(config.vocab_size)


@lru_cache(maxsize=4)
def _themed_vocabulary(num_topics: int, anchors: int, vocab_size: int) -> Vocabulary:
    """Anchor ids carry thematic tokens (topic ``k`` takes theme ``k``
    modulo the banks, and a bank's ``r``-th reuse of a word gets suffix
    ``_r``); the rest are generic.  A token that repeats an earlier one
    (topics sharing a theme) gets its id as a suffix."""
    themes = list(THEMED_WORDS.values())
    tokens: list[str] = []
    seen: set[str] = set()
    for k in range(num_topics):
        bank = themes[k % len(themes)]
        for a in range(anchors):
            token = bank[a % len(bank)]
            if a >= len(bank):
                token = "%s_%d" % (token, a // len(bank))
            if token in seen:
                token = "%s_%d" % (token, len(tokens))
            seen.add(token)
            tokens.append(token)
    tokens += map("term%05d".__mod__, range(len(tokens), vocab_size))
    return Vocabulary(tokens).freeze()


@lru_cache(maxsize=4)
def _generic_vocabulary(vocab_size: int) -> Vocabulary:
    return Vocabulary(map("term%05d".__mod__, range(vocab_size))).freeze()


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
    """Steps 3(b)-(c) of Algorithm 1: the reference RNG call sequence.

    Yields every post as ``(user, t, words, c, k)`` in author order
    (``words`` an int64 array), then every link as ``(user, target)`` in
    sorted order.  Links are sparse: for each of user ``i``'s links draw a
    source community ``s ~ pi_i``, a destination community
    ``c' ~ eta_{s,.}`` (normalised), then a target user ``i' ~ pi_{.,c'}``
    (normalised over users), and drop self-links and repeats.  Every
    source is the current user, so each user's sorted link set, emitted
    in user order, is the globally sorted link list.  This loop is the
    oracle of the native draws and, through :func:`_planted_columns`,
    their fallback.
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


#: Default column capacities of one native call (and draws per
#: reference chunk): posts, words, links.  They bound the columns alive
#: at once; a user who alone overflows one doubles it.
_CHUNK_POSTS, _CHUNK_WORDS, _CHUNK_LINKS = 1 << 10, 1 << 14, 1 << 12


def _at_least_one_mean(mean: float) -> float:
    """The mean of ``max(1, Poisson(mean))``: a user's posts, a post's words."""
    return mean + math.exp(-mean)


def _world_capacity(config: SyntheticConfig) -> tuple[int, int, int]:
    """Posts, words and links capacities that hold the whole world in one
    native call, unless its totals land over four standard deviations
    above their means (the words' total compounds the posts').

    Untouched capacity is never resident, and the columns are shrunk to
    their exact sizes after the call.
    """
    words_each = _at_least_one_mean(config.mean_words_per_post)
    posts = config.num_users * _at_least_one_mean(config.mean_posts_per_user)
    links = config.num_users * config.mean_links_per_user
    return tuple(
        int(mean + 4.0 * math.sqrt(variance)) + 64
        for mean, variance in (
            (posts, posts),
            (posts * words_each, posts * words_each * (1.0 + words_each)),
            (links, links),
        )
    )


class _PostColumns(NamedTuple):
    """One chunk of the posts pass: per-post columns, then the flat words."""

    authors: np.ndarray
    times: np.ndarray
    communities: np.ndarray
    topics: np.ndarray
    lengths: np.ndarray
    words: np.ndarray


def _planted_columns(
    config: SyntheticConfig,
    truth: GroundTruth,
    rng: np.random.Generator,
    capacity: tuple[int, int, int] | None = None,
):
    """:func:`_planted_draws` as columns: the draws both generators consume.

    Yields :class:`_PostColumns` chunks in author order, then ``(E, 2)``
    int64 link arrays in sorted order.  The native kernels
    (``cold_planted_posts`` / ``cold_planted_links``) draw them when the
    library loads and ``rng`` is a ``PCG64`` generator: each call draws
    into fresh columns of ``capacity`` (posts, words, links; default the
    ``_CHUNK_*`` constants), and a chunk owns its post columns, shrunk
    in place to their sizes.  Otherwise the reference loop's draws are
    regrouped.  Natively, each phi row gets a
    guide table (``cold_guide_table``, ``(K, m + 1)`` int64 for the
    smallest power of two ``m >= V``, alive only for the posts pass):
    entry ``j`` counts the row's CDF entries ``<= j / m``, so a word's
    uniform ``u`` searches only bucket ``floor(u * m)`` and finds the
    full row's right ``searchsorted``.  Either way the values and the
    generator's state afterwards are the reference loop's, and a bad
    planted tensor raises ``ValueError`` before any draw.
    """
    # Imported here: repro.core imports this package while it initialises.
    from ..core.fastgibbs import _address, native_kernel, pcg64_words

    lib = native_kernel()
    bitgen = rng.bit_generator
    if lib is None or type(bitgen) is not np.random.PCG64:
        draws = _planted_draws(config, truth, rng)
        while chunk := list(islice(draws, _CHUNK_POSTS)):
            posts = [draw for draw in chunk if len(draw) == 5]
            if posts:
                users, times, words, communities, topics = zip(*posts)
                yield _PostColumns(
                    *(np.array(column, np.int64)
                      for column in (users, times, communities, topics)),
                    np.array([len(w) for w in words], np.int64),
                    np.concatenate(words),
                )
            links = [draw for draw in chunk if len(draw) == 2]
            if links:
                yield np.array(links, np.int64)
        return
    pi = _choice_cdfs(truth.pi)
    theta = _choice_cdfs(truth.theta)
    phi = _choice_cdfs(truth.phi)
    psi = _choice_cdfs(truth.psi)
    eta = _choice_cdfs(truth.eta / truth.eta.sum(axis=1, keepdims=True))
    C, K, U, V = (
        config.num_communities, config.num_topics, config.num_users,
        config.vocab_size,
    )
    # phi's guide table: m buckets, the smallest power of two >= V.
    m = 1 << (V - 1).bit_length()
    guide = np.empty((K, m + 1), np.int64)
    lib.cold_guide_table(_address(phi, np.float64), K, V, m, guide.ctypes.data)
    filled = np.zeros(2, np.int64)
    post_cap, word_cap, link_cap = capacity or (
        _CHUNK_POSTS, _CHUNK_WORDS, _CHUNK_LINKS
    )
    user = 0
    while user < U:
        columns = [np.empty(post_cap, np.int64) for _ in range(5)]
        words = np.empty(word_cap, np.int64)
        with pcg64_words(bitgen) as state:
            done = lib.cold_planted_posts(
                *(_address(table, np.float64) for table in (pi, theta, phi, psi)),
                guide.ctypes.data, m, C, K, V, config.num_time_slices,
                config.mean_posts_per_user, config.mean_words_per_post,
                user, U, state.ctypes.data,
                *(column.ctypes.data for column in columns), post_cap,
                words.ctypes.data, word_cap, filled.ctypes.data,
            )
        if done == user:
            post_cap, word_cap = 2 * post_cap, 2 * word_cap
            continue
        user = done
        posts, tokens = filled.tolist()
        # realloc, mostly in place: no view of these buffers exists yet.
        for column in columns:
            column.resize(posts, refcheck=False)
        words.resize(tokens, refcheck=False)
        yield _PostColumns(*columns, words)
    del guide
    # Built after the posts pass, as in the reference loop.
    targets = _target_cdfs(truth.pi)
    user = 0
    while user < U:
        ends = np.empty((2, link_cap), np.int64)
        with pcg64_words(bitgen) as state:
            done = lib.cold_planted_links(
                *(_address(table, np.float64) for table in (pi, eta, targets)),
                C, U, config.mean_links_per_user, user, U, state.ctypes.data,
                ends[0].ctypes.data, ends[1].ctypes.data, link_cap,
                filled.ctypes.data,
            )
        if done == user:
            link_cap *= 2
            continue
        user = done
        if filled[0]:
            yield ends[:, : filled[0]].T.copy()


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
    return config, truth, rng, _world_vocabulary(config)


def generate_corpus(
    config: SyntheticConfig | None = None, seed: int | None = None
) -> tuple[SocialCorpus, GroundTruth]:
    """Generate a corpus and its planted ground truth.

    The draw columns go straight into :meth:`SocialCorpus.from_columns`:
    no ``Post`` object is built.  Natively the posts are drawn in one
    call sized to the whole world (:func:`_world_capacity`), whose
    columns the corpus keeps as they are; only a world past that size
    is drawn in chunks and concatenated.  ``seed`` overrides
    ``config.seed`` when given, which keeps call sites that sweep seeds
    readable.
    """
    config, truth, rng, vocabulary = _plant_world(config, seed)
    chunks: list[_PostColumns] = []
    links: list[np.ndarray] = [np.zeros((0, 2), np.int64)]
    for chunk in _planted_columns(config, truth, rng, _world_capacity(config)):
        (links if isinstance(chunk, np.ndarray) else chunks).append(chunk)
    if len(chunks) == 1:
        columns = chunks[0]
    else:
        columns = _PostColumns(*map(np.concatenate, zip(*chunks)))
    del chunks  # the chunk buffers go before the corpus is checked
    corpus = SocialCorpus.from_columns(
        config.num_users,
        config.num_time_slices,
        columns.authors,
        columns.times,
        columns.lengths,
        columns.words,
        np.concatenate(links),
        vocabulary=vocabulary,
    )
    truth.post_communities = columns.communities
    truth.post_topics = columns.topics
    return corpus, truth


def generate_packed_corpus(
    config: SyntheticConfig | None = None,
    path: str | Path = "corpus.coldpack",
    seed: int | None = None,
    chunk_tokens: int = 1 << 16,
    keep_latents: bool = False,
) -> tuple[PackedCorpus, GroundTruth]:
    """Stream the planted COLD process to a ``.coldpack`` file.

    Consumes the same draw columns as :func:`generate_corpus`, but hands
    each chunk of post columns and each link array straight to a
    :class:`~repro.datasets.packed.PackedCorpusWriter` (spooled in
    ``chunk_tokens``-sized flushes) instead of keeping the columns in
    RAM: no Python runs per post.  A native call draws at most
    ``chunk_tokens`` words (a user who alone draws more doubles it) and
    ``chunk_tokens / 2`` links, one writer flush's worth.  Peak RSS is
    therefore bounded by the planted parameter tensors plus their CDF
    tables of the same shapes (O(users x communities + topics x
    vocabulary)), one drawn chunk, and the writer's buffer, which holds
    under ``2 * chunk_tokens`` tokens before it flushes, however many
    tokens are generated.  At equal seed the corpus is bit-identical to
    the in-RAM path: same posts, same links, same vocabulary.

    ``keep_latents=True`` records the drawn per-post community/topic
    latents on the returned :class:`GroundTruth` (two O(posts) arrays —
    leave it off at million-user scale).
    """
    config, truth, rng, vocabulary = _plant_world(config, seed)
    communities: list[np.ndarray] = []
    topics: list[np.ndarray] = []
    writer = PackedCorpusWriter(
        path,
        num_users=config.num_users,
        num_time_slices=config.num_time_slices,
        vocab_size=config.vocab_size,
        vocabulary=vocabulary,
        chunk_tokens=chunk_tokens,
    )
    try:
        # Room for twice the posts that many words hold on average.
        words_each = _at_least_one_mean(config.mean_words_per_post)
        posts = min(chunk_tokens, int(2 * chunk_tokens / words_each) + 64)
        capacity = (posts, chunk_tokens, max(1, chunk_tokens // 2))
        for chunk in _planted_columns(config, truth, rng, capacity):
            if isinstance(chunk, np.ndarray):
                writer.add_links(chunk)
                continue
            writer.add_post_columns(
                chunk.authors, chunk.times, chunk.lengths, chunk.words
            )
            if keep_latents:
                communities.append(chunk.communities)
                topics.append(chunk.topics)
        packed_path = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    if keep_latents:
        truth.post_communities = np.concatenate(communities)
        truth.post_topics = np.concatenate(topics)
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
