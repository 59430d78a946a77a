"""Influential community identification via Independent Cascade (§6.6, Fig 16).

The paper measures each community's influence degree by seeding it alone and
running the Independent Cascade (IC) model [Goldenberg et al. 2001] on the
extracted community-level diffusion graph (edge probabilities ``zeta_kcc'``
for the topic of interest).  User influence combines the user's memberships
with community influence, and Figure 16's pentagon layout embeds users as
``pi``-weighted convex combinations of the top-4 communities plus an
aggregated "other communities" corner.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .diffusion import zeta_for_topic
from .estimates import ParameterEstimates


class InfluenceError(ValueError):
    """Raised for invalid influence computations."""


def _seed_sets(
    probabilities: np.ndarray, seeds: list[int] | np.ndarray | None
) -> np.ndarray:
    """Validate the IC inputs; returns seed-set mask rows (``None``: each node)."""
    n = probabilities.shape[0]
    if probabilities.shape != (n, n):
        raise InfluenceError("probability matrix must be square")
    if ((probabilities < 0) | (probabilities > 1)).any():
        raise InfluenceError("activation probabilities must lie in [0, 1]")
    if seeds is None:
        return np.eye(n, dtype=bool)
    seed_idx = np.asarray(seeds, dtype=np.int64).reshape(-1)
    bad = seed_idx[(seed_idx < 0) | (seed_idx >= n)]
    if bad.size:
        raise InfluenceError(f"seed {int(bad[0])} out of range [0, {n})")
    return np.bincount(seed_idx, minlength=n)[None] > 0


# Uniform doubles drawn per block: caps a level's transient memory at
# O(block + n^2) for any number of realisations.
_DRAW_BLOCK = 1 << 14


def _batched_cascade(
    probabilities: np.ndarray, active: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Run the IC realisations in the rows of ``active`` to completion, in place.

    ``active`` is ``(R, n)`` boolean, one realisation per row, seeded.  All
    rows advance level by level: each level draws one uniform per (frontier
    entry, target) in row-major blocks of about ``_DRAW_BLOCK`` doubles and
    ORs each row's fired edges, so every edge out of a newly active node is
    tried exactly once, as in the scalar per-edge loop.
    """
    n = active.shape[1]
    step = max(1, _DRAW_BLOCK // n)
    frontier = active.copy()
    while True:
        counts = np.count_nonzero(frontier, axis=1)
        rows = np.flatnonzero(counts)
        if not rows.size:
            return active
        # Split the frontier rows into blocks of about ``step`` entries.
        ends = np.cumsum(counts[rows])
        starts = np.searchsorted(ends, np.arange(0, ends[-1], step), "right")
        for block in np.split(rows, np.unique(starts)[1:]):
            owner, nodes = np.nonzero(frontier[block])
            flips = rng.random((nodes.size, n)) < probabilities[nodes]
            heads = np.flatnonzero(np.diff(owner, prepend=-1))
            fired = np.logical_or.reduceat(flips, heads, axis=0) & ~active[block]
            active[block] |= fired
            frontier[block] = fired


def _mean_spreads(
    probabilities: np.ndarray,
    seeds: list[int] | np.ndarray | None,
    num_simulations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean IC spread of each seed set of :func:`_seed_sets`.

    All realisations run in one batched cascade: row ``g * num_simulations
    + s`` is simulation ``s`` of seed set ``g``.
    """
    if num_simulations <= 0:
        raise InfluenceError("num_simulations must be positive")
    sets = _seed_sets(probabilities, seeds)
    active = np.repeat(sets, num_simulations, axis=0)
    _batched_cascade(probabilities, active, rng)
    return np.count_nonzero(active.reshape(len(sets), -1), axis=1) / num_simulations


def independent_cascade(
    probabilities: np.ndarray,
    seeds: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One IC realisation on a directed graph of activation probabilities.

    ``probabilities[u, v]`` is the chance that newly-activated ``u``
    activates ``v`` (each edge fires at most once).  Returns the boolean
    activation vector.

    .. note:: RNG stream (changed again when realisations were batched)

       Every caller runs all its realisations as the rows of one batched
       cascade: each BFS level draws, in row-major blocks of about 2^14
       doubles, one ``n``-vector of uniforms per (realisation, node)
       frontier entry.  Earlier versions looped per realisation (and before
       that per node), so a fixed seed now yields *different*, equally
       valid, realisations; the spread distribution is unchanged.
    """
    return _batched_cascade(probabilities, _seed_sets(probabilities, seeds), rng)[0]


def expected_spread(
    probabilities: np.ndarray,
    seeds: list[int] | np.ndarray,
    num_simulations: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of IC expected spread from ``seeds``.

    Shares :func:`independent_cascade`'s RNG stream — see its note.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    return float(_mean_spreads(probabilities, seeds, num_simulations, rng)[0])


@dataclass
class CommunityInfluence:
    """Per-community influence degrees at one topic (§6.6).

    ``degree[c]`` is the expected IC spread when community ``c`` alone is
    the seed set, on the ``zeta``-weighted community diffusion graph.
    """

    topic: int
    degree: np.ndarray

    def ranking(self) -> np.ndarray:
        """Communities ordered by decreasing influence."""
        return np.argsort(self.degree)[::-1]

    def top(self, size: int = 4) -> list[int]:
        """The ``size`` most influential communities."""
        if size <= 0:
            raise InfluenceError("size must be positive")
        return [int(c) for c in self.ranking()[:size]]


def _activation_matrix(estimates: ParameterEstimates, topic: int) -> np.ndarray:
    """Zeta rescaled into usable IC activation probabilities.

    Raw ``zeta`` values are products of three probabilities and hence tiny;
    IC on raw values would activate nothing.  We rescale by the maximum
    off-diagonal entry so the strongest inter-community edge fires with
    probability ~0.9, preserving the *relative* influence structure that
    the ranking depends on.
    """
    influence = zeta_for_topic(estimates, topic).copy()
    np.fill_diagonal(influence, 0.0)
    peak = influence.max()
    if peak <= 0:
        return influence
    return np.clip(influence * (0.9 / peak), 0.0, 1.0)


def community_influence(
    estimates: ParameterEstimates,
    topic: int,
    num_simulations: int = 200,
    seed: int = 0,
) -> CommunityInfluence:
    """Influence degree of every community at ``topic`` via single-seed IC."""
    probabilities = _activation_matrix(estimates, topic)
    rng = np.random.default_rng(seed)
    degree = _mean_spreads(probabilities, None, num_simulations, rng)
    return CommunityInfluence(topic=topic, degree=degree)


def user_influence(
    estimates: ParameterEstimates, influence: CommunityInfluence
) -> np.ndarray:
    """Per-user influence: memberships weighted by community influence.

    ``score_i = sum_c pi_ic * degree_c`` — the point sizes of Figure 16.
    """
    if len(influence.degree) != estimates.num_communities:
        raise InfluenceError("community influence size mismatch")
    return estimates.pi @ influence.degree


def top_influential_users(
    estimates: ParameterEstimates,
    influence: CommunityInfluence,
    size: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``size`` most influential users and their scores, best first.

    The batched serving entry point behind influential-community queries:
    one :func:`user_influence` matrix-vector product scores every user,
    and an ``argpartition`` keeps the cost ``O(U + size log size)`` —
    no per-user Python work, so a query over a million users stays a few
    milliseconds.
    """
    if size <= 0:
        raise InfluenceError("size must be positive")
    scores = user_influence(estimates, influence)
    size = min(size, len(scores))
    top = np.argpartition(scores, -size)[-size:]
    order = np.argsort(scores[top])[::-1]
    top = top[order]
    return top, scores[top]


def greedy_seed_selection(
    probabilities: np.ndarray,
    num_seeds: int,
    num_simulations: int = 200,
    seed: int = 0,
) -> tuple[list[int], list[float]]:
    """Greedy influence maximisation under IC [Kempe et al. 2003].

    Iteratively adds the node with the largest marginal expected-spread
    gain, with CELF-style lazy re-evaluation: stale gains are only
    recomputed when a candidate reaches the top of the queue, exploiting
    the submodularity of IC spread.  Greedy guarantees a (1 - 1/e)
    approximation of the optimal seed set.

    Returns ``(seeds, spreads)`` where ``spreads[j]`` is the expected
    spread of the first ``j + 1`` seeds.  The paper's §6.6 uses single-seed
    influence degrees; this is the natural multi-seed extension for viral
    marketing campaigns.
    """
    n = probabilities.shape[0]
    if not 0 < num_seeds <= n:
        raise InfluenceError(f"num_seeds must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    seeds: list[int] = []
    spreads: list[float] = []
    current_spread = 0.0
    # Lazy queue: (negative gain, node, round the gain was computed in); the
    # first round's gains are every single-seed spread, in one batched call.
    gains = _mean_spreads(probabilities, None, num_simulations, rng)
    queue = [(-float(gain), node, 0) for node, gain in enumerate(gains)]
    heapq.heapify(queue)

    for round_index in range(1, num_seeds + 1):
        while True:
            negative_gain, node, computed_round = heapq.heappop(queue)
            if computed_round == round_index:
                break
            fresh = expected_spread(probabilities, [*seeds, node], num_simulations, rng)
            heapq.heappush(queue, (current_spread - fresh, node, round_index))
        seeds.append(node)
        current_spread += -negative_gain
        spreads.append(current_spread)
    return seeds, spreads


@dataclass
class PentagonEmbedding:
    """The Figure-16 layout: users embedded in a pentagon.

    Corners 0..3 are the top-4 influential communities; corner 4 aggregates
    every other community.  ``positions[i]`` is user ``i``'s 2-D point (the
    ``pi``-weighted convex combination of corner coordinates) and
    ``weights[i]`` the 5-dimensional membership profile it came from.
    """

    topic: int
    corner_communities: list[int]
    corners: np.ndarray  # (5, 2)
    positions: np.ndarray  # (U, 2)
    weights: np.ndarray  # (U, 5)
    user_scores: np.ndarray  # (U,)

    def dominant_corner(self) -> np.ndarray:
        """Per user, the corner holding most of their membership mass."""
        return self.weights.argmax(axis=1)


def pentagon_embedding(
    estimates: ParameterEstimates,
    influence: CommunityInfluence,
    top_users: int | None = None,
) -> PentagonEmbedding:
    """Embed users as in Figure 16 for the influence analysis topic.

    ``top_users`` keeps only the most influential users (the paper displays
    the top 20K); ``None`` keeps everyone.
    """
    num_corners = min(4, estimates.num_communities)
    top4 = influence.top(num_corners)
    others = [c for c in range(estimates.num_communities) if c not in top4]
    angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5  # corner 0 at the top
    corners = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    weights = np.zeros((estimates.num_users, 5))
    weights[:, :num_corners] = estimates.pi[:, top4]
    weights[:, 4] = estimates.pi[:, others].sum(axis=1) if others else 0.0
    weights = weights / np.maximum(weights.sum(axis=1, keepdims=True), 1e-300)
    positions = weights @ corners
    scores = user_influence(estimates, influence)

    if top_users is not None and top_users < estimates.num_users:
        keep = np.argsort(scores)[::-1][:top_users]
        keep.sort()
        positions = positions[keep]
        weights = weights[keep]
        scores = scores[keep]

    return PentagonEmbedding(
        topic=influence.topic,
        corner_communities=top4,
        corners=corners,
        positions=positions,
        weights=weights,
        user_scores=scores,
    )
