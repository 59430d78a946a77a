"""Unit tests for repro.core.influence (§6.6, Independent Cascade, Fig. 16)."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimates import ParameterEstimates
from repro.core.influence import (
    CommunityInfluence,
    InfluenceError,
    _activation_matrix,
    community_influence,
    expected_spread,
    independent_cascade,
    pentagon_embedding,
    user_influence,
)


def exact_spread(probs: np.ndarray, seeds: list[int]) -> tuple[float, float]:
    """Exact mean and variance of the IC spread from ``seeds``.

    IC is reachability from the seeds in the random live-edge graph, where
    each edge is live independently with its probability, so enumerating
    every live-edge subgraph weighted by its probability gives the exact
    spread distribution.
    """
    n = len(probs)
    edges = [(u, v) for u in range(n) for v in range(n) if probs[u, v] > 0]
    mean = second = 0.0
    for live in itertools.product((False, True), repeat=len(edges)):
        weight = np.prod(
            [probs[e] if on else 1.0 - probs[e] for e, on in zip(edges, live)]
        )
        reached, stack = set(seeds), list(seeds)
        while stack:
            u = stack.pop()
            for (a, b), on in zip(edges, live):
                if on and a == u and b not in reached:
                    reached.add(b)
                    stack.append(b)
        mean += weight * len(reached)
        second += weight * len(reached) ** 2
    return mean, second - mean**2


#: A 4-node graph with mixed edge probabilities, a cycle and a sure edge.
MIXED_GRAPH = np.array(
    [
        [0.0, 0.5, 0.3, 0.0],
        [0.0, 0.0, 0.8, 0.2],
        [0.4, 0.0, 0.0, 1.0],
        [0.0, 0.1, 0.0, 0.0],
    ]
)


def assert_close_to_exact(estimate, probs, seeds, num_simulations):
    """Within four Monte-Carlo standard errors of the exact expectation."""
    mean, variance = exact_spread(probs, seeds)
    assert abs(estimate - mean) <= 4 * np.sqrt(variance / num_simulations) + 1e-12


@st.composite
def cascade_inputs(draw):
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)
    probs = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return probs.reshape(n, n), seeds, draw(st.integers(0, 2**32 - 1))


class TestIndependentCascade:
    def test_seeds_always_active(self, rng):
        probs = np.zeros((4, 4))
        active = independent_cascade(probs, [2], rng)
        assert active[2]
        assert active.sum() == 1

    def test_deterministic_chain_with_probability_one(self, rng):
        probs = np.zeros((4, 4))
        probs[0, 1] = probs[1, 2] = probs[2, 3] = 1.0
        active = independent_cascade(probs, [0], rng)
        assert active.all()

    def test_zero_probability_edge_never_fires(self, rng):
        probs = np.zeros((3, 3))
        probs[0, 1] = 1.0
        for _ in range(10):
            active = independent_cascade(probs, [0], rng)
            assert active[1] and not active[2]

    def test_edges_fire_at_most_once(self):
        """With p=0.5 on a single edge, activation must equal a single coin
        flip, not repeated attempts: the activation rate stays ~0.5."""
        probs = np.zeros((2, 2))
        probs[0, 1] = 0.5
        rng = np.random.default_rng(0)
        hits = sum(
            independent_cascade(probs, [0], rng)[1] for _ in range(2000)
        )
        assert hits / 2000 == pytest.approx(0.5, abs=0.05)

    def test_multiple_seeds(self, rng):
        probs = np.zeros((4, 4))
        active = independent_cascade(probs, [0, 3], rng)
        assert active[0] and active[3] and active.sum() == 2

    def test_validation(self, rng):
        with pytest.raises(InfluenceError):
            independent_cascade(np.zeros((2, 3)), [0], rng)
        with pytest.raises(InfluenceError):
            independent_cascade(np.full((2, 2), 1.5), [0], rng)
        with pytest.raises(InfluenceError):
            independent_cascade(np.zeros((2, 2)), [5], rng)

    @settings(max_examples=200, deadline=None)
    @given(cascade_inputs())
    def test_activations_are_closed_and_explained(self, inputs):
        """Every active non-seed node has an active in-neighbour with p > 0,
        and every p = 1 edge out of an active node lands on an active node."""
        probs, seeds, rng_seed = inputs
        active = independent_cascade(probs, seeds, np.random.default_rng(rng_seed))
        is_seed = np.zeros(len(probs), dtype=bool)
        is_seed[seeds] = True
        assert active[is_seed].all()
        explained = (probs[active] > 0).any(axis=0)
        assert explained[active & ~is_seed].all()
        assert active[(probs[active] == 1.0).any(axis=0)].all()


class TestExpectedSpread:
    def test_chain_spread_value(self):
        """Chain 0 -p-> 1 -p-> 2: E[spread | seed 0] = 1 + p + p^2."""
        p = 0.5
        probs = np.zeros((3, 3))
        probs[0, 1] = probs[1, 2] = p
        value = expected_spread(probs, [0], num_simulations=4000)
        assert value == pytest.approx(1 + p + p * p, abs=0.07)

    def test_isolated_seed_spread_is_one(self):
        assert expected_spread(np.zeros((3, 3)), [1], 10) == pytest.approx(1.0)

    def test_rejects_bad_simulation_count(self):
        with pytest.raises(InfluenceError):
            expected_spread(np.zeros((2, 2)), [0], 0)
        with pytest.raises(InfluenceError):
            expected_spread(np.zeros((2, 2)), [0], -3)

    @pytest.mark.parametrize("seeds", [[0], [3], [1, 2]])
    def test_matches_exact_expectation(self, seeds):
        sims = 20_000
        value = expected_spread(MIXED_GRAPH, seeds, sims, np.random.default_rng(5))
        assert_close_to_exact(value, MIXED_GRAPH, seeds, sims)


class TestCommunityInfluence:
    def test_degrees_match_exact_expectation(self, estimates):
        probs = _activation_matrix(estimates, topic=0)
        sims = 20_000
        influence = community_influence(estimates, topic=0, num_simulations=sims)
        for c in range(estimates.num_communities):
            assert_close_to_exact(influence.degree[c], probs, [c], sims)

    def test_rejects_bad_simulation_count(self, estimates):
        for sims in (0, -1):
            with pytest.raises(InfluenceError):
                community_influence(estimates, topic=0, num_simulations=sims)

    def test_draw_blocks_bound_memory(self):
        """Peak memory is the activation and frontier matrices plus a few MB.

        An unblocked first level would draw ``R x n`` doubles (160 MB here).
        """
        C, sims = 200, 500
        eta = np.full((C, C), 0.002)
        eta[0, 1] = 1.0  # rescaled to 0.9; every other edge fires w.p. 0.0018
        estimates = ParameterEstimates(
            pi=np.full((2, C), 1 / C),
            theta=np.ones((C, 1)),
            phi=np.full((1, 3), 1 / 3),
            psi=np.full((1, C, 2), 0.5),
            eta=eta,
        )
        matrix_bytes = C * sims * C
        tracemalloc.start()
        try:
            influence = community_influence(estimates, 0, num_simulations=sims)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (influence.degree >= 1.0).all()
        assert peak < 2 * matrix_bytes + 6 * 2**20
    def test_degrees_at_least_one(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=30)
        assert (influence.degree >= 1.0).all()
        assert influence.degree.shape == (estimates.num_communities,)

    def test_ranking_sorted_by_degree(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=30)
        ranking = influence.ranking()
        degrees = influence.degree[ranking]
        assert (np.diff(degrees) <= 0).all()

    def test_top_returns_prefix_of_ranking(self, estimates):
        influence = community_influence(estimates, topic=1, num_simulations=30)
        assert influence.top(2) == list(influence.ranking()[:2])

    def test_top_rejects_nonpositive(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=5)
        with pytest.raises(InfluenceError):
            influence.top(0)

    def test_deterministic_given_seed(self, estimates):
        a = community_influence(estimates, topic=0, num_simulations=20, seed=3)
        b = community_influence(estimates, topic=0, num_simulations=20, seed=3)
        np.testing.assert_allclose(a.degree, b.degree)

    def test_interested_communities_more_influential_on_planted_world(
        self, oracle_estimates
    ):
        """Communities with high theta_ck should dominate the IC ranking at
        topic k (Fig. 5/16's qualitative claim)."""
        topic = 0
        influence = community_influence(
            oracle_estimates, topic=topic, num_simulations=120, seed=0
        )
        most_interested = int(oracle_estimates.theta[:, topic].argmax())
        assert most_interested in influence.top(2)


class TestUserInfluence:
    def test_formula(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=10)
        scores = user_influence(estimates, influence)
        expected = estimates.pi @ influence.degree
        np.testing.assert_allclose(scores, expected)

    def test_dimension_mismatch_raises(self, estimates):
        bad = CommunityInfluence(topic=0, degree=np.ones(99))
        with pytest.raises(InfluenceError):
            user_influence(estimates, bad)


class TestPentagonEmbedding:
    @pytest.fixture()
    def embedding(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=20)
        return pentagon_embedding(estimates, influence)

    def test_five_corners_on_unit_circle(self, embedding):
        assert embedding.corners.shape == (5, 2)
        radii = np.linalg.norm(embedding.corners, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)

    def test_positions_inside_pentagon_hull(self, embedding):
        """Convex combinations of corners stay within the unit circle."""
        radii = np.linalg.norm(embedding.positions, axis=1)
        assert (radii <= 1.0 + 1e-9).all()

    def test_weights_are_distributions(self, embedding):
        np.testing.assert_allclose(embedding.weights.sum(axis=1), 1.0, atol=1e-9)
        assert (embedding.weights >= 0).all()

    def test_positions_are_weighted_corner_combinations(self, embedding):
        reconstructed = embedding.weights @ embedding.corners
        np.testing.assert_allclose(embedding.positions, reconstructed, atol=1e-12)

    def test_single_membership_user_sits_at_corner(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=10)
        top4 = influence.top(4)
        pi = np.zeros_like(estimates.pi)
        pi[:, top4[0]] = 1.0  # everyone fully in the top community
        from dataclasses import replace as dc_replace
        import copy

        point_estimates = copy.deepcopy(estimates)
        point_estimates.pi = pi
        embedding = pentagon_embedding(point_estimates, influence)
        np.testing.assert_allclose(
            embedding.positions[0], embedding.corners[0], atol=1e-9
        )

    def test_top_users_filter(self, estimates):
        influence = community_influence(estimates, topic=0, num_simulations=10)
        embedding = pentagon_embedding(estimates, influence, top_users=5)
        assert embedding.positions.shape == (5, 2)
        full = pentagon_embedding(estimates, influence)
        assert embedding.user_scores.min() >= np.sort(full.user_scores)[-5] - 1e-12

    def test_dominant_corner_shape(self, embedding, estimates):
        corners = embedding.dominant_corner()
        assert corners.shape == (estimates.num_users,)
        assert corners.max() <= 4
