"""Unit tests for repro.core.influence (§6.6, Independent Cascade, Fig. 16)."""

import contextlib
import itertools
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastgibbs, influence
from repro.core.estimates import ParameterEstimates
from repro.core.influence import (
    _DRAW_BLOCK,
    CommunityInfluence,
    InfluenceError,
    _activation_matrix,
    _batched_cascade,
    _batched_reach,
    _cascade,
    _live_shape,
    _mean_spreads,
    _reach,
    community_influence,
    expected_spread,
    greedy_seed_selection,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probabilities(self, rng, bad):
        probs = np.array([[0.0, bad], [0.5, 0.0]])
        with pytest.raises(InfluenceError, match="finite"):
            independent_cascade(probs, [0], rng)
        with pytest.raises(InfluenceError, match="finite"):
            expected_spread(probs, [0], 10, rng)
        with pytest.raises(InfluenceError, match="finite"):
            greedy_seed_selection(probs, 1, 10)

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


@pytest.fixture(params=["native", "reference"])
def kernels(request, monkeypatch):
    """Run the test on the native kernels, then on the numpy ones."""
    if request.param == "native":
        _native()
    else:
        _reference_only(monkeypatch)
    return request.param


class TestSingleSetStream:
    """One seed set cascades from that set: the values are pinned to the
    draws of the per-(set, simulation) layout the shared realisation
    replaced, on both kernels."""

    def test_expected_spread_values(self, kernels):
        rng = np.random.default_rng(11)
        values = [
            expected_spread(MIXED_GRAPH, seeds, 1000, rng)
            for seeds in ([0], [1, 2], [3], [0, 0, 2])
        ]
        assert values == [2.72, 3.416, 1.181, 3.535]
        assert rng.integers(0, 2**62) == 214696289914530165

    def test_independent_cascade_activations(self, kernels):
        rng = np.random.default_rng(3)
        activated = [
            np.flatnonzero(independent_cascade(MIXED_GRAPH, [seed], rng)).tolist()
            for seed in (0, 1, 2, 3, 0, 1, 3, 3)
        ]
        assert activated == [
            [0, 1, 2, 3], [0, 1, 2, 3], [2, 3], [3], [0], [1, 2, 3], [3], [3]
        ]
        assert rng.integers(0, 2**62) == 4447315018210650787


class TestSharedRealisations:
    def test_every_node_matches_exact_expectation(self, kernels):
        sims = 20_000
        spreads = _mean_spreads(MIXED_GRAPH, None, sims, np.random.default_rng(5))
        for node, value in enumerate(spreads):
            assert_close_to_exact(value, MIXED_GRAPH, [node], sims)

    def test_seed_sets_match_exact_expectation(self, kernels):
        """Overlapping and duplicate sets share realisations, each exact."""
        sets = [[0], [1, 2], [1, 2], [2, 3], [0, 3]]
        masks = np.zeros((len(sets), 4), dtype=bool)
        for row, seeds in enumerate(sets):
            masks[row, seeds] = True
        sims = 20_000
        spreads = _mean_spreads(MIXED_GRAPH, masks, sims, np.random.default_rng(6))
        assert spreads[1] == spreads[2]
        for seeds, value in zip(sets, spreads):
            assert_close_to_exact(value, MIXED_GRAPH, seeds, sims)

    def test_rejects_malformed_masks(self):
        rng = np.random.default_rng(0)
        for masks in (np.zeros((0, 4), dtype=bool), np.zeros((2, 3), dtype=bool)):
            with pytest.raises(InfluenceError, match="seed masks"):
                _mean_spreads(MIXED_GRAPH, masks, 10, rng)


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
        """Peak memory stays within twice a per-(set, simulation) activation
        matrix plus a few MB, on the native kernels and on the numpy ones.

        The shared realisations hold ``sims x n`` activations and ``sims x
        n x ceil(n / 64)`` live-edge words, and the numpy kernel draws in
        blocks: an unblocked first level would draw ``sims x n x n``
        doubles (160 MB here).
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
        for kernel in (
            contextlib.nullcontext(),
            mock.patch.object(influence, "native_kernel", lambda: None),
        ):
            tracemalloc.start()
            try:
                with kernel:
                    degree = community_influence(estimates, 0, sims).degree
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (degree >= 1.0).all()
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


def _native():
    lib = fastgibbs.native_kernel()
    if lib is None:
        pytest.skip("no native kernels (no C compiler)")
    return lib


def _reference_only(monkeypatch):
    """Route every cascade in ``influence`` to the numpy kernel."""
    monkeypatch.setattr(influence, "native_kernel", lambda: None)


@st.composite
def batched_cascades(draw):
    """A probability matrix, ``R`` seeded realisations and a generator seed.

    ``R`` reaches past three of the reference kernel's draw blocks, so the
    numpy side splits its levels across block boundaries.
    """
    n = draw(st.integers(1, 12))
    entry = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    probs = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    seed_sets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
    masks = np.zeros((len(seed_sets), n), dtype=bool)
    for row, seeds in enumerate(seed_sets):
        masks[row, seeds] = True
    rows = draw(st.integers(1, 3 * (_DRAW_BLOCK // n) + 2))
    active = np.resize(masks, (rows, n))
    return probs.reshape(n, n), active, draw(st.integers(0, 2**32 - 1))


@st.composite
def seed_set_groups(draw):
    """A probability matrix, several seed sets and a simulation count.

    The sets are ``None`` (each node alone) or ``(G, n)`` masks that may
    overlap, repeat or be empty.
    """
    n = draw(st.integers(1, 12))
    entry = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    probs = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    masks = None
    if draw(st.booleans()):
        sets = draw(
            st.lists(
                st.lists(st.integers(0, n - 1), max_size=n), min_size=2, max_size=5
            )
        )
        sets += draw(st.lists(st.sampled_from(sets), max_size=2))  # duplicates
        masks = np.zeros((len(sets), n), dtype=bool)
        for row, seeds in enumerate(sets):
            masks[row, seeds] = True
    sims = draw(st.integers(1, 2 * (_DRAW_BLOCK // (n * n)) + 2))
    return probs.reshape(n, n), masks, sims


def _buffer_uint32(*generators):
    """Leave half a uint64 in each generator (``has_uint32``)."""
    for generator in generators:
        generator.integers(0, 7, dtype=np.uint32)


class TestNativeCascade:
    """The native kernels against their oracles, the numpy
    ``_batched_cascade`` and ``_batched_reach``."""

    @settings(max_examples=60, deadline=None)
    @given(batched_cascades(), st.booleans(), st.booleans())
    def test_identical_activations_and_generator_state(self, case, buffered, record):
        _native()
        probs, active, seed = case
        reference, native = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            _buffer_uint32(reference, native)
        rows, n = active.shape
        live = [np.zeros((rows, n, -(-n // 64)), np.uint64) if record else None
                for _ in range(2)]
        want = _batched_cascade(probs, active.copy(), reference, live[0])
        got = _cascade(probs, active.copy(), native, live[1])
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)
        if record:
            np.testing.assert_array_equal(live[1], live[0])
        assert native.bit_generator.state == reference.bit_generator.state
        assert native.integers(0, 2**31, dtype=np.uint32) == reference.integers(
            0, 2**31, dtype=np.uint32
        )
        assert native.random() == reference.random()

    @settings(max_examples=60, deadline=None)
    @given(seed_set_groups(), st.integers(0, 2**32 - 1), st.booleans())
    def test_multi_set_spreads_and_generator_state(self, case, seed, buffered):
        _native()
        probs, masks, sims = case
        reference, native = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            _buffer_uint32(reference, native)
        got = _mean_spreads(probs, masks, sims, native)
        with mock.patch.object(influence, "native_kernel", lambda: None):
            want = _mean_spreads(probs, masks, sims, reference)
        np.testing.assert_array_equal(got, want)
        assert native.bit_generator.state == reference.bit_generator.state
        assert native.random() == reference.random()

    @pytest.mark.parametrize("n", [65, 100, 130])
    def test_reach_matches_oracle_past_one_bitset_word(self, n):
        """At n > 64 a node's bitset takes two or three words: the general
        closure loop, on recorded cascades and on random dense graphs."""
        _native()
        rng = np.random.default_rng(n)
        sets = rng.random((6, n)) < 0.05
        sets[0] = False
        sets[1, [0, 63, 64, n - 1]] = True
        probs = rng.random((n, n)) * (rng.random((n, n)) < 3 / n)
        recorded = np.zeros(_live_shape(5, n), np.uint64)
        active = np.repeat(sets.any(axis=0, keepdims=True), 5, axis=0)
        _cascade(probs, active, np.random.default_rng(1), recorded)
        dense = rng.integers(0, 2**64, _live_shape(5, n), dtype=np.uint64)
        dense[:, :, -1] &= np.uint64(2 ** (n % 64) - 1)
        for live in (recorded, dense):
            got_live, want_live = live.copy(), live.copy()
            np.testing.assert_array_equal(
                _reach(got_live, sets), _batched_reach(want_live, sets)
            )
            np.testing.assert_array_equal(got_live, want_live)

    def test_community_influence_degrees_unchanged(self, estimates, monkeypatch):
        _native()
        native = [
            community_influence(estimates, k, num_simulations=50, seed=3).degree
            for k in range(estimates.num_topics)
        ]
        _reference_only(monkeypatch)
        for k, degree in enumerate(native):
            want = community_influence(estimates, k, num_simulations=50, seed=3)
            np.testing.assert_array_equal(degree, want.degree)

    def test_greedy_seeds_and_spreads_unchanged(self, monkeypatch):
        _native()
        probs = np.random.default_rng(4).random((9, 9)) * 0.4
        np.fill_diagonal(probs, 0.0)
        native = greedy_seed_selection(probs, num_seeds=4, num_simulations=80)
        _reference_only(monkeypatch)
        assert native == greedy_seed_selection(probs, num_seeds=4, num_simulations=80)

    @pytest.mark.parametrize(
        ("bit_generator", "reference_calls"),
        [(np.random.PCG64, 0), (np.random.Philox, 1), (np.random.MT19937, 1)],
    )
    def test_only_pcg64_runs_natively(
        self, bit_generator, reference_calls, monkeypatch
    ):
        """PCG64 never reaches the numpy kernel; any other bit generator
        takes it and still estimates the exact expectation."""
        if bit_generator is np.random.PCG64:
            _native()
        calls = []

        def recording(*args):
            calls.append(args)
            return _batched_cascade(*args)

        monkeypatch.setattr(influence, "_batched_cascade", recording)
        sims = 20_000
        rng = np.random.Generator(bit_generator(5))
        value = expected_spread(MIXED_GRAPH, [0], sims, rng)
        assert len(calls) == reference_calls
        assert_close_to_exact(value, MIXED_GRAPH, [0], sims)

    def test_no_compiler_falls_back_to_reference_with_one_warning(
        self, estimates, monkeypatch, tmp_path, caplog
    ):
        """No silent fallback: without a library the results are the same
        and the loader says so once."""
        _native()
        native = community_influence(estimates, 0, num_simulations=40).degree
        single = independent_cascade(MIXED_GRAPH, [0, 3], np.random.default_rng(2))
        monkeypatch.setattr(fastgibbs, "_library", fastgibbs._UNLOADED)
        monkeypatch.setattr(fastgibbs, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(fastgibbs.shutil, "which", lambda name: None)
        with caplog.at_level(logging.WARNING, logger="repro.core.fastgibbs"):
            fallback = community_influence(estimates, 0, num_simulations=40).degree
            again = independent_cascade(
                MIXED_GRAPH, [0, 3], np.random.default_rng(2)
            )
        assert fastgibbs.native_kernel() is None
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING
                    and r.name == "repro.core.fastgibbs"]
        assert len(warnings) == 1
        np.testing.assert_array_equal(native, fallback)
        np.testing.assert_array_equal(single, again)
