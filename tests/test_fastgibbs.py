"""Exactness tests for repro.core.fastgibbs (the cached sweep kernels).

The fast path's contract is *bit-identical draws*: from the same seed it
must walk the exact chain the reference kernels walk — same assignments,
same degenerate-draw tally, same RNG stream position.  Every test here
compares against the reference implementation, never against expected
values of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastgibbs import SweepCache
from repro.core.gibbs import sweep
from repro.core.params import Hyperparameters
from repro.core.state import CountState, StateError


@pytest.fixture()
def hp() -> Hyperparameters:
    return Hyperparameters(
        rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=2.0, lambda1=0.1
    )


def _init(corpus, rng, C=3, K=4):
    return CountState.initialize(
        corpus, num_communities=C, num_topics=K, rng=rng
    )


def _chain_arrays(state: CountState):
    return (
        state.post_comm.copy(),
        state.post_topic.copy(),
        state.link_src_comm.copy(),
        state.link_dst_comm.copy(),
        state.degenerate_draws,
    )


class TestSweepEquivalence:
    def test_fast_sweep_matches_reference_exactly(self, tiny_corpus, hp):
        """Whole sweeps through `sweep(cache=...)` draw the reference chain."""
        chains = []
        for fast in (False, True):
            rng = np.random.default_rng(42)
            state = _init(tiny_corpus, rng)
            cache = SweepCache(state, hp) if fast else None
            for _ in range(4):
                sweep(state, hp, rng, cache=cache)
            chains.append(_chain_arrays(state))
        for ref, fst in zip(chains[0], chains[1]):
            np.testing.assert_array_equal(ref, fst)

    def test_repeated_word_posts_match(self, hand_corpus, hp):
        """hand_corpus post 3 is (5, 5, 5): the Polya repeat branch."""
        chains = []
        for fast in (False, True):
            rng = np.random.default_rng(9)
            state = _init(hand_corpus, rng, C=3, K=2)
            cache = SweepCache(state, hp) if fast else None
            for _ in range(6):
                sweep(state, hp, rng, cache=cache)
            chains.append(_chain_arrays(state))
        for ref, fst in zip(chains[0], chains[1]):
            np.testing.assert_array_equal(ref, fst)

    def test_rng_stream_position_matches_after_sweeps(self, hand_corpus, hp):
        """Both paths must consume the RNG identically — a later draw from
        the same generator proves the stream did not diverge silently."""
        follow_ups = []
        for fast in (False, True):
            rng = np.random.default_rng(7)
            state = _init(hand_corpus, rng, C=3, K=2)
            cache = SweepCache(state, hp) if fast else None
            for _ in range(3):
                sweep(state, hp, rng, cache=cache)
            follow_ups.append(rng.random(8))
        np.testing.assert_array_equal(follow_ups[0], follow_ups[1])

    def test_invariants_and_cache_consistency_after_sweeps(
        self, tiny_corpus, hp
    ):
        rng = np.random.default_rng(3)
        state = _init(tiny_corpus, rng)
        cache = SweepCache(state, hp)
        for _ in range(3):
            sweep(state, hp, rng, cache=cache)
        state.check_invariants()
        cache.check_consistency(state)

    def test_explicit_orders_match_reference(self, tiny_corpus, hp):
        post_order = np.arange(10)[::-1].copy()
        link_order = np.arange(5)
        chains = []
        for fast in (False, True):
            rng = np.random.default_rng(11)
            state = _init(tiny_corpus, rng)
            cache = SweepCache(state, hp) if fast else None
            sweep(
                state, hp, rng,
                post_order=post_order, link_order=link_order, cache=cache,
            )
            chains.append(_chain_arrays(state))
        for ref, fst in zip(chains[0], chains[1]):
            np.testing.assert_array_equal(ref, fst)


class TestPerDrawKernels:
    """Draw-by-draw equivalence through the public ``sweep()``: a one-item
    visitation order makes each call exactly one post or one link draw."""

    @staticmethod
    def _run_single_draws(corpus, hp, init_seed, rng_seed, orders):
        rng_ref = np.random.default_rng(rng_seed)
        rng_fast = np.random.default_rng(rng_seed)
        ref = _init(corpus, np.random.default_rng(init_seed), C=3, K=2)
        fst = _init(corpus, np.random.default_rng(init_seed), C=3, K=2)
        cache = SweepCache(fst, hp)
        for _round in range(3):
            for post_order, link_order in orders(ref):
                sweep(ref, hp, rng_ref, post_order=post_order,
                      link_order=link_order)
                sweep(fst, hp, rng_fast, post_order=post_order,
                      link_order=link_order, cache=cache)
                for want, got in zip(_chain_arrays(ref), _chain_arrays(fst)):
                    np.testing.assert_array_equal(want, got)
        np.testing.assert_array_equal(rng_ref.random(8), rng_fast.random(8))
        cache.check_consistency(fst)

    def test_each_post_draw_matches_reference(self, hand_corpus, hp):
        self._run_single_draws(
            hand_corpus, hp, init_seed=1, rng_seed=5,
            orders=lambda s: [([post], []) for post in range(s.num_posts)],
        )

    def test_each_link_draw_matches_reference(self, hand_corpus, hp):
        self._run_single_draws(
            hand_corpus, hp, init_seed=2, rng_seed=6,
            orders=lambda s: [([], [link]) for link in range(s.num_links)],
        )

    def test_cache_rebuild_equals_incremental(self, tiny_corpus, hp):
        """The cache is a pure function of (state, hp): rebuilding it after
        sweeps must reproduce the incrementally-maintained one (the property
        checkpoint resume and parallel crash replay rely on)."""
        rng = np.random.default_rng(8)
        state = _init(tiny_corpus, rng)
        cache = SweepCache(state, hp)
        for _ in range(2):
            sweep(state, hp, rng, cache=cache)
        fresh = SweepCache(state, hp)
        np.testing.assert_array_equal(cache.word_topic, fresh.word_topic)
        np.testing.assert_array_equal(cache.base, fresh.base)
        np.testing.assert_array_equal(cache.link_factor, fresh.link_factor)
        np.testing.assert_array_equal(cache.comm_denom, fresh.comm_denom)
        fresh.check_consistency(state)


class TestMoveMethods:
    def test_move_post_equals_remove_then_add(self, hand_corpus, hp, rng):
        a = _init(hand_corpus, np.random.default_rng(4), C=3, K=2)
        b = _init(hand_corpus, np.random.default_rng(4), C=3, K=2)
        for post in range(a.num_posts):
            new_c = (int(a.post_comm[post]) + 1) % a.num_communities
            new_k = (int(a.post_topic[post]) + 1) % a.num_topics
            a.remove_post(post)
            a.add_post(post, new_c, new_k)
            b.move_post(post, new_c, new_k)
        for name in ("n_user_comm", "n_comm_topic", "n_comm_topic_time",
                     "n_topic_word", "n_topic_total"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        b.check_invariants()

    def test_move_link_equals_remove_then_add(self, hand_corpus, hp):
        a = _init(hand_corpus, np.random.default_rng(4), C=3, K=2)
        b = _init(hand_corpus, np.random.default_rng(4), C=3, K=2)
        for link in range(a.num_links):
            new_c = (int(a.link_src_comm[link]) + 1) % a.num_communities
            new_cp = (int(a.link_dst_comm[link]) + 2) % a.num_communities
            a.remove_link(link)
            a.add_link(link, new_c, new_cp)
            b.move_link(link, new_c, new_cp)
        np.testing.assert_array_equal(a.n_user_comm, b.n_user_comm)
        np.testing.assert_array_equal(a.n_link_comm, b.n_link_comm)
        b.check_invariants()


class TestSparseHelpers:
    def test_active_cells_match_nonzeros(self, tiny_corpus):
        state = _init(tiny_corpus, np.random.default_rng(0))
        cs, ks = state.active_comm_topic_cells()
        expected_c, expected_k = np.nonzero(state.n_comm_topic)
        np.testing.assert_array_equal(cs, expected_c)
        np.testing.assert_array_equal(ks, expected_k)

    def test_active_topic_words_match_nonzeros(self, tiny_corpus):
        state = _init(tiny_corpus, np.random.default_rng(0))
        ks, ws = state.active_topic_words()
        expected_k, expected_w = np.nonzero(state.n_topic_word)
        np.testing.assert_array_equal(ks, expected_k)
        np.testing.assert_array_equal(ws, expected_w)

    def test_top_cells_sorted_descending(self, tiny_corpus):
        state = _init(tiny_corpus, np.random.default_rng(0))
        cs, ks, counts = state.top_comm_topic_cells(5)
        assert len(cs) == len(ks) == len(counts) <= 5
        assert list(counts) == sorted(counts, reverse=True)
        for c, k, n in zip(cs, ks, counts):
            assert state.n_comm_topic[c, k] == n

    def test_top_cells_rejects_bad_limit(self, tiny_corpus):
        state = _init(tiny_corpus, np.random.default_rng(0))
        with pytest.raises(StateError):
            state.top_comm_topic_cells(0)


class TestModelIntegration:
    def test_fast_and_reference_fits_identical(self, tiny_corpus):
        from repro.core.model import COLDModel

        fast = COLDModel(
            num_communities=3, num_topics=4, prior="scaled", seed=0
        ).fit(tiny_corpus, num_iterations=6)
        ref = COLDModel(
            num_communities=3, num_topics=4, prior="scaled", seed=0,
            fast=False,
        ).fit(tiny_corpus, num_iterations=6)
        for field in ("pi", "theta", "phi", "psi", "eta"):
            np.testing.assert_array_equal(
                getattr(fast.estimates_, field), getattr(ref.estimates_, field)
            )

    def test_parallel_fast_and_reference_fits_identical(self, tiny_corpus):
        from repro.parallel.sampler import ParallelCOLDSampler

        kwargs = dict(
            num_communities=3, num_topics=4, num_nodes=2,
            prior="scaled", seed=0,
        )
        fast = ParallelCOLDSampler(**kwargs).fit(tiny_corpus, num_iterations=4)
        ref = ParallelCOLDSampler(fast=False, **kwargs).fit(
            tiny_corpus, num_iterations=4
        )
        np.testing.assert_array_equal(
            fast.state_.post_comm, ref.state_.post_comm
        )
        np.testing.assert_array_equal(
            fast.state_.post_topic, ref.state_.post_topic
        )
        for field in ("pi", "theta", "phi", "psi", "eta"):
            np.testing.assert_array_equal(
                getattr(fast.estimates_, field), getattr(ref.estimates_, field)
            )
