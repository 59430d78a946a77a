"""Exactness tests for repro.core.fastgibbs (the native sweep kernel).

The fast path's contract is *identical draws*: from the same seed it
must walk the exact chain the reference kernels walk — same assignments,
same degenerate-draw tally, same RNG stream position.  Every test here
compares against the reference implementation (or, for the kernel's
reduction helpers, against NumPy itself), never against expected values
of its own.
"""

from __future__ import annotations

import ctypes
import fnmatch
import logging
import math
import os
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastgibbs
from repro.core.fastgibbs import SweepCache
from repro.core.gibbs import (
    _WEIGHT_FLOOR,
    categorical_checked,
    post_topic_log_weights,
    sweep,
)
from repro.core.params import Hyperparameters
from repro.core.state import CountState, PostTable, StateError


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

    @pytest.mark.parametrize("K", [1, 3])
    def test_dominant_topic_matches_reference(self, tiny_corpus, hp, K):
        """Every post starts in topic 0, whose token total is then the
        corpus's: the Polya denominator reads the log table's last
        entries (and with K = 1 every post stays there)."""
        runs = []
        for fast in (False, True):
            rng = np.random.default_rng(5)
            state = _init(tiny_corpus, rng, K=K)
            for post in range(state.num_posts):
                state.move_post(post, int(state.post_comm[post]), 0)
            cache = SweepCache(state, hp) if fast else None
            for _ in range(3):
                sweep(state, hp, rng, cache=cache)
            runs.append((_chain_arrays(state), rng.random(8)))
            if fast:
                state.check_invariants()
                cache.check_consistency(state)
        (ref, ref_follow), (fst, fst_follow) = runs
        for want, got in zip(ref, fst):
            np.testing.assert_array_equal(want, got)
        np.testing.assert_array_equal(ref_follow, fst_follow)

    def test_small_uniform_blocks_match_reference(
        self, tiny_corpus, hp, monkeypatch
    ):
        """Loops spanning many uniform blocks draw the reference chain."""
        monkeypatch.setattr(fastgibbs, "_BLOCK_ITEMS", 5)
        runs = []
        for fast in (False, True):
            rng = np.random.default_rng(42)
            state = _init(tiny_corpus, rng)
            cache = SweepCache(state, hp) if fast else None
            for _ in range(3):
                sweep(state, hp, rng, cache=cache)
            runs.append((_chain_arrays(state), rng.random(8)))
        (ref, ref_follow), (fst, fst_follow) = runs
        for want, got in zip(ref, fst):
            np.testing.assert_array_equal(want, got)
        np.testing.assert_array_equal(ref_follow, fst_follow)


class _ColumnWorld:
    """The corpus surface :meth:`CountState.initialize` reads, built from
    raw word lists: unlike a :class:`SocialCorpus` it admits empty posts,
    which the kernel must handle although no corpus holds one."""

    def __init__(self, posts, seed, users=6, slices=3, vocab=300, links=12):
        rng = np.random.default_rng(seed)
        self.num_users, self.num_time_slices = users, slices
        self.vocab_size = vocab
        self._columns = (
            rng.integers(users, size=len(posts)),
            rng.integers(slices, size=len(posts)),
            np.array([len(words) for words in posts], np.int64),
            np.array([w for words in posts for w in words], np.int64),
        )
        pairs = rng.integers(users, size=(links, 2))
        self._links = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)

    def post_table(self) -> PostTable:
        return PostTable.from_columns(*self._columns)

    def link_array(self) -> np.ndarray:
        return self._links


def _distinct(rng, length, vocab=300):
    return tuple(rng.choice(vocab, size=length, replace=False).tolist())


class TestTopicNumeratorPaths:
    """The Eq. (3) sums on every shape of post, against the reference.

    The cases straddle the lengths where numpy's pairwise sum changes
    form (8 and 128 terms) for distinct-word posts, and cover empty
    posts, repeated words, one topic and C = K = 100.  Each sweeps in
    lockstep with the reference, compares the log weights bit for bit
    and checks the cache after every sweep, which also proves the
    word-topic column the topic draw borrows is restored.
    """

    @staticmethod
    def _check_log_weights(state, hp, cache):
        """The kernel's Eq. (3) log weights, bit for bit the reference's
        for every post in every community (so a wrong summation order
        fails here, not only as a rare flipped draw)."""
        lib = _native()
        ctx = ctypes.addressof(cache._context(state, False))
        got = np.empty(state.num_topics)
        for post in range(state.num_posts):
            kernel = []
            for c in range(state.num_communities):
                lib.cold_topic_log_weights(ctx, post, c, _ptr(got))
                kernel.append(got.copy())
            c_old, k_old = state.remove_post(post)
            try:
                for c, weights in enumerate(kernel):
                    want = post_topic_log_weights(state, hp, post, c)
                    np.testing.assert_array_equal(weights, want, err_msg=(post, c))
            finally:
                state.add_post(post, c_old, k_old)
        cache.check_consistency(state)

    def _lockstep(self, corpus, hp, C=3, K=4, sweeps=3, seed=0):
        _native()
        states, rngs = [], []
        for _ in range(2):
            rngs.append(np.random.default_rng(seed))
            states.append(_init(corpus, rngs[-1], C=C, K=K))
        ref, fst = states
        cache = SweepCache(fst, hp)
        for _ in range(sweeps):
            self._check_log_weights(fst, hp, cache)
            sweep(ref, hp, rngs[0])
            sweep(fst, hp, rngs[1], cache=cache)
            for want, got in zip(_chain_arrays(ref), _chain_arrays(fst)):
                np.testing.assert_array_equal(want, got)
            fst.check_invariants()
            cache.check_consistency(fst)
        np.testing.assert_array_equal(rngs[0].random(8), rngs[1].random(8))

    def test_empty_posts(self, hp):
        rng = np.random.default_rng(0)
        posts = [(), _distinct(rng, 3), (), (4, 4), _distinct(rng, 9), ()]
        self._lockstep(_ColumnWorld(posts, seed=1), hp)

    @pytest.mark.parametrize(
        "lengths",
        [range(1, 8), (8, 9, 15, 16, 17, 40, 64, 127, 128), (129, 136, 200, 260)],
        ids=["below-8", "8-to-128", "above-128"],
    )
    def test_distinct_word_posts(self, hp, lengths):
        rng = np.random.default_rng(2)
        posts = [_distinct(rng, n) for n in lengths for _ in range(3)]
        self._lockstep(_ColumnWorld(posts, seed=3), hp)

    def test_repeated_word_posts(self, hp):
        """Multiplicities anywhere, the first word's included, and a
        post longer than 128 tokens (the denominator's long path)."""
        rng = np.random.default_rng(4)
        posts = [
            (7, 7, 1, 2), (1, 2, 2), (5, 5, 5, 5), (9, 3, 9, 3, 9),
            (0, 0) + _distinct(rng, 20, vocab=200),
            tuple(rng.integers(40, size=150).tolist()),
            tuple(rng.integers(300, size=60).tolist()),
        ]
        posts += [tuple(rng.integers(30, size=n).tolist()) for n in range(2, 30)]
        self._lockstep(_ColumnWorld(posts, seed=5), hp)

    def test_hundred_communities_and_topics(self, hp):
        """A small world at the paper's C = K = 100."""
        from repro.datasets.synthetic import SyntheticConfig, generate_corpus

        corpus, _truth = generate_corpus(
            SyntheticConfig(
                num_users=24, num_communities=4, num_topics=6,
                num_time_slices=4, vocab_size=200, mean_posts_per_user=3.0,
                mean_words_per_post=12.0, mean_links_per_user=3.0, seed=11,
            )
        )
        self._lockstep(corpus, hp, C=100, K=100, sweeps=2)

    def test_single_topic(self, hp):
        """K = 1: the topic draw's only topic is always the post's own."""
        rng = np.random.default_rng(6)
        posts = [_distinct(rng, n) for n in (1, 8, 20)] + [(3, 3, 4)]
        self._lockstep(_ColumnWorld(posts, seed=7), hp, K=1)


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


def _native():
    lib = fastgibbs.native_kernel()
    if lib is None:
        pytest.skip("no native sweep kernel (no C compiler)")
    return lib


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


class TestNativeReductionOrder:
    """The kernel's sums must be NumPy's, bit for bit: a wrong summation
    order fails here directly instead of as a rare flipped draw."""

    @staticmethod
    def _values(rng, shape):
        return rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))

    def test_reduce_sum_matches_add_reduce_for_every_length(self):
        lib = _native()
        rng = np.random.default_rng(0)
        for n in range(1, 301):
            x = self._values(rng, n)
            got = lib.cold_reduce_sum(_ptr(x), n)
            assert got == np.add.reduce(x), n

    def test_categorical_matches_searchsorted_cumsum(self):
        """The kernel's draw stops its running sum at the first prefix
        above ``u * total``; the reference searches the whole cumsum
        (side="right") and clamps to the last cell."""
        lib = _native()
        rng = np.random.default_rng(1)
        for n in (*range(1, 130), 400, 10_000):
            w = np.exp(rng.uniform(-300, 300, n)) if n % 3 else rng.random(n)
            w[rng.random(n) < 0.2] = 1e-300
            cum = np.cumsum(w)
            keys = [
                (cum[-1], u) for u in (0.0, 0.5, 1 - 2**-53, *rng.random(5))
            ]
            # Ties: keys equal to a prefix sum (side="right" moves past
            # it), and keys beyond the last prefix (clamped).
            scale = 2.0 ** -math.ceil(math.log2(cum[-1]) + 1)
            keys += [(1 / scale, c * scale) for c in cum[rng.integers(n, size=5)]]
            keys += [(2 * cum[-1], 0.75), (1.5 * cum[-1], 0.9)]
            for total, u in keys:
                want = min(
                    int(np.searchsorted(cum, u * total, side="right")), n - 1
                )
                got = lib.cold_categorical(_ptr(w), n, total, u)
                assert got == want, (n, total, u)

    def test_polya_window_matches_reference_denominator(self):
        """The Polya denominator sums a window of the ``log(n + V beta)``
        table; the reference row-reduces ``log(n_k + o + V beta)``."""
        lib = _native()
        rng = np.random.default_rng(2)
        V_beta = 20.0
        log_V_beta = np.log(np.arange(60_000) + V_beta)
        totals = rng.integers(0, 50_000, size=40)
        for L in range(1, 301):
            want = np.log(
                totals[:, None] + np.arange(L)[None, :] + V_beta
            ).sum(axis=1)
            got = [lib.cold_reduce_sum(_ptr(log_V_beta[n:]), L) for n in totals]
            np.testing.assert_array_equal(got, want, err_msg=L)

    def test_reduce_sum_matches_contiguous_word_term_rows(self):
        """Rows of a C-contiguous matrix (the K = 1 distinct-word
        numerator) reduce pairwise."""
        lib = _native()
        rng = np.random.default_rng(3)
        for K, W in ((40, 1), (40, 7), (40, 8), (3, 129), (40, 300)):
            terms = self._values(rng, (K, W))
            got = [lib.cold_reduce_sum(_ptr(row), W) for row in terms]
            np.testing.assert_array_equal(got, terms.sum(axis=1))


    def test_gathered_word_terms_sum_sequentially(self):
        """The reference's distinct-word numerator gathers a column-major
        (K, W) matrix by fancy indexing, whose row sums add word after
        word: the order of the kernel's repeated-word loop.  With K = 1
        the one row is contiguous and sums pairwise."""
        lib = _native()
        rng = np.random.default_rng(4)
        for K, W in ((2, 9), (3, 8), (40, 40), (40, 129), (100, 300), (1, 40)):
            counts = rng.integers(0, 50, size=(K, 400))
            words = rng.choice(400, size=W, replace=False)
            terms = np.log(counts[:, words] + 0.01)
            got = terms.sum(axis=1)
            if K == 1:
                want = [lib.cold_reduce_sum(_ptr(terms), W)]
            else:
                want = np.zeros(K)
                for j in range(W):
                    want += terms[:, j]
            np.testing.assert_array_equal(got, want, err_msg=(K, W))


class _Uniform:
    """An rng stub for ``categorical_checked``: ``random()`` returns ``u``
    and the degenerate fallback's ``integers`` returns -1, the kernel's
    degenerate answer."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u

    def integers(self, n: int) -> int:
        return -1


class TestTopicDraw:
    """The kernel's Eq. (3) draw, certificate first and then the full
    draw, against the reference's ``categorical_checked`` on the floored
    ``exp(lw - max lw)``."""

    @staticmethod
    def _draw(lw, u):
        """The kernel's topic and its certificate's [lo, hi) (NaN: none)."""
        lib = _native()
        work = np.array(lw, dtype=np.float64)
        bounds = np.empty(2)
        got = lib.cold_topic_draw(
            _ptr(work), len(work), u, _WEIGHT_FLOOR, _ptr(bounds)
        )
        return got, bounds

    @staticmethod
    def _reference(lw, u):
        with np.errstate(invalid="ignore", over="ignore"):
            shifted = np.array(lw, dtype=np.float64)
            shifted -= shifted.max()
            weights = np.maximum(np.exp(shifted), _WEIGHT_FLOOR)
        return categorical_checked(weights, _Uniform(u))[0]

    def _check(self, lw, u):
        got, bounds = self._draw(lw, u)
        assert got == self._reference(lw, u), (list(lw), u, bounds)
        return got, bounds

    def _edges(self, lw):
        """Uniforms on and beside both ends of the certificate (none
        when it is empty)."""
        _got, (lo, hi) = self._draw(lw, 0.5)
        if not lo < hi:
            return []
        return [
            u for u in (
                lo, np.nextafter(lo, -1.0), np.nextafter(lo, 2.0),
                np.nextafter(hi, -1.0), hi, np.nextafter(hi, 2.0),
            )
            if 0.0 <= u < 1.0
        ]

    @pytest.mark.parametrize("t", [0, 1, 17, 38, 39])
    @pytest.mark.parametrize("gap", [6.0, 36.5, 745.0, 2000.0])
    def test_certificate_edges_and_inside(self, t, gap):
        """A unique arg max t at each position, runners-up from a few
        nats to past the weight floor (b at the floor): the draw equals
        the reference on and beside both certificate edges, and every
        uniform inside the certificate draws t."""
        lw = np.full(40, -gap)
        lw[t] = 0.0
        lw[(t + 5) % 40] = -gap + 0.25
        edges = self._edges(lw)
        assert edges
        for u in (*edges, 0.0, 0.5, 1 - 2**-53):
            got, (lo, hi) = self._check(lw, u)
            if lo <= u < hi:
                assert got == t

    @pytest.mark.parametrize("t", [0, 13, 20, 39])
    def test_floor_sum_above_certificate_product(self, t):
        """Every other weight floored: t floors summed one by one exceed
        fl(t * floor) for t >= 13, so the lower edge needs its margin."""
        lw = np.full(40, -800.0)
        lw[t] = 1.0
        edges = self._edges(lw)
        assert edges
        for u in edges:
            self._check(lw, u)

    def test_ties_have_no_certificate(self):
        for lw in ([0.0, 0.0, -5.0], [-3.0, 1.0, 1.0], [2.0] * 40):
            _got, bounds = self._draw(lw, 0.5)
            assert np.isnan(bounds).all()
            for u in (0.0, 0.3, 0.5, 0.7, 1 - 2**-53):
                self._check(lw, u)

    def test_single_topic(self):
        for lw in ([0.0], [-1e300], [123.5]):
            for u in (0.0, 0.5, 1 - 2**-53):
                got, _bounds = self._check(lw, u)
                assert got == 0

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("K", [1, 2, 40])
    def test_non_finite_weights_take_the_full_draw(self, bad, K):
        lw = np.linspace(0.0, -50.0, K)
        lw[K // 2] = bad
        _got, bounds = self._draw(lw, 0.5)
        assert np.isnan(bounds).all()
        for u in (0.0, 0.25, 0.5, 1 - 2**-53):
            self._check(lw, u)

    @given(
        K=st.integers(1, 100),
        spread=st.sampled_from([1.0, 10.0, 40.0, 800.0]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, K, spread, data):
        lw = np.array(data.draw(st.lists(
            st.floats(-spread, spread), min_size=K, max_size=K,
        )))
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        for uniform in (u, *self._edges(lw)):
            self._check(lw, uniform)


class TestPolyaRows:
    """The cached Polya denominator rows: stamped rows are the
    reference's window sums at the live totals, and every bind or
    refresh starts from fresh stamps."""

    @staticmethod
    def _swept_and_stamped(corpus, hp):
        """A cache after two sweeps, then every post's log weights read
        (no move), so every length's row is stamped at the live epoch."""
        lib = _native()
        rng = np.random.default_rng(3)
        state = _init(corpus, rng)
        cache = SweepCache(state, hp)
        for _ in range(2):
            sweep(state, hp, rng, cache=cache)
        ctx = ctypes.addressof(cache._context(state, False))
        out = np.empty(state.num_topics)
        for post in range(state.num_posts):
            lib.cold_topic_log_weights(ctx, post, 0, _ptr(out))
        current = cache._den_stamp == cache._ctx.den_epoch
        assert current[np.unique(state.posts.lengths)].all()
        return state, cache

    def test_stamped_rows_match_after_sweeps(self, tiny_corpus, hp):
        state, cache = self._swept_and_stamped(tiny_corpus, hp)
        cache.check_consistency(state)

    def test_stale_row_fails_consistency(self, tiny_corpus, hp):
        state, cache = self._swept_and_stamped(tiny_corpus, hp)
        cache._den_rows[int(state.posts.lengths[0]), 0] += 1.0
        with pytest.raises(ValueError, match="Polya row"):
            cache.check_consistency(state)

    def test_refresh_resets_stamps(self, tiny_corpus, hp):
        _native()
        rng = np.random.default_rng(3)
        state = _init(tiny_corpus, rng)
        cache = SweepCache(state, hp)
        sweep(state, hp, rng, cache=cache)
        # Move every post to topic 0 behind the cache's back, as a
        # parallel merge or a window update does, then refresh.
        for post in range(state.num_posts):
            state.move_post(post, int(state.post_comm[post]), 0)
        cache.refresh(state)
        assert (cache._den_stamp == -1).all() and cache._ctx.den_epoch == 0
        cache.check_consistency(state)

    def test_parallel_refresh_resets_stamps(self, tiny_corpus, monkeypatch):
        """Each node's cache is refreshed onto the merged counters every
        superstep: rows stamped in the last superstep are dropped, and
        the fit still draws the reference kernels' chain."""
        from repro.parallel.sampler import ParallelCOLDSampler

        _native()
        refreshes = []
        original = SweepCache.refresh

        def refresh_and_record(cache, state):
            stamped = bool((cache._den_stamp == cache._ctx.den_epoch).any())
            original(cache, state)
            fresh = bool((cache._den_stamp == -1).all())
            refreshes.append((stamped, fresh and cache._ctx.den_epoch == 0))
            cache.check_consistency(state)

        monkeypatch.setattr(SweepCache, "refresh", refresh_and_record)
        kwargs = dict(
            num_communities=3, num_topics=4, num_nodes=2, prior="scaled", seed=0
        )
        fast = ParallelCOLDSampler(**kwargs).fit(tiny_corpus, num_iterations=4)
        assert refreshes and all(fresh for _stamped, fresh in refreshes)
        assert any(stamped for stamped, _fresh in refreshes)
        ref = ParallelCOLDSampler(fast=False, **kwargs).fit(
            tiny_corpus, num_iterations=4
        )
        for want, got in zip(_chain_arrays(ref.state_), _chain_arrays(fast.state_)):
            np.testing.assert_array_equal(want, got)


class TestDegenerateDraws:
    """Non-finite weight totals force the reference's uniform fallback;
    the native path must rewind, replay and resume on the same RNG
    stream."""

    @pytest.mark.parametrize(
        "overrides",
        [
            # (n + rho)^2 sits at the overflow edge of the Eq. (2) total,
            # so a minority of link draws are degenerate: the sweep
            # replays part of a uniform block before each fallback.
            dict(rho=7.07e153, lambda0=20.0),
            # V beta overflows: every Polya denominator is inf, so every
            # topic draw is degenerate (the odd-draw resume path, after
            # the post's regular community draw).
            dict(beta=1e308),
            # Every link's outer product overflows too.
            dict(rho=1.5e308, beta=1e308),
            # Finite hyperparameters cannot make Eq. (1) non-finite, so
            # alpha = inf skips validation: every community draw (the
            # even-draw path) and every topic draw is degenerate.
            dict(alpha=math.inf),
        ],
        ids=["some-links", "all-topics", "topics-and-links", "all-posts"],
    )
    @pytest.mark.parametrize("block", [None, 3], ids=["one-block", "blocks"])
    def test_native_matches_reference_on_degenerate_weights(
        self, tiny_corpus, overrides, block, monkeypatch
    ):
        _native()
        if block is not None:
            monkeypatch.setattr(fastgibbs, "_BLOCK_ITEMS", block)
        hp = Hyperparameters(
            rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=2.0,
            lambda1=0.1,
        )
        for name, value in overrides.items():
            object.__setattr__(hp, name, value)
        runs = []
        for fast in (False, True):
            rng = np.random.default_rng(21)
            state = _init(tiny_corpus, rng)
            cache = SweepCache(state, hp) if fast else None
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(2):
                    sweep(state, hp, rng, cache=cache)
            runs.append((_chain_arrays(state), rng.random(8)))
            if fast:
                state.check_invariants()
                with np.errstate(over="ignore", invalid="ignore"):
                    cache.check_consistency(state)
        (ref, ref_follow), (fst, fst_follow) = runs
        for want, got in zip(ref, fst):
            np.testing.assert_array_equal(want, got)
        np.testing.assert_array_equal(ref_follow, fst_follow)
        draws = 2 * (2 * tiny_corpus.num_posts + tiny_corpus.num_links)
        assert 0 < ref[-1] <= draws


class TestKernelGuards:
    """Indices the native kernel would read out of bounds are rejected
    before any pointer is passed."""

    @pytest.mark.parametrize(
        "post_order, link_order",
        [([0, 99], [0]), ([-1], [0]), ([0], [0, 99]), ([0], [-1])],
    )
    def test_out_of_range_order_is_rejected(
        self, hand_corpus, hp, post_order, link_order
    ):
        _native()
        state = _init(hand_corpus, np.random.default_rng(0), C=3, K=2)
        cache = SweepCache(state, hp)
        bad_links = max(link_order) >= state.num_links or min(link_order) < 0
        # A bad link order is found after the post loop ran, as in the
        # reference sweep; only the rejected loop must leave no trace.
        untouched = (2, 3) if bad_links else (0, 1, 2, 3)
        before = _chain_arrays(state)
        with pytest.raises(IndexError):
            sweep(state, hp, np.random.default_rng(1), post_order=post_order,
                  link_order=link_order, cache=cache)
        after = _chain_arrays(state)
        for index in untouched:
            np.testing.assert_array_equal(before[index], after[index])
        state.check_invariants()
        cache.check_consistency(state)

    def test_cache_rejects_another_corpus(self, hand_corpus, tiny_corpus, hp):
        _native()
        cache = SweepCache(_init(hand_corpus, np.random.default_rng(0)), hp)
        other = _init(tiny_corpus, np.random.default_rng(0))
        with pytest.raises(ValueError, match="another corpus"):
            sweep(other, hp, np.random.default_rng(1), cache=cache)


class TestNativeLoader:
    def test_native_kernel_loaded_whenever_cc_exists(self):
        """CI must not go green on the reference fallback."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        assert fastgibbs.native_kernel() is not None

    @pytest.mark.parametrize("edited", ["source", "header"])
    def test_library_name_keys_on_every_compiled_file(
        self, monkeypatch, tmp_path, edited
    ):
        """Editing any file the compile reads, a header included, names a
        new library, so a stale cached build is never loaded."""
        copies = []
        for path in (*fastgibbs._SOURCES, *fastgibbs._HEADERS):
            copy = tmp_path / path.name
            copy.write_bytes(path.read_bytes())
            copies.append(copy)
        sources, headers = (
            tuple(copies[: len(fastgibbs._SOURCES)]),
            tuple(copies[len(fastgibbs._SOURCES):]),
        )
        assert [path.name for path in headers] == ["_pcg64.h"]
        monkeypatch.setattr(fastgibbs, "_SOURCES", sources)
        monkeypatch.setattr(fastgibbs, "_HEADERS", headers)
        name = fastgibbs._library_name()
        target = (sources if edited == "source" else headers)[-1]
        target.write_bytes(target.read_bytes() + b"\n")
        assert fastgibbs._library_name() != name

    def test_library_name_keys_on_the_cpu(self, monkeypatch):
        """A build tuned for one CPU is never loaded on another that
        shares the cache directory."""
        name = fastgibbs._library_name()
        monkeypatch.setattr(
            fastgibbs, "_cpu_identity", lambda: b"flags\t\t: fpu sse2"
        )
        assert fastgibbs._library_name() != name

    def test_compiler_rejecting_march_native_builds_portable(
        self, monkeypatch, tmp_path
    ):
        """A ``cc`` without ``-march=native`` still yields the native
        library (built with the portable flags), not the reference
        fallback."""
        real = shutil.which("cc")
        if real is None:
            pytest.skip("no C compiler on PATH")
        calls = tmp_path / "calls"
        fake = tmp_path / "cc"
        fake.write_text(
            "#!/bin/sh\n"
            f'echo "$*" >> "{calls}"\n'
            'for arg in "$@"; do\n'
            '  if [ "$arg" = "-march=native" ]; then\n'
            "    echo \"cc: error: unrecognized option '$arg'\" >&2; exit 1\n"
            "  fi\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        fake.chmod(0o700)
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(fastgibbs.shutil, "which", lambda name: str(fake))
        monkeypatch.setattr(fastgibbs, "_library", fastgibbs._UNLOADED)
        lib = fastgibbs.native_kernel()
        assert lib is not None
        native, portable = calls.read_text().splitlines()
        assert "-march=native" in native.split()
        assert "-march=native" not in portable.split()
        x = np.arange(20.0)
        assert lib.cold_reduce_sum(_ptr(x), 20) == np.add.reduce(x)

    def test_package_data_ships_every_compiled_file(self):
        """A wheel missing any source or header cannot hash the compile's
        inputs, and every native kernel would fall back to Python."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            config = tomllib.load(handle)
        patterns = config["tool"]["setuptools"]["package-data"]["repro.core"]
        unshipped = [
            path.name
            for path in (*fastgibbs._SOURCES, *fastgibbs._HEADERS)
            if not any(fnmatch.fnmatch(path.name, pattern) for pattern in patterns)
        ]
        assert not unshipped, f"package-data {patterns} misses {unshipped}"

    def test_unwritable_home_cache_builds_in_private_temp_dir(
        self, monkeypatch, tmp_path
    ):
        """When ``~/.cache/repro`` cannot be created (here: HOME is a
        regular file) the build goes to a per-user temp directory."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        home = tmp_path / "home"
        home.write_text("not a directory")
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(fastgibbs.tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(fastgibbs, "_library", fastgibbs._UNLOADED)
        assert fastgibbs.native_kernel() is not None
        private = tmp_path / f"repro-{os.getuid()}"
        assert stat.S_IMODE(private.stat().st_mode) == 0o700
        assert [path.name for path in private.iterdir()] == [
            fastgibbs._library_name()
        ]

    @pytest.mark.parametrize("shared", ["directory", "library"])
    def test_library_writable_by_others_is_neither_loaded_nor_rebuilt(
        self, monkeypatch, tmp_path, caplog, shared
    ):
        """A genuine build planted where group or others could have
        written it is refused, and nothing is written next to it."""
        genuine = _native()
        home = tmp_path / "home"
        cache = home / ".cache" / "repro"
        cache.mkdir(parents=True, mode=0o700)
        planted = cache / fastgibbs._library_name()
        shutil.copyfile(genuine._name, planted)
        planted.chmod(0o755)
        (cache if shared == "directory" else planted).chmod(0o777)
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(fastgibbs, "_library", fastgibbs._UNLOADED)
        with caplog.at_level(logging.WARNING, logger="repro.core.fastgibbs"):
            assert fastgibbs.native_kernel() is None
        assert "not private to this user" in caplog.text
        assert list(cache.iterdir()) == [planted]
        assert planted.read_bytes() == Path(genuine._name).read_bytes()

    def test_no_compiler_falls_back_to_reference_with_one_warning(
        self, tiny_corpus, monkeypatch, tmp_path, caplog
    ):
        from repro.core.model import COLDModel
        from repro.parallel.sampler import ParallelCOLDSampler

        monkeypatch.setattr(fastgibbs, "_library", fastgibbs._UNLOADED)
        monkeypatch.setattr(fastgibbs, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(fastgibbs.shutil, "which", lambda name: None)
        kwargs = dict(num_communities=3, num_topics=4, prior="scaled", seed=0)
        with caplog.at_level(logging.WARNING, logger="repro.core.fastgibbs"):
            fast = COLDModel(**kwargs).fit(tiny_corpus, num_iterations=3)
            procs = ParallelCOLDSampler(
                num_nodes=2, executor="processes", num_workers=2, **kwargs
            ).fit(tiny_corpus, num_iterations=3)
        assert fastgibbs.native_kernel() is None
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING
                    and r.name == "repro.core.fastgibbs"]
        assert len(warnings) == 1
        ref = COLDModel(fast=False, **kwargs).fit(tiny_corpus, num_iterations=3)
        ref_procs = ParallelCOLDSampler(
            num_nodes=2, fast=False, **kwargs
        ).fit(tiny_corpus, num_iterations=3)
        for field in ("pi", "theta", "phi", "psi", "eta"):
            np.testing.assert_array_equal(
                getattr(fast.estimates_, field), getattr(ref.estimates_, field)
            )
        for name in ("post_comm", "post_topic", "link_src_comm",
                     "link_dst_comm"):
            np.testing.assert_array_equal(
                getattr(procs.state_, name), getattr(ref_procs.state_, name)
            )
