"""Unit tests for repro.core.likelihood (collapsed joint LL + monitor)."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from repro.core.gibbs import sweep
from repro.core.likelihood import (
    ConvergenceMonitor,
    _dirichlet_multinomial_block,
    joint_log_likelihood,
)
from repro.core.params import Hyperparameters
from repro.core.state import CountState


@pytest.fixture()
def hp() -> Hyperparameters:
    return Hyperparameters(
        rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=2.0, lambda1=0.1
    )


class TestDirichletMultinomialBlock:
    def test_empty_counts_contribute_zero(self):
        counts = np.zeros((3, 4))
        assert _dirichlet_multinomial_block(counts, 0.5) == pytest.approx(0.0)

    def test_single_observation_value(self):
        """One draw from a symmetric Dirichlet-multinomial has probability
        conc / (dim * conc) = 1/dim."""
        counts = np.zeros((1, 4))
        counts[0, 2] = 1
        value = _dirichlet_multinomial_block(counts, 0.5)
        assert value == pytest.approx(math.log(1 / 4))

    def test_two_same_category_observations(self):
        """P(x1=j, x2=j) = (c/(4c)) * ((c+1)/(4c+1)) for conc c."""
        counts = np.zeros((1, 4))
        counts[0, 1] = 2
        c = 0.5
        expected = math.log(c / (4 * c)) + math.log((c + 1) / (4 * c + 1))
        assert _dirichlet_multinomial_block(counts, c) == pytest.approx(expected)

    def test_sums_over_leading_axes(self):
        counts = np.zeros((2, 3))
        counts[0, 0] = 1
        counts[1, 1] = 1
        single = _dirichlet_multinomial_block(counts[:1], 1.0)
        total = _dirichlet_multinomial_block(counts, 1.0)
        assert total == pytest.approx(2 * single)


def _scipy_block(counts: np.ndarray, concentration: float) -> float:
    """The Dirichlet-multinomial block as a direct elementwise ``gammaln`` sum."""
    dim = counts.shape[-1]
    totals = counts.sum(axis=-1)
    return float(
        (
            gammaln(dim * concentration)
            - gammaln(totals + dim * concentration)
            + (gammaln(counts + concentration) - gammaln(concentration)).sum(axis=-1)
        ).sum()
    )


def _scipy_joint(state: CountState, hp: Hyperparameters) -> float:
    """``joint_log_likelihood`` written elementwise over every counter."""
    total = (
        _scipy_block(state.n_user_comm, hp.rho)
        + _scipy_block(state.n_comm_topic, hp.alpha)
        + _scipy_block(state.n_topic_word, hp.beta)
        + _scipy_block(state.n_comm_topic_time, hp.epsilon)
    )
    if state.num_links:
        n = state.n_link_comm
        total += float(
            (
                gammaln(n + hp.lambda1)
                + gammaln(hp.lambda0 + hp.lambda1)
                - gammaln(n + hp.lambda0 + hp.lambda1)
                - gammaln(hp.lambda1)
            ).sum()
        )
    return total


class TestCountHistogramKernel:
    """The histogram kernel against the elementwise ``gammaln`` formula."""

    @pytest.mark.parametrize(
        "shape, mean",
        [((40, 2000), 3.0), ((3, 4, 9), 20.0), ((6, 5), 2e5), ((300, 7), 0.3)],
    )
    def test_matches_scipy_formula(self, shape, mean):
        counts = np.random.default_rng(4).poisson(mean, shape).astype(np.int64)
        for concentration in (0.01, 0.5, 7.0):
            want = _scipy_block(counts, concentration)
            got = _dirichlet_multinomial_block(counts, concentration)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_rows_and_large_counts(self):
        counts = np.zeros((5, 6), np.int64)
        counts[1] = [100_000, 0, 3, 250_000, 0, 1]
        counts[3, 2] = 123_457
        assert counts.max() >= 10**5
        want = _scipy_block(counts, 0.1)
        assert _dirichlet_multinomial_block(counts, 0.1) == pytest.approx(
            want, rel=1e-12
        )

    def test_joint_matches_scipy_formula(self, tiny_corpus, hp):
        rng = np.random.default_rng(2)
        state = CountState.initialize(tiny_corpus, 3, 4, rng)
        assert state.num_links and state.n_comm_topic_time.ndim == 3
        for _ in range(3):
            sweep(state, hp, rng)
            assert joint_log_likelihood(state, hp) == pytest.approx(
                _scipy_joint(state, hp), rel=1e-12
            )

    def test_accepts_integer_valued_floats(self):
        counts = np.array([[0, 2, 5], [1, 1, 0]])
        assert _dirichlet_multinomial_block(
            counts.astype(np.float64), 0.5
        ) == _dirichlet_multinomial_block(counts, 0.5)

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([[1, -1]]),
            np.array([[-1, 10**6]]),
            np.array([[0.5, 1.0]]),
            np.array([[np.nan, 1.0]]),
        ],
    )
    def test_rejects_negative_or_non_integral_counts(self, counts):
        with pytest.raises(ValueError):
            _dirichlet_multinomial_block(counts, 0.5)


def test_runtime_path_loads_no_scipy(tmp_path):
    """Import, fit, serve and stream without loading a single scipy module.

    SciPy stays an optional dependency of the baselines, Hungarian
    alignment and hyper-parameter estimation; the training, serving and
    streaming path must not pay its import.
    """
    script = textwrap.dedent(
        """
        import sys

        import repro
        import repro.cli
        from repro.core.model import COLDModel
        from repro.datasets.stream import CorpusStreamBuilder, PostEvent
        from repro.datasets.synthetic import SyntheticConfig, generate_corpus
        from repro.serving import ModelServer
        from repro.streaming import corpus_to_events, split_events

        corpus, _ = generate_corpus(SyntheticConfig(
            num_users=16, num_communities=2, num_topics=3, num_time_slices=4,
            vocab_size=40, mean_posts_per_user=4.0, seed=1,
        ))
        bootstrap, remainder = split_events(corpus_to_events(corpus), 0.6)
        builder = CorpusStreamBuilder(num_time_slices=4)
        for event in bootstrap:
            if isinstance(event, PostEvent):
                builder.add_post(event.author_key, event.tokens, event.time)
            else:
                builder.add_link(event.source_key, event.target_key, event.time)
        model = COLDModel(num_communities=2, num_topics=3, seed=0)
        model.fit(builder.build(incremental=True), num_iterations=3)
        model.stream_builder_ = builder
        ModelServer(model.estimates_, ic_simulations=5).influential(0)
        model.update(remainder)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


class TestJointLogLikelihood:
    def test_finite_and_negative(self, hand_corpus, hp, rng):
        state = CountState.initialize(hand_corpus, 3, 2, rng)
        value = joint_log_likelihood(state, hp)
        assert math.isfinite(value)
        assert value < 0

    def test_increases_during_burn_in_on_structured_data(self, tiny_corpus):
        """The Gibbs chain should (stochastically) improve the likelihood;
        compare start vs end averages to tolerate local noise."""
        hp = Hyperparameters(
            rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=5.0, lambda1=0.1
        )
        rng = np.random.default_rng(1)
        state = CountState.initialize(tiny_corpus, 3, 4, rng)
        trace = [joint_log_likelihood(state, hp)]
        for _ in range(15):
            sweep(state, hp, rng)
            trace.append(joint_log_likelihood(state, hp))
        assert np.mean(trace[-3:]) > np.mean(trace[:3])

    def test_depends_on_assignment_quality(self, tiny_corpus, tiny_truth, hp, rng):
        """Truth-aligned assignments must beat random ones."""
        random_state = CountState.initialize(tiny_corpus, 3, 4, rng)
        random_ll = joint_log_likelihood(random_state, hp)

        truth_state = CountState.initialize(tiny_corpus, 3, 4, rng)
        for p in range(truth_state.num_posts):
            truth_state.remove_post(p)
            truth_state.add_post(
                p,
                int(tiny_truth.post_communities[p]),
                int(tiny_truth.post_topics[p]),
            )
        truth_ll = joint_log_likelihood(truth_state, hp)
        assert truth_ll > random_ll

    def test_no_link_state_has_no_network_term(self, hand_corpus, hp, rng):
        with_links = CountState.initialize(hand_corpus, 3, 2, rng)
        without = CountState.initialize(
            hand_corpus, 3, 2, rng, include_network=False
        )
        # Both are finite; the no-link value excludes the Beta-Bernoulli term.
        assert math.isfinite(joint_log_likelihood(without, hp))
        assert math.isfinite(joint_log_likelihood(with_links, hp))


class TestConvergenceMonitor:
    def test_not_converged_before_window_filled(self):
        monitor = ConvergenceMonitor(window=3)
        for value in (-100.0, -99.0, -98.5):
            monitor.record(value)
        assert not monitor.converged

    def test_converged_on_flat_trace(self):
        monitor = ConvergenceMonitor(window=3, tolerance=1e-3)
        for value in [-100.0] * 6:
            monitor.record(value)
        assert monitor.converged

    def test_not_converged_on_improving_trace(self):
        monitor = ConvergenceMonitor(window=3, tolerance=1e-6)
        for value in (-100.0, -90.0, -80.0, -70.0, -60.0, -50.0):
            monitor.record(value)
        assert not monitor.converged

    def test_best_tracks_maximum(self):
        monitor = ConvergenceMonitor()
        for value in (-5.0, -2.0, -3.0):
            monitor.record(value)
        assert monitor.best == -2.0

    def test_best_requires_records(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor().best

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor().record(float("nan"))
