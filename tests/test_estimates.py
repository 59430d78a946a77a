"""Unit tests for repro.core.estimates (Appendix-A point estimates)."""

import zipfile

import numpy as np
import pytest

from repro.core.estimates import (
    EstimateError,
    ParameterEstimates,
    average_estimates,
    estimate_from_state,
)
from repro.core.params import Hyperparameters
from repro.core.state import CountState


@pytest.fixture()
def hp() -> Hyperparameters:
    return Hyperparameters(
        rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=2.0, lambda1=0.1
    )


@pytest.fixture()
def state(hand_corpus, rng) -> CountState:
    return CountState.initialize(hand_corpus, num_communities=3, num_topics=2, rng=rng)


class TestEstimateFromState:
    def test_estimates_validate(self, state, hp):
        estimate_from_state(state, hp).validate()

    def test_pi_formula(self, state, hp):
        est = estimate_from_state(state, hp)
        i = 0
        C = state.num_communities
        expected = (state.n_user_comm[i] + hp.rho) / (
            state.n_user_comm[i].sum() + C * hp.rho
        )
        np.testing.assert_allclose(est.pi[i], expected)

    def test_theta_formula(self, state, hp):
        est = estimate_from_state(state, hp)
        c = 1
        K = state.num_topics
        expected = (state.n_comm_topic[c] + hp.alpha) / (
            state.n_comm_topic[c].sum() + K * hp.alpha
        )
        np.testing.assert_allclose(est.theta[c], expected)

    def test_phi_formula(self, state, hp):
        est = estimate_from_state(state, hp)
        k = 0
        V = state.n_topic_word.shape[1]
        expected = (state.n_topic_word[k] + hp.beta) / (
            state.n_topic_total[k] + V * hp.beta
        )
        np.testing.assert_allclose(est.phi[k], expected)

    def test_psi_axis_order_is_topic_community_time(self, state, hp):
        est = estimate_from_state(state, hp)
        k, c = 1, 2
        T = state.n_comm_topic_time.shape[2]
        expected = (state.n_comm_topic_time[c, k] + hp.epsilon) / (
            state.n_comm_topic_time[c, k].sum() + T * hp.epsilon
        )
        np.testing.assert_allclose(est.psi[k, c], expected)

    def test_eta_formula(self, state, hp):
        est = estimate_from_state(state, hp)
        expected = (state.n_link_comm + hp.lambda1) / (
            state.n_link_comm + hp.lambda0 + hp.lambda1
        )
        np.testing.assert_allclose(est.eta, expected)


class TestValidation:
    def test_detects_unnormalised_rows(self, state, hp):
        est = estimate_from_state(state, hp)
        est.pi[0, 0] += 0.5
        with pytest.raises(EstimateError, match="pi"):
            est.validate()

    def test_detects_dimension_mismatch(self, state, hp):
        est = estimate_from_state(state, hp)
        est.eta = est.eta[:2, :2]
        with pytest.raises(EstimateError, match="community"):
            est.validate()

    def test_detects_eta_out_of_range(self, state, hp):
        est = estimate_from_state(state, hp)
        est.eta[0, 0] = 1.5
        with pytest.raises(EstimateError, match="eta"):
            est.validate()

    def test_shape_properties(self, estimates, tiny_corpus):
        assert estimates.num_users == tiny_corpus.num_users
        assert estimates.num_communities == 3
        assert estimates.num_topics == 4
        assert estimates.num_time_slices == tiny_corpus.num_time_slices
        assert estimates.vocab_size == tiny_corpus.vocab_size


class TestAveraging:
    def test_single_sample_passthrough(self, state, hp):
        est = estimate_from_state(state, hp)
        assert average_estimates([est]) is est

    def test_average_of_identical_samples_is_identity(self, state, hp):
        est = estimate_from_state(state, hp)
        avg = average_estimates([est, est, est])
        np.testing.assert_allclose(avg.pi, est.pi)
        np.testing.assert_allclose(avg.psi, est.psi)

    def test_average_is_elementwise_mean(self, state, hp, rng):
        est1 = estimate_from_state(state, hp)
        # Perturb the state and re-estimate for a genuinely different sample.
        c, k = state.remove_post(0)
        state.add_post(0, (c + 1) % 3, k)
        est2 = estimate_from_state(state, hp)
        avg = average_estimates([est1, est2])
        np.testing.assert_allclose(avg.theta, (est1.theta + est2.theta) / 2)
        avg.validate()
        state.remove_post(0)
        state.add_post(0, c, k)

    def test_empty_list_raises(self):
        with pytest.raises(EstimateError):
            average_estimates([])

    def test_shape_mismatch_raises(self, state, hp, hand_corpus, rng):
        est1 = estimate_from_state(state, hp)
        other = CountState.initialize(hand_corpus, 2, 2, rng)
        est2 = estimate_from_state(other, hp)
        with pytest.raises(EstimateError):
            average_estimates([est1, est2])


class TestPersistence:
    def test_save_load_roundtrip(self, estimates, tmp_path):
        path = tmp_path / "est.npz"
        estimates.save(path)
        loaded = ParameterEstimates.load(path)
        np.testing.assert_allclose(loaded.pi, estimates.pi)
        np.testing.assert_allclose(loaded.theta, estimates.theta)
        np.testing.assert_allclose(loaded.phi, estimates.phi)
        np.testing.assert_allclose(loaded.psi, estimates.psi)
        np.testing.assert_allclose(loaded.eta, estimates.eta)

    def test_save_writes_uncompressed_archive(self, estimates, tmp_path):
        path = tmp_path / "est.npz"
        estimates.save(path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_compressed_archive_still_loads(self, estimates, tmp_path):
        """Models saved before archives went uncompressed keep loading."""
        path = tmp_path / "est.npz"
        np.savez_compressed(
            path, pi=estimates.pi, theta=estimates.theta, phi=estimates.phi,
            psi=estimates.psi, eta=estimates.eta,
        )
        loaded = ParameterEstimates.load(path)
        for name in ("pi", "theta", "phi", "psi", "eta"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(estimates, name)
            )

    def test_load_validates(self, estimates, tmp_path):
        path = tmp_path / "est.npz"
        broken = ParameterEstimates(
            pi=estimates.pi * 2,  # rows no longer sum to 1
            theta=estimates.theta,
            phi=estimates.phi,
            psi=estimates.psi,
            eta=estimates.eta,
        )
        np.savez_compressed(
            path, pi=broken.pi, theta=broken.theta, phi=broken.phi,
            psi=broken.psi, eta=broken.eta,
        )
        with pytest.raises(EstimateError):
            ParameterEstimates.load(path)
