"""Point estimates of the collapsed distributions (paper Appendix A).

Given a Gibbs sample (a :class:`~repro.core.state.CountState`), the
posterior-mean estimates are smoothed relative frequencies::

    pi_ic    = (n_i^c  + rho) / (n_i^.  + C rho)
    theta_ck = (n_c^k  + alpha) / (n_c^. + K alpha)
    phi_kv   = (n_k^v  + beta) / (n_k^.  + V beta)
    psi_kct  = (n_ck^t + eps) / (n_ck^. + T eps)
    eta_cc'  = (n_cc'  + lambda1) / (n_cc' + lambda0 + lambda1)

Final predictive estimates average these across several post-burn-in
samples, as the paper prescribes ("integrating across the samples").
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import Hyperparameters
from .state import CountState


class EstimateError(ValueError):
    """Raised for malformed estimate collections."""


@dataclass
class ParameterEstimates:
    """The five estimated distributions, in the paper's notation.

    * ``pi``    — ``(U, C)``, rows sum to 1;
    * ``theta`` — ``(C, K)``, rows sum to 1;
    * ``phi``   — ``(K, V)``, rows sum to 1;
    * ``psi``   — ``(K, C, T)``, trailing axis sums to 1;
    * ``eta``   — ``(C, C)``, entries in (0, 1) (not a simplex).
    """

    pi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    eta: np.ndarray

    @property
    def num_users(self) -> int:
        return self.pi.shape[0]

    @property
    def num_communities(self) -> int:
        return self.pi.shape[1]

    @property
    def num_topics(self) -> int:
        return self.theta.shape[1]

    @property
    def num_time_slices(self) -> int:
        return self.psi.shape[2]

    @property
    def vocab_size(self) -> int:
        return self.phi.shape[1]

    def validate(self, atol: float = 1e-8) -> None:
        """Check shapes agree and every distribution is proper."""
        U, C = self.pi.shape
        C2, K = self.theta.shape
        K2, V = self.phi.shape
        K3, C3, T = self.psi.shape
        if not (C == C2 == C3 == self.eta.shape[0] == self.eta.shape[1]):
            raise EstimateError("community dimensions disagree across estimates")
        if not (K == K2 == K3):
            raise EstimateError("topic dimensions disagree across estimates")
        for name, array, axis in (
            ("pi", self.pi, 1),
            ("theta", self.theta, 1),
            ("phi", self.phi, 1),
            ("psi", self.psi, 2),
        ):
            sums = array.sum(axis=axis)
            if not np.allclose(sums, 1.0, atol=atol):
                raise EstimateError(f"{name} rows do not sum to 1")
            if (array < 0).any():
                raise EstimateError(f"{name} has negative entries")
        if ((self.eta < 0) | (self.eta > 1)).any():
            raise EstimateError("eta entries must lie in [0, 1]")

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Atomically persist all five arrays to an uncompressed ``.npz``.

        Written via temp-file + ``os.replace`` so a crash mid-save never
        leaves a truncated archive behind.  Uncompressed: on these float
        arrays deflate saves ~6% of disk for a many-fold slower save and
        load.  :meth:`load` reads compressed archives too.
        """
        from ..resilience.checkpoint import atomic_write

        path = Path(path)
        with atomic_write(path) as tmp:
            with tmp.open("wb") as handle:
                np.savez(
                    handle, pi=self.pi, theta=self.theta, phi=self.phi,
                    psi=self.psi, eta=self.eta,
                )

    @classmethod
    def load(cls, path: str | Path) -> "ParameterEstimates":
        """Load estimates written by :meth:`save`.

        Raises :class:`EstimateError` (never a bare ``KeyError``/zip error)
        on missing arrays or corrupted archives; missing files surface as
        ``FileNotFoundError``.
        """
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"no estimates file at {path}")
        try:
            with np.load(path) as data:
                estimates = cls(
                    pi=data["pi"], theta=data["theta"], phi=data["phi"],
                    psi=data["psi"], eta=data["eta"],
                )
        except KeyError as exc:
            raise EstimateError(f"{path}: missing estimate array {exc}") from exc
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise EstimateError(f"{path}: corrupted estimates file: {exc}") from exc
        estimates.validate()
        return estimates


def estimate_from_state(state: CountState, hp: Hyperparameters) -> ParameterEstimates:
    """Appendix-A point estimates from a single Gibbs sample."""
    C, K = state.num_communities, state.num_topics
    V = state.n_topic_word.shape[1]
    T = state.n_comm_topic_time.shape[2]

    pi = (state.n_user_comm + hp.rho) / (
        state.n_user_comm.sum(axis=1, keepdims=True) + C * hp.rho
    )
    theta = (state.n_comm_topic + hp.alpha) / (
        state.n_comm_topic.sum(axis=1, keepdims=True) + K * hp.alpha
    )
    phi = (state.n_topic_word + hp.beta) / (
        state.n_topic_total[:, None] + V * hp.beta
    )
    # psi is indexed (k, c, t) in the paper; counters are (c, k, t).
    counts_kct = state.n_comm_topic_time.transpose(1, 0, 2)
    psi = (counts_kct + hp.epsilon) / (
        counts_kct.sum(axis=2, keepdims=True) + T * hp.epsilon
    )
    eta = (state.n_link_comm + hp.lambda1) / (
        state.n_link_comm + hp.lambda0 + hp.lambda1
    )
    return ParameterEstimates(pi=pi, theta=theta, phi=phi, psi=psi, eta=eta)


def average_estimates(samples: list[ParameterEstimates]) -> ParameterEstimates:
    """Average point estimates across Gibbs samples (predictive estimate).

    All samples must share shapes.  A single sample is returned unchanged.
    """
    if not samples:
        raise EstimateError("cannot average an empty sample list")
    first = samples[0]
    if len(samples) == 1:
        return first
    for other in samples[1:]:
        if (
            other.pi.shape != first.pi.shape
            or other.theta.shape != first.theta.shape
            or other.phi.shape != first.phi.shape
            or other.psi.shape != first.psi.shape
            or other.eta.shape != first.eta.shape
        ):
            raise EstimateError("sample shapes disagree; cannot average")
    n = float(len(samples))
    return ParameterEstimates(
        pi=sum(s.pi for s in samples) / n,
        theta=sum(s.theta for s in samples) / n,
        phi=sum(s.phi for s in samples) / n,
        psi=sum(s.psi for s in samples) / n,
        eta=sum(s.eta for s in samples) / n,
    )
