"""Dirichlet hyper-parameter estimation via Minka's fixed-point updates.

The paper fixes its Dirichlet hyper-parameters by rule of thumb (§6.5) and
reports low sensitivity.  This optional extension estimates symmetric
concentrations from the Gibbs count matrices instead — Minka's fixed-point
iteration for the Dirichlet-multinomial likelihood::

    a_new = a * sum_j sum_i [Psi(n_ij + a) - Psi(a)]
              / ( J * sum_i [Psi(n_i. + d a) - Psi(d a)] ... )

specialised to the symmetric case with ``d`` categories and one count row
per group.  Useful when fitting corpora whose scale is far from both the
paper's rules and the ``scaled`` operating point.
"""

from __future__ import annotations

import numpy as np

from .params import Hyperparameters, ParameterError
from .state import CountState


class HyperoptError(ValueError):
    """Raised for invalid hyper-parameter optimisation inputs."""


def symmetric_dirichlet_mle(
    counts: np.ndarray,
    initial: float = 1.0,
    num_iterations: int = 200,
    tolerance: float = 1e-6,
    floor: float = 1e-4,
    ceiling: float = 1e4,
) -> float:
    """Fixed-point MLE of a symmetric Dirichlet concentration.

    ``counts`` has shape ``(groups, categories)``: each row is one draw
    from the Dirichlet observed ``row.sum()`` times.  Returns the
    concentration *per category* (i.e. the ``alpha`` in ``Dir(alpha,...,
    alpha)``), clipped to ``[floor, ceiling]``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.size == 0:
        raise HyperoptError("counts must be a non-empty 2-D array")
    if (counts < 0).any():
        raise HyperoptError("counts must be non-negative")
    if initial <= 0:
        raise HyperoptError("initial concentration must be positive")
    rows_with_data = counts[counts.sum(axis=1) > 0]
    if len(rows_with_data) == 0:
        raise HyperoptError("every count row is empty")
    counts = rows_with_data
    _groups, categories = counts.shape
    totals = counts.sum(axis=1)

    from scipy.special import psi as digamma

    alpha = float(initial)
    for _ in range(num_iterations):
        numerator = (digamma(counts + alpha) - digamma(alpha)).sum()
        denominator = categories * (
            digamma(totals + categories * alpha)
            - digamma(categories * alpha)
        ).sum()
        if denominator <= 0:
            break
        alpha_new = alpha * numerator / denominator
        alpha_new = float(np.clip(alpha_new, floor, ceiling))
        if abs(alpha_new - alpha) < tolerance * alpha:
            alpha = alpha_new
            break
        alpha = alpha_new
    return alpha


def optimize_hyperparameters(
    state: CountState, current: Hyperparameters
) -> Hyperparameters:
    """Re-estimate ``rho``, ``alpha``, ``beta`` and ``epsilon`` from the
    current Gibbs counts, keeping the network priors unchanged.

    Intended use: periodically inside a long fit (empirical Bayes), or
    once after burn-in to sanity-check the rule-of-thumb settings.
    """
    rho = symmetric_dirichlet_mle(state.n_user_comm, initial=current.rho)
    alpha = symmetric_dirichlet_mle(state.n_comm_topic, initial=current.alpha)
    beta = symmetric_dirichlet_mle(state.n_topic_word, initial=current.beta)
    T = state.n_comm_topic_time.shape[2]
    time_counts = state.n_comm_topic_time.reshape(-1, T)
    epsilon = symmetric_dirichlet_mle(time_counts, initial=current.epsilon)
    try:
        return Hyperparameters(
            rho=rho,
            alpha=alpha,
            beta=beta,
            epsilon=epsilon,
            lambda0=current.lambda0,
            lambda1=current.lambda1,
        )
    except ParameterError as exc:  # pragma: no cover - clipped upstream
        raise HyperoptError(f"optimised values invalid: {exc}") from exc
