"""Collapsed joint log-likelihood and convergence monitoring (paper §4.3).

The paper "monitors the convergence of the algorithm by periodically
computing the likelihood of training data".  With all multinomials
collapsed, the joint probability of assignments + observations factorises
into Dirichlet-multinomial (Polya) marginals — one per Dirichlet block —
plus a Beta-Bernoulli marginal per community pair for the positive links
(Eq. 9 of Appendix A after integration).

Each block contributes::

    log DirMult(counts; conc) = log Gamma(A) - log Gamma(A + N)
        + sum_j [ log Gamma(counts_j + conc) - log Gamma(conc) ]

with ``A = dim * conc`` and ``N = counts.sum()``.

Every Gamma argument is an integer count plus a fixed concentration, so
each sum is taken over the histogram of the counts rather than over the
table: ``sum_j [lnG(n_j + c) - lnG(c)] = sum_v freq(v) [lnG(v + c) -
lnG(c)]``, with ``math.lgamma`` evaluated once per distinct non-zero
count.  A ``(K, V)`` word table holds at most a few thousand distinct
counts, so the likelihood costs one histogram pass over each counter.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .params import Hyperparameters
from .state import CountState


def _count_histogram(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct non-zero values of a count array and how often each occurs.

    Accepts any integer array, or a float array holding integer values;
    rejects negative or non-integral entries.  Small arrays of large
    counts (per-block totals) are histogrammed by sorting, so the
    histogram never spans more than a few times the array's size.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind != "i":
        with np.errstate(invalid="ignore"):
            integral = counts.astype(np.intp)
        if not np.array_equal(integral, counts):
            raise ValueError("counts must be integer-valued")
        counts = integral
    flat = counts.ravel()
    if flat.size == 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    if int(flat.max()) <= 4 * flat.size + 1024:
        try:
            freq = np.bincount(flat)
        except ValueError:
            raise ValueError("counts must be non-negative") from None
        values = np.flatnonzero(freq)
        freq = freq[values]
    else:
        values, freq = np.unique(flat, return_counts=True)
        if values[0] < 0:
            raise ValueError("counts must be non-negative")
    nonzero = values > 0
    return values[nonzero], freq[nonzero]


def _log_rising_sum(
    histogram: tuple[np.ndarray, np.ndarray], concentration: float
) -> float:
    """``sum_j [lnG(n_j + c) - lnG(c)]`` from the histogram of the ``n_j``.

    Zero counts contribute nothing, so only the distinct non-zero values
    reach ``math.lgamma``.
    """
    values, freq = histogram
    base = math.lgamma(concentration)
    terms = np.fromiter(
        (math.lgamma(v + concentration) - base for v in values.tolist()),
        dtype=np.float64,
        count=len(values),
    )
    return float(np.dot(freq.astype(np.float64), terms))


def _dirichlet_multinomial_block(counts: np.ndarray, concentration: float) -> float:
    """Sum of log Dirichlet-multinomial marginals over the leading axes.

    ``counts`` has shape ``(..., dim)``; each leading index is one Dirichlet
    draw observed ``counts[..., :].sum()`` times.
    """
    dim = counts.shape[-1]
    cells = _count_histogram(counts)
    totals = _count_histogram(counts.sum(axis=-1))
    return _log_rising_sum(cells, concentration) - _log_rising_sum(
        totals, dim * concentration
    )


def joint_log_likelihood(state: CountState, hp: Hyperparameters) -> float:
    """Collapsed ``log P(c, s, z, w, t, e | priors)`` up to a constant.

    Monotone-in-expectation during Gibbs burn-in, which is what makes it a
    usable convergence signal; it is *not* comparable across different
    (C, K) settings (dimension-dependent constants differ).
    """
    total = 0.0
    # P(c, s | rho): one Dirichlet block per user over communities.
    total += _dirichlet_multinomial_block(state.n_user_comm, hp.rho)
    # P(z | c, alpha): one block per community over topics.
    total += _dirichlet_multinomial_block(state.n_comm_topic, hp.alpha)
    # P(w | z, beta): one block per topic over the vocabulary.
    total += _dirichlet_multinomial_block(state.n_topic_word, hp.beta)
    # P(t | c, z, eps): one block per (community, topic) over time slices.
    total += _dirichlet_multinomial_block(state.n_comm_topic_time, hp.epsilon)
    # P(e | s, lambda): Beta-Bernoulli marginal per (c, c') with only
    # positive observations (negatives live in lambda0).
    if state.num_links:
        pairs = _count_histogram(state.n_link_comm)
        total += _log_rising_sum(pairs, hp.lambda1) - _log_rising_sum(
            pairs, hp.lambda0 + hp.lambda1
        )
    return total


def diagnostic_scalars(
    state: CountState,
    hp: Hyperparameters,
    log_likelihood: float | None = None,
) -> dict:
    """The scalar chains convergence diagnostics track, from one sample.

    Returns a JSON-able dict with the joint log-likelihood (reused when
    the fit loop already computed it this sweep), the per-topic token
    counts (the occupancy vector whose stability signals topic mixing;
    label-switching-aware comparisons align it across chains first), and
    smoothed ``eta`` link-strength summaries (posterior-mean diagonal and
    off-diagonal averages — both invariant under community relabelling,
    so they compare across chains without alignment).
    """
    if log_likelihood is None:
        log_likelihood = joint_log_likelihood(state, hp)
    scalars: dict = {
        "log_likelihood": float(log_likelihood),
        "topic_tokens": [int(v) for v in state.n_topic_total],
    }
    if state.num_links:
        eta = (state.n_link_comm + hp.lambda1) / (
            state.n_link_comm + hp.lambda0 + hp.lambda1
        )
        diagonal = np.diagonal(eta)
        off_mask = ~np.eye(eta.shape[0], dtype=bool)
        scalars["eta_diag_mean"] = float(diagonal.mean())
        scalars["eta_offdiag_mean"] = (
            float(eta[off_mask].mean()) if off_mask.any() else 0.0
        )
    return scalars


@dataclass
class ConvergenceMonitor:
    """Tracks the likelihood trace and flags convergence.

    Convergence is declared when the relative improvement over the last
    ``window`` recorded values stays below ``tolerance`` — the pragmatic
    criterion used with likelihood traces in practice.
    """

    window: int = 5
    tolerance: float = 1e-4
    trace: list[float] = field(default_factory=list)
    #: Degenerate (uniform-fallback) categorical draws observed so far; the
    #: fit loop mirrors ``CountState.degenerate_draws`` here so numerical
    #: collapse is visible in the convergence report, not just the state.
    degenerate_draws: int = 0
    #: Telemetry sinks invoked with every recorded value (see
    #: :meth:`attach`); excluded from equality so monitors restored from
    #: checkpoints compare equal to fresh ones.
    _sinks: list[Callable[[float], None]] = field(
        default_factory=list, repr=False, compare=False
    )

    def attach(self, sink: Callable[[float], None]) -> None:
        """Forward every future :meth:`record` value to ``sink``.

        This is how the telemetry pipeline reuses the monitor's periodic
        evaluation — the likelihood lands in ``metrics.jsonl`` without a
        second :func:`joint_log_likelihood` pass.
        """
        self._sinks.append(sink)

    def record(self, value: float) -> None:
        if not np.isfinite(value):
            raise ValueError(f"non-finite likelihood {value}")
        self.trace.append(float(value))
        for sink in self._sinks:
            sink(value)

    def summary(self) -> dict[str, float | int | bool]:
        """Convergence report: trace length, best value, degeneracy tally."""
        return {
            "recorded": len(self.trace),
            "best": max(self.trace) if self.trace else float("nan"),
            "converged": self.converged,
            "degenerate_draws": self.degenerate_draws,
        }

    @property
    def converged(self) -> bool:
        if len(self.trace) <= self.window:
            return False
        recent = self.trace[-(self.window + 1):]
        span = max(recent) - min(recent)
        scale = abs(recent[-1]) + 1e-12
        return span / scale < self.tolerance

    @property
    def best(self) -> float:
        if not self.trace:
            raise ValueError("no likelihood recorded yet")
        return max(self.trace)
