"""Clustering-quality metrics for community recovery evaluation.

The paper evaluates communities indirectly (link prediction) because Weibo
has no ground-truth labels.  Our synthetic substitute *does* plant labels,
enabling direct measurement: normalised mutual information (NMI) and
best-matching accuracy (optimal label alignment via the Hungarian
algorithm).  Both are standard in the community-detection literature the
paper cites [17, 28].
"""

from __future__ import annotations

import numpy as np


class ClusteringError(ValueError):
    """Raised for invalid clustering-metric inputs."""


def _check_labels(predicted: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ClusteringError("label arrays must be equal-length 1-D")
    if predicted.size == 0:
        raise ClusteringError("label arrays must be non-empty")
    if predicted.min() < 0 or truth.min() < 0:
        raise ClusteringError("labels must be non-negative")
    return predicted, truth


def contingency_table(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Joint count matrix ``table[p, t]`` over label pairs."""
    predicted, truth = _check_labels(predicted, truth)
    num_pred = int(predicted.max()) + 1
    num_true = int(truth.max()) + 1
    table = np.zeros((num_pred, num_true), dtype=np.int64)
    np.add.at(table, (predicted, truth), 1)
    return table


def normalized_mutual_information(
    predicted: np.ndarray, truth: np.ndarray
) -> float:
    """NMI with arithmetic-mean normalisation, in [0, 1].

    1.0 for identical partitions (up to relabelling), ~0 for independent
    ones.  Degenerate single-cluster partitions on both sides score 1.0
    (they are identical); a single cluster against a varied truth scores 0.
    """
    table = contingency_table(predicted, truth).astype(np.float64)
    n = table.sum()
    joint = table / n
    p_pred = joint.sum(axis=1)
    p_true = joint.sum(axis=0)

    def entropy(p: np.ndarray) -> float:
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())

    h_pred, h_true = entropy(p_pred), entropy(p_true)
    outer = np.outer(p_pred, p_true)
    mask = joint > 0
    mutual = float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())
    if h_pred == 0 and h_true == 0:
        return 1.0
    denominator = (h_pred + h_true) / 2
    if denominator == 0:
        return 0.0
    return max(0.0, min(1.0, mutual / denominator))


def best_matching_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of items whose predicted label maps to their true label
    under the optimal (Hungarian) one-to-one label alignment."""
    from scipy.optimize import linear_sum_assignment

    table = contingency_table(predicted, truth)
    # Pad to square so the assignment is total.
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(-padded)
    matched = padded[rows, cols].sum()
    return float(matched) / float(table.sum())


def distribution_alignment(
    reference: np.ndarray,
    candidate: np.ndarray,
    method: str = "hungarian",
) -> tuple[np.ndarray, np.ndarray]:
    """Match the *rows* of two stacked distributions (label switching).

    Gibbs chains identify the same topics/communities up to a permutation
    of the latent indices; before any cross-chain comparison the rows of
    one chain's ``phi``/``theta`` must be mapped onto the other's.  The
    similarity is the Pearson correlation between rows; ``"hungarian"``
    solves the optimal one-to-one assignment, ``"greedy"`` takes the best
    remaining pair repeatedly (linear-log cost, and what the dynamic
    topic-network reproductions use — kept as the cheap cross-check).

    Returns ``(permutation, correlations)``: ``permutation[i]`` is the
    candidate row matched to reference row ``i``, ``correlations[i]`` the
    matched Pearson correlation.
    """
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape or reference.ndim != 2:
        raise ClusteringError("alignment inputs must be equal-shape 2-D arrays")
    R = reference.shape[0]
    if R < 1:
        raise ClusteringError("need at least one row to align")
    if method not in ("hungarian", "greedy"):
        raise ClusteringError(f"method must be 'hungarian' or 'greedy', got {method!r}")
    correlation = np.corrcoef(reference, candidate)[:R, R:]
    correlation = np.nan_to_num(correlation)
    permutation = np.empty(R, dtype=np.int64)
    matched = np.empty(R, dtype=np.float64)
    if method == "hungarian":
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-correlation)
        for r, c in zip(rows, cols):
            permutation[r] = c
            matched[r] = correlation[r, c]
    else:
        remaining = correlation.copy()
        for _ in range(R):
            r, c = np.unravel_index(np.argmax(remaining), remaining.shape)
            permutation[r] = c
            matched[r] = correlation[r, c]
            remaining[r, :] = -np.inf
            remaining[:, c] = -np.inf
    return permutation, matched


def topic_alignment(
    reference_phi: np.ndarray,
    candidate_phi: np.ndarray,
    method: str = "hungarian",
) -> tuple[np.ndarray, np.ndarray]:
    """Align a chain's topics to a reference chain's via their ``phi`` rows.

    The topic-space twin of :func:`membership_alignment`: cross-chain
    convergence statistics on per-topic quantities are meaningless until
    topic ``k`` of every chain denotes the same topic, which this mapping
    provides.  ``permutation[k]`` is the candidate topic matched to
    reference topic ``k``.
    """
    return distribution_alignment(reference_phi, candidate_phi, method=method)


def membership_alignment(
    estimated_pi: np.ndarray, true_pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Align estimated soft memberships to planted ones.

    Returns ``(permutation, correlations)``: ``permutation[c]`` is the true
    community matched to estimated community ``c``, and ``correlations[c]``
    the Pearson correlation of the matched membership columns.
    """
    if estimated_pi.shape != true_pi.shape:
        raise ClusteringError("membership matrices must share a shape")
    if estimated_pi.ndim != 2 or estimated_pi.shape[1] < 1:
        raise ClusteringError("need at least one community")
    return distribution_alignment(estimated_pi.T, true_pi.T)


def community_recovery_report(
    estimated_pi: np.ndarray, true_pi: np.ndarray
) -> dict[str, float]:
    """One-call recovery summary: hard-label NMI + accuracy + mean
    aligned membership correlation."""
    predicted = estimated_pi.argmax(axis=1)
    truth = true_pi.argmax(axis=1)
    _permutation, correlations = membership_alignment(estimated_pi, true_pi)
    return {
        "nmi": normalized_mutual_information(predicted, truth),
        "accuracy": best_matching_accuracy(predicted, truth),
        "mean_membership_correlation": float(correlations.mean()),
    }
