"""Evaluation harness: the paper's metrics and cross-validation protocols."""

from .auc import AUCError, averaged_diffusion_auc, link_prediction_auc, roc_auc
from .clustering import (
    ClusteringError,
    best_matching_accuracy,
    community_recovery_report,
    contingency_table,
    distribution_alignment,
    membership_alignment,
    normalized_mutual_information,
    topic_alignment,
)
from .coherence import (
    CoherenceError,
    CooccurrenceIndex,
    mean_coherence,
    topic_coherences,
    umass_coherence,
    umass_coherences,
)
from .crossval import (
    CrossValError,
    CVResult,
    cross_validate_links,
    cross_validate_posts,
)
from .perplexity import PerplexityError, cold_perplexity, perplexity
from .timestamp import (
    TimestampError,
    accuracy_at_tolerance,
    accuracy_curve,
    prediction_errors,
)
from .timing import Stopwatch, TimingError, TimingTable, time_callable

__all__ = [
    "AUCError",
    "CVResult",
    "ClusteringError",
    "CoherenceError",
    "CooccurrenceIndex",
    "CrossValError",
    "PerplexityError",
    "Stopwatch",
    "TimestampError",
    "TimingError",
    "TimingTable",
    "accuracy_at_tolerance",
    "accuracy_curve",
    "averaged_diffusion_auc",
    "best_matching_accuracy",
    "cold_perplexity",
    "community_recovery_report",
    "contingency_table",
    "cross_validate_links",
    "cross_validate_posts",
    "distribution_alignment",
    "link_prediction_auc",
    "mean_coherence",
    "membership_alignment",
    "normalized_mutual_information",
    "perplexity",
    "prediction_errors",
    "roc_auc",
    "time_callable",
    "topic_alignment",
    "topic_coherences",
    "umass_coherence",
    "umass_coherences",
]
