"""The paper's primary contribution: the COLD model and everything on top.

Layout mirrors the paper:

* ``params`` / ``state`` / ``gibbs`` / ``likelihood`` — collapsed Gibbs
  inference (§4, Appendix A);
* ``fastgibbs`` — the native sweep kernel (``_sweep.c``) and its cache
  (draws identical to ``gibbs``, benchmarked by ``repro.perf``), and the
  loader of the one native library, which also holds ``influence``'s
  Independent Cascade kernel (``_cascade.c``);
* ``config`` — the frozen :class:`COLDConfig` consumed by every entry point;
* ``estimates`` / ``model`` — the fitted model facade (§3);
* ``diffusion`` — topic-sensitive community influence, Eq. (4) / Fig. 5;
* ``prediction`` — diffusion, time-stamp and link prediction (§5.2, §6.2–3);
* ``patterns`` — diffusion-pattern analyses (§5.3, Figs. 6–8);
* ``influence`` — influential-community identification (§6.6, Fig. 16).
"""

from .diffusion import (
    CommunityDiffusionGraph,
    DiffusionEdge,
    DiffusionError,
    extract_diffusion_graph,
    zeta,
    zeta_for_topic,
)
from .config import COLDConfig, ConfigError, StreamConfig
from .estimates import (
    EstimateError,
    ParameterEstimates,
    average_estimates,
    estimate_from_state,
)
from .fastgibbs import SweepCache, fast_sweep
from .gibbs import (
    categorical,
    categorical_checked,
    link_weights,
    post_community_weights,
    post_topic_log_weights,
    resample_link,
    resample_post,
    sweep,
)
from .influence import (
    CommunityInfluence,
    InfluenceError,
    PentagonEmbedding,
    community_influence,
    expected_spread,
    greedy_seed_selection,
    independent_cascade,
    pentagon_embedding,
    user_influence,
)
from .hyperopt import HyperoptError, optimize_hyperparameters, symmetric_dirichlet_mle
from .likelihood import ConvergenceMonitor, joint_log_likelihood
from .model import COLDModel, ModelError
from .params import Hyperparameters, ParameterError, negative_link_prior
from .perword import COLDPerWordModel
from .patterns import (
    FluctuationAnalysis,
    PatternError,
    TimeLagAnalysis,
    all_word_clouds,
    fluctuation_analysis,
    temporal_variance,
    time_lag_analysis,
    top_words,
)
from .prediction import (
    DiffusionPredictor,
    PredictionError,
    link_probability,
    post_probability,
    predict_timestamp,
    timestamp_scores,
    top_communities,
)
from .state import CountState, PostTable, StateError

__all__ = [
    "COLDConfig",
    "COLDModel",
    "COLDPerWordModel",
    "CommunityDiffusionGraph",
    "CommunityInfluence",
    "ConfigError",
    "ConvergenceMonitor",
    "CountState",
    "DiffusionEdge",
    "DiffusionError",
    "DiffusionPredictor",
    "EstimateError",
    "FluctuationAnalysis",
    "HyperoptError",
    "Hyperparameters",
    "InfluenceError",
    "ModelError",
    "ParameterError",
    "ParameterEstimates",
    "PatternError",
    "PentagonEmbedding",
    "PostTable",
    "PredictionError",
    "StateError",
    "StreamConfig",
    "SweepCache",
    "TimeLagAnalysis",
    "all_word_clouds",
    "average_estimates",
    "categorical",
    "categorical_checked",
    "community_influence",
    "estimate_from_state",
    "expected_spread",
    "extract_diffusion_graph",
    "fast_sweep",
    "fluctuation_analysis",
    "greedy_seed_selection",
    "independent_cascade",
    "joint_log_likelihood",
    "link_probability",
    "link_weights",
    "negative_link_prior",
    "optimize_hyperparameters",
    "pentagon_embedding",
    "post_community_weights",
    "post_probability",
    "post_topic_log_weights",
    "predict_timestamp",
    "resample_link",
    "resample_post",
    "sweep",
    "symmetric_dirichlet_mle",
    "temporal_variance",
    "time_lag_analysis",
    "timestamp_scores",
    "top_communities",
    "top_words",
    "user_influence",
    "zeta",
    "zeta_for_topic",
]
