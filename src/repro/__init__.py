"""repro: reproduction of "Community Level Diffusion Extraction" (SIGMOD'15).

The stable day-to-day surface is :mod:`repro.api` — one frozen config
object and three verbs::

    from repro import api, generate_corpus

    corpus, truth = generate_corpus()
    config = api.COLDConfig(num_communities=4, num_topics=6, seed=0)
    model = api.fit(corpus, config)
    api.save(model, "runs/demo")

The classes behind it stay public for advanced use::

    from repro import COLDModel, DiffusionPredictor

    model = COLDModel(num_communities=4, num_topics=6, seed=0).fit(corpus)
    predictor = DiffusionPredictor(model.estimates_)

Constructor arguments are keyword-only across the package.

Subpackages: ``repro.datasets`` (corpora + synthetic generation),
``repro.core`` (the COLD model and analyses), ``repro.parallel`` (the
GraphLab-substitute GAS engine), ``repro.baselines`` (comparison systems),
``repro.eval`` (metrics and protocols), ``repro.telemetry`` (metrics,
tracing, structured logging, run manifests).
"""

from . import api, telemetry
from .core import (
    COLDConfig,
    COLDModel,
    ConfigError,
    StreamConfig,
    CommunityDiffusionGraph,
    DiffusionPredictor,
    Hyperparameters,
    ParameterEstimates,
    community_influence,
    extract_diffusion_graph,
    fluctuation_analysis,
    link_probability,
    pentagon_embedding,
    predict_timestamp,
    time_lag_analysis,
    top_words,
    zeta,
)
from .datasets import (
    GroundTruth,
    Post,
    RetweetTuple,
    SocialCorpus,
    SyntheticConfig,
    Vocabulary,
    benchmark_world,
    dataset1,
    dataset2,
    generate_corpus,
    generate_retweet_tuples,
)
from .parallel import ParallelCOLDSampler

__version__ = "1.0.0"

__all__ = [
    "COLDConfig",
    "COLDModel",
    "CommunityDiffusionGraph",
    "ConfigError",
    "DiffusionPredictor",
    "GroundTruth",
    "Hyperparameters",
    "ParallelCOLDSampler",
    "ParameterEstimates",
    "Post",
    "RetweetTuple",
    "SocialCorpus",
    "StreamConfig",
    "SyntheticConfig",
    "Vocabulary",
    "__version__",
    "api",
    "benchmark_world",
    "community_influence",
    "dataset1",
    "dataset2",
    "extract_diffusion_graph",
    "fluctuation_analysis",
    "generate_corpus",
    "generate_retweet_tuples",
    "link_probability",
    "pentagon_embedding",
    "predict_timestamp",
    "time_lag_analysis",
    "top_words",
    "zeta",
]
