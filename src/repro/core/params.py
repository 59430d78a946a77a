"""Hyperparameters of the COLD model (paper §3.3–§3.4, §6.5).

The paper fixes the Dirichlet hyper-parameters by the common strategy
(``rho = 50/C``, ``alpha = 50/K``, ``beta = eps = 0.01``) and sets the Beta
prior on ``eta`` asymmetrically to model negative links *implicitly*:

    lambda_0 = kappa * ln(n_neg / C^2),   lambda_1 = 0.1

where ``n_neg = U(U-1) - |E|`` is the number of absent links and ``kappa``
is a tunable weight.  A large ``lambda_0`` pulls every ``eta_cc'`` toward
zero exactly as strongly as observing the negative links would, at none of
their O(U^2) cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..datasets.corpus import SocialCorpus


class ParameterError(ValueError):
    """Raised for invalid hyper-parameter settings."""


@dataclass(frozen=True)
class Hyperparameters:
    """Prior strengths of COLD, in the paper's notation.

    Attributes
    ----------
    rho:
        Dirichlet prior on user community memberships ``pi_i``.
    alpha:
        Dirichlet prior on community topic interests ``theta_c``.
    beta:
        Dirichlet prior on topic word distributions ``phi_k``.
    epsilon:
        Dirichlet prior on temporal distributions ``psi_kc``.
    lambda0, lambda1:
        Beta prior on inter-community link probabilities ``eta_cc'``;
        ``lambda0`` encodes the implicit negative links.
    """

    rho: float
    alpha: float
    beta: float
    epsilon: float
    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        for name in ("rho", "alpha", "beta", "epsilon", "lambda0", "lambda1"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ParameterError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def default(
        cls,
        num_communities: int,
        num_topics: int,
        corpus: SocialCorpus | None = None,
        kappa: float = 1.0,
    ) -> "Hyperparameters":
        """The paper's §6.5 settings.

        ``corpus`` supplies ``n_neg`` for the ``lambda0`` rule; without one
        a neutral ``lambda0 = 1.0`` is used (appropriate for the no-network
        COLD-NoLink variant, where ``eta`` is never sampled).
        """
        if num_communities <= 0 or num_topics <= 0:
            raise ParameterError("num_communities and num_topics must be positive")
        if kappa <= 0:
            raise ParameterError(f"kappa must be positive, got {kappa}")
        lambda0 = 1.0
        if corpus is not None:
            lambda0 = negative_link_prior(corpus, num_communities, kappa)
        return cls(
            rho=50.0 / num_communities,
            alpha=50.0 / num_topics,
            beta=0.01,
            epsilon=0.01,
            lambda0=lambda0,
            lambda1=0.1,
        )

    @classmethod
    def scaled(
        cls,
        num_communities: int,
        num_topics: int,
        corpus: SocialCorpus | None = None,
        kappa: float = 5.0,
    ) -> "Hyperparameters":
        """Scale-aware priors for laptop-sized corpora.

        The paper's ``rho = 50/C`` rule is calibrated for Weibo scale
        (hundreds of membership draws per user at ``C = 100``, where it
        equals 0.5).  On small corpora that rule swamps the likelihood —
        ``rho = 12.5`` at ``C = 4`` against ~30 draws per user flattens
        every ``pi_i``.  This factory instead pins the priors at the
        *operating values* the paper's rule produces at its own scale
        (``rho = 0.5``, ``alpha <= 1``) and strengthens the implicit
        negative-link weight (``kappa = 5``) so ``eta`` keeps contrast on
        graphs with few links per community pair.
        """
        if num_communities <= 0 or num_topics <= 0:
            raise ParameterError("num_communities and num_topics must be positive")
        lambda0 = 1.0
        if corpus is not None:
            lambda0 = negative_link_prior(corpus, num_communities, kappa)
        return cls(
            rho=0.5,
            alpha=min(50.0 / num_topics, 1.0),
            beta=0.01,
            epsilon=0.01,
            lambda0=lambda0,
            lambda1=0.1,
        )

    @classmethod
    def resolve(
        cls,
        given: "Hyperparameters | None",
        num_communities: int,
        num_topics: int,
        corpus: SocialCorpus,
        include_network: bool = True,
        prior: str = "paper",
        kappa: float = 1.0,
    ) -> "Hyperparameters":
        """The prior a model fits ``corpus`` with.

        ``given`` wins when set; otherwise ``prior`` picks :meth:`default`
        (``"paper"``) or :meth:`scaled`.  Without the network there are no
        links to count, so ``lambda0`` takes its neutral value.  ``kappa``
        reaches only :meth:`default`; :meth:`scaled` keeps its own weight.
        """
        if given is not None:
            return given
        network_corpus = corpus if include_network else None
        if prior == "scaled":
            return cls.scaled(num_communities, num_topics, network_corpus)
        return cls.default(num_communities, num_topics, network_corpus, kappa=kappa)

    def with_lambda0(self, lambda0: float) -> "Hyperparameters":
        """Copy with a different ``lambda0`` (used by sensitivity studies)."""
        return replace(self, lambda0=lambda0)


def negative_link_prior(
    corpus: SocialCorpus, num_communities: int, kappa: float = 1.0
) -> float:
    """The §3.3 rule ``lambda0 = kappa * ln(n_neg / C^2)``, floored at a
    small positive value so the Beta prior stays proper on tiny graphs."""
    if num_communities <= 0:
        raise ParameterError("num_communities must be positive")
    n_neg = max(corpus.num_negative_links, 1)
    raw = kappa * math.log(n_neg / float(num_communities**2))
    return max(raw, 0.1)
