"""Per-word-topic COLD variant — the §3.5 alternative, for ablation.

The paper argues (§3.3, §3.5) that on short social posts a *single* latent
topic per post beats LDA-style per-word topics: it preserves within-post
word correlation, resists noise, and cuts inference cost.  This module
implements the rejected alternative so the claim can be measured:

* each post still draws one community ``c_ij ~ pi_i``;
* each **word** draws its own topic ``z_ijl ~ theta_{c_ij}``;
* the post's time stamp is replicated per word (TOT's device) and drawn
  from ``psi_{z_ijl, c_ij}``, keeping the temporal component well-defined
  without a privileged post topic.

The network component is identical to COLD's.  Estimates are returned as a
standard :class:`~repro.core.estimates.ParameterEstimates`, so every
predictor and analysis in the repository runs unchanged on this variant —
which is exactly what the ablation bench needs.
"""

from __future__ import annotations

import numpy as np

from ..datasets.corpus import SocialCorpus
from .estimates import ParameterEstimates, average_estimates
from .gibbs import categorical
from .model import ModelError
from .params import Hyperparameters


class COLDPerWordModel:
    """COLD with LDA-style per-word topic assignments (ablation model).

    Mirrors :class:`~repro.core.model.COLDModel`'s interface: ``fit`` then
    ``estimates_``.  Only collapsed Gibbs internals differ.
    """

    def __init__(
        self,
        num_communities: int = 20,
        num_topics: int = 20,
        hyperparameters: Hyperparameters | None = None,
        include_network: bool = True,
        prior: str = "paper",
        seed: int = 0,
    ) -> None:
        if num_communities <= 0 or num_topics <= 0:
            raise ModelError("num_communities and num_topics must be positive")
        if prior not in ("paper", "scaled"):
            raise ModelError(f"prior must be 'paper' or 'scaled', got {prior!r}")
        self.num_communities = num_communities
        self.num_topics = num_topics
        self.hyperparameters = hyperparameters
        self.include_network = include_network
        self.prior = prior
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.estimates_: ParameterEstimates | None = None

    # -- fitting -----------------------------------------------------------------

    def fit(
        self,
        corpus: SocialCorpus,
        num_iterations: int = 100,
        burn_in: int | None = None,
        sample_interval: int = 5,
    ) -> "COLDPerWordModel":
        """Collapsed Gibbs over per-post communities, per-word topics, and
        per-link community pairs."""
        if num_iterations <= 0:
            raise ModelError("num_iterations must be positive")
        if burn_in is None:
            burn_in = num_iterations // 2
        if not 0 <= burn_in < num_iterations:
            raise ModelError("burn_in must lie in [0, num_iterations)")
        if sample_interval <= 0:
            raise ModelError("sample_interval must be positive")
        # No kappa here: the per-word model keeps the default weight 1.0.
        hp = Hyperparameters.resolve(
            self.hyperparameters,
            self.num_communities,
            self.num_topics,
            corpus,
            include_network=self.include_network,
            prior=self.prior,
        )

        C, K = self.num_communities, self.num_topics
        U, T, V = corpus.num_users, corpus.num_time_slices, corpus.vocab_size
        D = corpus.num_posts

        # Flattened token table.
        post_of = np.concatenate(
            [np.full(len(p), d, dtype=np.int64) for d, p in enumerate(corpus.posts)]
        ) if D else np.zeros(0, np.int64)
        word_of = np.concatenate(
            [np.asarray(p.words, dtype=np.int64) for p in corpus.posts]
        ) if D else np.zeros(0, np.int64)
        post_author = np.asarray([p.author for p in corpus.posts], dtype=np.int64)
        post_time = np.asarray([p.timestamp for p in corpus.posts], dtype=np.int64)
        token_offsets = np.zeros(D + 1, dtype=np.int64)
        for d, p in enumerate(corpus.posts):
            token_offsets[d + 1] = token_offsets[d] + len(p)
        num_tokens = len(word_of)

        links = corpus.link_array() if self.include_network else np.zeros((0, 2), np.int64)
        E = len(links)

        post_comm = self._rng.integers(C, size=D)
        token_topic = self._rng.integers(K, size=num_tokens)
        src_comm = self._rng.integers(C, size=E)
        dst_comm = self._rng.integers(C, size=E)

        n_user_comm = np.zeros((U, C), dtype=np.int64)
        n_comm_topic = np.zeros((C, K), dtype=np.int64)  # per token
        n_comm_topic_time = np.zeros((C, K, T), dtype=np.int64)  # per token
        n_topic_word = np.zeros((K, V), dtype=np.int64)
        n_topic_total = np.zeros(K, dtype=np.int64)
        n_link_comm = np.zeros((C, C), dtype=np.int64)

        np.add.at(n_user_comm, (post_author, post_comm), 1)
        token_comm = post_comm[post_of]
        np.add.at(n_comm_topic, (token_comm, token_topic), 1)
        np.add.at(
            n_comm_topic_time, (token_comm, token_topic, post_time[post_of]), 1
        )
        np.add.at(n_topic_word, (token_topic, word_of), 1)
        np.add.at(n_topic_total, token_topic, 1)
        for e in range(E):
            n_user_comm[links[e, 0], src_comm[e]] += 1
            n_user_comm[links[e, 1], dst_comm[e]] += 1
            n_link_comm[src_comm[e], dst_comm[e]] += 1

        samples: list[ParameterEstimates] = []
        for iteration in range(1, num_iterations + 1):
            self._sweep_posts(
                hp, post_comm, token_topic, post_of, post_author, post_time,
                token_offsets, n_user_comm, n_comm_topic, n_comm_topic_time,
            )
            self._sweep_tokens(
                hp, post_comm, token_topic, post_of, word_of, post_time,
                n_comm_topic, n_comm_topic_time, n_topic_word, n_topic_total,
            )
            self._sweep_links(
                hp, links, src_comm, dst_comm, n_user_comm, n_link_comm
            )
            if iteration > burn_in and (iteration - burn_in) % sample_interval == 0:
                samples.append(
                    self._estimate(
                        hp, n_user_comm, n_comm_topic, n_comm_topic_time,
                        n_topic_word, n_topic_total, n_link_comm,
                    )
                )
        if not samples:
            samples.append(
                self._estimate(
                    hp, n_user_comm, n_comm_topic, n_comm_topic_time,
                    n_topic_word, n_topic_total, n_link_comm,
                )
            )
        self.hyperparameters = hp
        self.estimates_ = average_estimates(samples)
        return self

    # -- Gibbs phases ---------------------------------------------------------------

    def _sweep_posts(
        self, hp, post_comm, token_topic, post_of, post_author, post_time,
        token_offsets, n_user_comm, n_comm_topic, n_comm_topic_time,
    ) -> None:
        """Resample each post's community given its words' fixed topics.

        The conditional is a Polya (ascending-factorial) product over the
        post's topic multiset under ``theta_c`` and its per-token time
        draws under ``psi_.c`` — the per-word analogue of Eq. (1)."""
        K = n_comm_topic.shape[1]
        T = n_comm_topic_time.shape[2]
        D = len(post_comm)
        for d in range(D):
            lo, hi = token_offsets[d], token_offsets[d + 1]
            topics = token_topic[lo:hi]
            if len(topics) == 0:
                continue
            author, t = post_author[d], post_time[d]
            c_old = post_comm[d]
            unique, counts = np.unique(topics, return_counts=True)
            # Remove the post's contribution.
            n_user_comm[author, c_old] -= 1
            np.subtract.at(n_comm_topic[c_old], unique, counts)
            np.subtract.at(n_comm_topic_time[c_old, :, t], unique, counts)

            log_weights = np.log(n_user_comm[author] + hp.rho)
            comm_totals = n_comm_topic.sum(axis=1)
            length = counts.sum()
            # Ascending-factorial terms, vectorised over communities.
            for j, k in enumerate(unique):
                base_topic = n_comm_topic[:, k].astype(np.float64)
                base_time = n_comm_topic_time[:, k, t].astype(np.float64)
                time_total = n_comm_topic_time[:, k, :].sum(axis=1).astype(np.float64)
                for q in range(int(counts[j])):
                    log_weights += np.log(base_topic + q + hp.alpha)
                    log_weights += np.log(base_time + q + hp.epsilon)
                    log_weights -= np.log(time_total + q + T * hp.epsilon)
            for q in range(int(length)):
                log_weights -= np.log(comm_totals + q + K * hp.alpha)

            log_weights -= log_weights.max()
            c_new = categorical(np.exp(log_weights), self._rng)
            post_comm[d] = c_new
            n_user_comm[author, c_new] += 1
            np.add.at(n_comm_topic[c_new], unique, counts)
            np.add.at(n_comm_topic_time[c_new, :, t], unique, counts)

    def _sweep_tokens(
        self, hp, post_comm, token_topic, post_of, word_of, post_time,
        n_comm_topic, n_comm_topic_time, n_topic_word, n_topic_total,
    ) -> None:
        """LDA-style per-word topic updates conditioned on the community."""
        V = n_topic_word.shape[1]
        T = n_comm_topic_time.shape[2]
        for j in self._rng.permutation(len(token_topic)):
            d = post_of[j]
            c = post_comm[d]
            t = post_time[d]
            v = word_of[j]
            k = token_topic[j]
            n_comm_topic[c, k] -= 1
            n_comm_topic_time[c, k, t] -= 1
            n_topic_word[k, v] -= 1
            n_topic_total[k] -= 1
            weights = (
                (n_comm_topic[c] + hp.alpha)
                * (n_comm_topic_time[c, :, t] + hp.epsilon)
                / (n_comm_topic_time[c].sum(axis=1) + T * hp.epsilon)
                * (n_topic_word[:, v] + hp.beta)
                / (n_topic_total + V * hp.beta)
            )
            k = categorical(weights, self._rng)
            token_topic[j] = k
            n_comm_topic[c, k] += 1
            n_comm_topic_time[c, k, t] += 1
            n_topic_word[k, v] += 1
            n_topic_total[k] += 1

    def _sweep_links(
        self, hp, links, src_comm, dst_comm, n_user_comm, n_link_comm
    ) -> None:
        """Identical to COLD's Eq. (2) joint link updates."""
        C = self.num_communities
        for e in self._rng.permutation(len(links)):
            src, dst = links[e]
            c, c2 = src_comm[e], dst_comm[e]
            n_user_comm[src, c] -= 1
            n_user_comm[dst, c2] -= 1
            n_link_comm[c, c2] -= 1
            weights = (
                np.outer(n_user_comm[src] + hp.rho, n_user_comm[dst] + hp.rho)
                * (n_link_comm + hp.lambda1)
                / (n_link_comm + hp.lambda0 + hp.lambda1)
            ).ravel()
            index = categorical(weights, self._rng)
            c, c2 = divmod(index, C)
            src_comm[e], dst_comm[e] = c, c2
            n_user_comm[src, c] += 1
            n_user_comm[dst, c2] += 1
            n_link_comm[c, c2] += 1

    # -- estimation -------------------------------------------------------------------

    def _estimate(
        self, hp, n_user_comm, n_comm_topic, n_comm_topic_time,
        n_topic_word, n_topic_total, n_link_comm,
    ) -> ParameterEstimates:
        C, K = self.num_communities, self.num_topics
        V = n_topic_word.shape[1]
        T = n_comm_topic_time.shape[2]
        pi = (n_user_comm + hp.rho) / (
            n_user_comm.sum(axis=1, keepdims=True) + C * hp.rho
        )
        theta = (n_comm_topic + hp.alpha) / (
            n_comm_topic.sum(axis=1, keepdims=True) + K * hp.alpha
        )
        phi = (n_topic_word + hp.beta) / (n_topic_total[:, None] + V * hp.beta)
        counts_kct = n_comm_topic_time.transpose(1, 0, 2)
        psi = (counts_kct + hp.epsilon) / (
            counts_kct.sum(axis=2, keepdims=True) + T * hp.epsilon
        )
        eta = (n_link_comm + hp.lambda1) / (
            n_link_comm + hp.lambda0 + hp.lambda1
        )
        return ParameterEstimates(pi=pi, theta=theta, phi=phi, psi=psi, eta=eta)

    @property
    def fitted(self) -> bool:
        return self.estimates_ is not None

    def __repr__(self) -> str:
        status = "fitted" if self.fitted else "unfitted"
        return (
            f"COLDPerWordModel(C={self.num_communities}, "
            f"K={self.num_topics}, {status})"
        )
