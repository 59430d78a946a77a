"""Prediction methods built on the extracted community-level patterns.

Implements the paper's three prediction tasks:

* **Diffusion prediction** (§5.2, Eqs. 5–7): will user ``i'`` retweet post
  ``d`` from user ``i``?  Two-stage: community-level diffusion probability
  (Eq. 4) combined with the users' community memberships, restricted to each
  user's ``TopComm`` (top-5 communities), with offline precomputation so the
  online cost is ``O(K |w_d|)``.
* **Time-stamp prediction** (§6.3): maximum-likelihood time slice of an
  unseen post.
* **Link prediction** (§6.2): ``P(i -> i') = sum_{s,s'} pi_is pi_i's' eta_ss'``.

Diffusion scores run in the native library's ``cold_retweet_scores``
(``_predict.c``, built and loaded by
:func:`repro.core.fastgibbs.native_kernel`): one foreign call checks the
ids, takes the Eq. (5) posterior, builds the source's fold when asked
and scores every candidate.  :class:`DiffusionPredictor`'s numpy bodies
are its oracle, and the fallback when no library could be built.  The
two agree to a relative ``1e-12``, not bit for bit: the posterior's
log-likelihood is the same bits, but its ``exp`` is libm's rather than
numpy's, and the sums over TopComm and topics run in another order.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..datasets.corpus import Post
from .diffusion import zeta
from .estimates import ParameterEstimates
from .fastgibbs import _address, _buffer_address, native_kernel


class PredictionError(ValueError):
    """Raised for invalid prediction requests."""


#: Status bits of a retweet scoring call (``cold_retweet_scores`` in
#: ``_predict.c``, and :meth:`DiffusionPredictor.retweet_scores`' numpy
#: fallback): the ids out of range, then the score guard.
BAD_SOURCE, BAD_WORD, BAD_CANDIDATE = 1, 2, 4
NONFINITE, BELOW_ZERO, ABOVE_ONE = 8, 16, 32
_NO_MEMORY = 64
#: The retweet guard's upper bound: one plus rounding slack.
SCORE_UPPER = 1.0 + 1e-9


class _Tables(ctypes.Structure):
    """Mirror of ``cold_predictor`` in ``_predict.c`` (field order matters)."""

    _fields_ = [(name, ctypes.c_int64) for name in ("U", "K", "C", "S", "V")] + [
        (name, ctypes.c_void_p)
        for name in ("log_phi", "log_prior", "top_comm", "top_weight", "zeta")
    ]


def flat_ids(values, what: str) -> np.ndarray:
    """``values`` as a fresh C-contiguous ``int64`` vector."""
    ids = np.array(values, dtype=np.int64)
    if ids.ndim != 1:
        raise PredictionError(f"{what} must be a flat id list")
    return ids


def top_communities(pi: np.ndarray, size: int) -> np.ndarray:
    """``TopComm(i)``: indices of the user's ``size`` strongest memberships.

    ``pi`` is one user's membership row, or a ``(U, C)`` matrix whose rows
    are all ranked at once.  The paper fixes ``size = 5``, citing that
    users are typically active in a handful of communities [34].
    """
    if size <= 0:
        raise PredictionError(f"TopComm size must be positive, got {size}")
    size = min(size, pi.shape[-1])
    return np.argpartition(pi, -size, axis=-1)[..., -size:]


class DiffusionPredictor:
    """The §5.2 two-stage diffusion prediction method.

    Parameters
    ----------
    estimates:
        Fitted COLD parameter estimates.
    top_comm_size:
        ``|TopComm|`` truncation (paper uses 5).
    """

    def __init__(self, estimates: ParameterEstimates, top_comm_size: int = 5) -> None:
        estimates.validate()
        self.estimates = estimates
        self.top_comm_size = top_comm_size
        self._zeta = np.ascontiguousarray(zeta(estimates))  # (K, C, C)
        self._fold_shape = (estimates.num_topics, estimates.num_communities)
        self._log_phi = np.ascontiguousarray(np.log(estimates.phi + 1e-300))
        # §5.2's offline filtering, one table row per user: TopComm
        # communities (U, S) and memberships (U, S), and the topic
        # preference (U, K), P(k | i) ∝ sum_{c in TopComm} pi_ic theta_ck
        # (Eq. 5's prior part).
        self._top_communities = np.ascontiguousarray(
            top_communities(estimates.pi, top_comm_size)
        )
        self._top_memberships = np.take_along_axis(
            estimates.pi, self._top_communities, axis=1
        )
        preference = np.matmul(
            self._top_memberships[:, None, :], estimates.theta[self._top_communities]
        )[:, 0]
        total = preference.sum(axis=1, keepdims=True)
        self._topic_preference = np.divide(
            preference, total, out=preference, where=total > 0
        )
        # Eq. (5)'s log prior, once per predictor rather than per query.
        self._log_prior = np.log(self._topic_preference + 1e-300)
        self._lib = native_kernel()
        if self._lib is not None:
            self._tables = _Tables(
                *(estimates.num_users, estimates.num_topics),
                *(estimates.num_communities, self._top_communities.shape[1]),
                estimates.vocab_size,
                _address(self._log_phi, np.float64),
                _address(self._log_prior, np.float64),
                _address(self._top_communities, np.int64),
                _address(self._top_memberships, np.float64),
                _address(self._zeta, np.float64),
            )
            self._tables_address = ctypes.addressof(self._tables)

    def _check_user(self, user: int, role: str) -> None:
        if not 0 <= user < self.estimates.num_users:
            raise PredictionError(f"{role} {user} out of range")

    # -- Eq. (5): topic posterior of a post ------------------------------------

    def topic_posterior(self, words: tuple[int, ...] | list[int], author: int) -> np.ndarray:
        """``P(k | d, i) ∝ prod_l phi_k,w_l * P(k | i)`` (Eq. 5), normalised."""
        if not words:
            raise PredictionError("post must contain at least one word")
        self._check_user(author, "author")
        word_ids = np.asarray(words, dtype=np.int64)
        if word_ids.min() < 0 or word_ids.max() >= self.estimates.vocab_size:
            raise PredictionError("word id out of range")
        return self._posterior_numpy(word_ids, author)

    def _posterior_numpy(self, word_ids: np.ndarray, author: int) -> np.ndarray:
        """:meth:`topic_posterior` on checked ids."""
        log_like = self._log_phi[:, word_ids].sum(axis=1)
        log_post = log_like + self._log_prior[author]
        log_post -= log_post.max()
        weights = np.exp(log_post)
        return weights / weights.sum()

    # -- Eq. (6): per-topic user-to-user influence ------------------------------

    def topic_influence(self, source: int, target: int) -> np.ndarray:
        """``P(i, i' | k)`` for all topics, via TopComm-restricted Eq. (6)."""
        self._check_user(source, "source")
        self._check_user(target, "target")
        src_comms = self._top_communities[source]
        dst_comms = self._top_communities[target]
        # zeta restricted to the two TopComm sets: (K, |src|, |dst|)
        restricted = self._zeta[:, src_comms[:, None], dst_comms[None, :]]
        weights = np.outer(
            self._top_memberships[source], self._top_memberships[target]
        )  # (|src|, |dst|)
        return np.einsum("kab,ab->k", restricted, weights)

    # -- Eq. (7): final diffusion probability -----------------------------------

    def diffusion_probability(
        self, source: int, target: int, words: tuple[int, ...] | list[int]
    ) -> float:
        """``P(i, i', d) = sum_k P(k | d, i) P(i, i' | k)`` (Eq. 7)."""
        posterior = self.topic_posterior(words, source)
        influence = self.topic_influence(source, target)
        return float(posterior @ influence)

    def source_fold(self, source: int) -> np.ndarray:
        """The source's community profile folded into zeta, ``(K, C)``.

        ``source_fold[k, c'] = sum_{c in TopComm(i)} pi_ic zeta_kcc'`` —
        the per-source half of :meth:`score_candidates`, exposed so a
        serving layer can cache it per hot user and amortise it across
        requests (it depends only on the source, not the post or the
        candidates).
        """
        self._check_user(source, "source")
        if self._lib is None:
            return self._source_fold_numpy(source)
        _scores, fold, _status = self.retweet_scores(
            source, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        return fold

    def _source_fold_numpy(self, source: int) -> np.ndarray:
        """:meth:`source_fold`'s numpy body: the oracle and the fallback."""
        return np.einsum(
            "a,kad->kd",
            self._top_memberships[source],
            self._zeta[:, self._top_communities[source], :],
        )

    def score_candidates(
        self,
        source: int,
        candidates: list[int],
        words: tuple[int, ...] | list[int],
        source_fold: np.ndarray | None = None,
    ) -> np.ndarray:
        """Diffusion scores of one post against many candidate retweeters.

        The online path whose cost Figure 15 measures: the Eq. (5)
        posterior is computed once, the source's community profile is
        folded into zeta once (or passed in precomputed via
        ``source_fold`` — see :meth:`source_fold`), and every candidate
        reduces to a gather plus a weighted linear combination —
        ``O(K |w_d| + N K S)`` total, in one native call when the
        library is loaded (see the module docstring for how its scores
        match the numpy body's).
        """
        if not words:
            raise PredictionError("post must contain at least one word")
        if source_fold is not None:
            source_fold = np.array(source_fold, dtype=np.float64, order="C")
            if source_fold.shape != self._fold_shape:
                raise PredictionError(f"source_fold must have shape {self._fold_shape}")
        scores, _fold, status = self.retweet_scores(
            source,
            flat_ids(candidates, "candidates"),
            flat_ids(words, "words"),
            source_fold,
        )
        if status & BAD_SOURCE:
            raise PredictionError(f"author {source} out of range")
        if status & BAD_WORD:
            raise PredictionError("word id out of range")
        if status & BAD_CANDIDATE:
            raise PredictionError("candidate index out of range")
        return scores

    def retweet_scores(
        self,
        source: int,
        candidates: np.ndarray,
        words: np.ndarray,
        fold: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, int]:
        """Scores, the source's fold and the status bits of one query.

        ``candidates`` and ``words`` are :func:`flat_ids` vectors and
        ``fold`` the source's ``(K, C)`` fold, built here when ``None``
        (a fold-cache miss).  The status holds ``BAD_SOURCE``,
        ``BAD_WORD`` and ``BAD_CANDIDATE`` for the ids out of range, and
        when none is set, ``NONFINITE``, ``BELOW_ZERO`` and ``ABOVE_ONE``
        for the scores outside ``[0, SCORE_UPPER]``; the scores mean
        nothing when an id bit is set.  The fold is returned whenever
        the source is in range, so a caller may cache it even when the
        words or candidates are not.  The serving
        engine's whole cold path: one native call when the library is
        loaded, else the numpy bodies.
        """
        in_range = 0 <= source < self.estimates.num_users
        if self._lib is None:
            return self._retweet_scores_numpy(source, candidates, words, fold, in_range)
        build = fold is None
        if build:
            fold = np.empty(self._fold_shape)
        scores = np.empty(len(candidates))
        status = self._lib.cold_retweet_scores(
            self._tables_address,
            source if in_range else -1,
            _buffer_address(words),
            len(words),
            _buffer_address(candidates),
            len(candidates),
            _buffer_address(fold),
            build,
            _buffer_address(scores),
        )
        if status & _NO_MEMORY:
            raise MemoryError("no memory for the topic posterior")
        return scores, (fold if in_range else None), status

    def _retweet_scores_numpy(
        self,
        source: int,
        candidates: np.ndarray,
        words: np.ndarray,
        fold: np.ndarray | None,
        in_range: bool,
    ) -> tuple[np.ndarray, np.ndarray | None, int]:
        """:meth:`retweet_scores` on the numpy bodies."""
        status = 0 if in_range else BAD_SOURCE
        if words.size and (words.min() < 0 or words.max() >= self.estimates.vocab_size):
            status |= BAD_WORD
        if candidates.size and (
            candidates.min() < 0 or candidates.max() >= self.estimates.num_users
        ):
            status |= BAD_CANDIDATE
        if fold is None and in_range:
            fold = self._source_fold_numpy(source)
        if status or not candidates.size:
            return np.empty(0), fold, status
        scores = self._score_candidates_numpy(source, candidates, words, fold)
        if not np.isfinite(scores).all():
            status = NONFINITE
        elif scores.min() < 0:
            status = BELOW_ZERO
        elif scores.max() > SCORE_UPPER:
            status = ABOVE_ONE
        return scores, fold, status

    def _score_candidates_numpy(
        self,
        source: int,
        candidates: np.ndarray,
        words: np.ndarray,
        source_fold: np.ndarray,
    ) -> np.ndarray:
        """:meth:`score_candidates`' numpy body on checked ids: the oracle."""
        posterior = self._posterior_numpy(words, source)
        dst_comms = self._top_communities[candidates]  # (N, S)
        dst_weights = self._top_memberships[candidates]  # (N, S)
        # influence[n, k] = sum_b dst_weights[n, b] source_fold[k, dst_comms[n, b]]
        gathered = source_fold[:, dst_comms]  # (K, N, S)
        influence = np.einsum("kns,ns->nk", gathered, dst_weights)
        return influence @ posterior


def link_probability(
    estimates: ParameterEstimates,
    source: int | np.ndarray,
    target: int | np.ndarray,
) -> np.ndarray:
    """Link prediction ``P(i -> i') = sum_{s,s'} pi_is pi_i's' eta_ss'`` (§6.2).

    Accepts scalars or equal-length index arrays; returns an array of
    probabilities (scalar inputs give a 0-d array).
    """
    source = np.atleast_1d(np.asarray(source, dtype=np.int64))
    target = np.atleast_1d(np.asarray(target, dtype=np.int64))
    if source.shape != target.shape:
        raise PredictionError("source and target index arrays must match")
    weighted = estimates.pi[source] @ estimates.eta  # (N, C)
    return np.einsum("nc,nc->n", weighted, estimates.pi[target])


def predict_timestamp(
    estimates: ParameterEstimates, post: Post
) -> int:
    """Maximum-likelihood time slice of an unseen post (§6.3).

    ``t_hat = argmax_t sum_c pi_ic sum_k theta_ck psi_kct prod_l phi_k,w_l``.
    """
    scores = timestamp_scores(estimates, post)
    return int(scores.argmax())


def timestamp_scores(estimates: ParameterEstimates, post: Post) -> np.ndarray:
    """Unnormalised per-slice likelihoods behind :func:`predict_timestamp`."""
    log_word = np.log(estimates.phi[:, list(post.words)] + 1e-300).sum(axis=1)
    word_like = np.exp(log_word - log_word.max())  # (K,)
    pi_row = estimates.pi[post.author]  # (C,)
    # mixture[c, k] = pi_ic * theta_ck * word_like_k
    mixture = pi_row[:, None] * estimates.theta * word_like[None, :]
    # scores[t] = sum_{c,k} mixture[c, k] * psi[k, c, t]
    return np.einsum("ck,kct->t", mixture, estimates.psi)


def batch_timestamp_scores(
    estimates: ParameterEstimates,
    authors: list[int] | np.ndarray,
    words_per_post: list[tuple[int, ...] | list[int]],
) -> np.ndarray:
    """Per-slice likelihoods for a batch of unseen posts, ``(N, T)``.

    The vectorised batch form of :func:`timestamp_scores`: the per-word
    log-likelihoods of every post are computed in one ``(K, total_words)``
    gather and reduced per post with ``np.add.reduceat``, then the
    ``pi``/``theta``/``psi`` mixture contracts over the whole batch in a
    single einsum.  Row ``n`` equals ``timestamp_scores`` on post ``n`` up
    to the per-post positive rescaling that ``argmax`` ignores.
    """
    authors = np.asarray(authors, dtype=np.int64)
    if authors.ndim != 1 or len(authors) != len(words_per_post):
        raise PredictionError("authors and words_per_post lengths must match")
    if len(authors) == 0:
        return np.zeros((0, estimates.num_time_slices))
    if authors.min() < 0 or authors.max() >= estimates.num_users:
        raise PredictionError("author index out of range")
    lengths = [len(words) for words in words_per_post]
    if min(lengths) == 0:
        raise PredictionError("every post must contain at least one word")
    flat = np.concatenate([np.asarray(w, dtype=np.int64) for w in words_per_post])
    if flat.min() < 0 or flat.max() >= estimates.vocab_size:
        raise PredictionError("word id out of range")
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    log_words = np.log(estimates.phi[:, flat] + 1e-300)  # (K, total)
    per_post = np.add.reduceat(log_words, offsets, axis=1)  # (K, N)
    word_like = np.exp(per_post - per_post.max(axis=0, keepdims=True))
    return np.einsum(
        "nc,ck,kn,kct->nt",
        estimates.pi[authors],
        estimates.theta,
        word_like,
        estimates.psi,
        optimize=True,
    )


def post_probability(
    estimates: ParameterEstimates, words: tuple[int, ...] | list[int], author: int
) -> float:
    """Held-out word probability used by perplexity (§6.2):

    ``p(w_d) = sum_c pi_ic sum_k theta_ck prod_l phi_k,w_l``.

    Returned in natural-log space to avoid underflow on long posts.
    """
    if not words:
        raise PredictionError("post must contain at least one word")
    log_word = np.log(estimates.phi[:, list(words)] + 1e-300).sum(axis=1)  # (K,)
    max_log = log_word.max()
    word_like = np.exp(log_word - max_log)
    mixture = float(estimates.pi[author] @ estimates.theta @ word_like)
    return max_log + float(np.log(max(mixture, 1e-300)))
