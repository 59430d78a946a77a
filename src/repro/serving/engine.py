"""The in-process model server: precomputed tensors + batched scoring.

:class:`ModelServer` loads a saved COLD model into contiguous precomputed
estimate tensors (pi/theta/phi/psi/eta plus the derived zeta), and answers
the paper's four query families through the vectorised kernels of
:mod:`repro.core.prediction` and :mod:`repro.core.influence`:

* **retweet** — Eq. (5)-(7) diffusion scores of one post against a batch
  of candidate retweeters (:meth:`ModelServer.retweet`);
* **link** — ``P(i -> i')`` for batched user pairs (:meth:`ModelServer.link`);
* **timestamp** — maximum-likelihood time slice of a batch of unseen
  posts (:meth:`ModelServer.timestamp`);
* **influential** — per-topic community influence degrees and the top
  users, via Independent Cascade (:meth:`ModelServer.influential`).

Two bounded LRU caches keep hot entities cheap: the per-source zeta fold
(the expensive half of a retweet query — hot *users*) and the per-topic
Monte-Carlo community influence (hot *communities*).  Every public result
passes a NaN/degenerate guard (:meth:`_guard`) so a numerically broken
model raises :class:`~repro.serving.robustness.DegenerateScoreError` —
which the HTTP layer converts into a circuit-breaker trip — instead of
emitting garbage scores.

A retweet query, fold-cache miss included, is one foreign call into the
native library (``_predict.c``, through
:meth:`DiffusionPredictor.retweet_scores`): it checks the ids, builds the
fold, scores and applies the guard, and returns status bits that the
engine turns into the same errors as before.  Its scores agree with the
numpy bodies of :class:`DiffusionPredictor` (the fallback without a
compiler) to a relative ``1e-12``, not bit for bit: its ``exp`` is
libm's, and its sums over TopComm and topics run in another order.

The engine is immutable after construction (caches aside), which is what
makes the HTTP layer's hot-swap reload safe: in-flight requests keep
scoring against the engine reference they grabbed at admission while the
swap installs a new one.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from ..core.estimates import ParameterEstimates
from ..core.influence import (
    CommunityInfluence,
    community_influence,
    top_influential_users,
)
from ..core.model import COLDModel
from ..core.prediction import (
    ABOVE_ONE,
    BAD_CANDIDATE,
    BAD_SOURCE,
    BAD_WORD,
    BELOW_ZERO,
    NONFINITE,
    SCORE_UPPER,
    DiffusionPredictor,
    PredictionError,
    batch_timestamp_scores,
    flat_ids,
    link_probability,
)
from ..telemetry import trace
from .robustness import Deadline, DegenerateScoreError, LRUCache, ServingError

#: Most Monte-Carlo realisations one influential query may ask for.  A cold
#: query holds the influence lock for its whole run, and the deadline is only
#: checked around it, so an unbounded count could stall every cold query.
MAX_IC_SIMULATIONS = 10_000


class ModelServer:
    """Precomputed, cache-accelerated query engine over a fitted model.

    Parameters
    ----------
    estimates:
        Fitted parameter estimates; copied into C-contiguous float64
        tensors at construction (one-time cost) so every query runs on
        cache-friendly memory.
    top_comm_size:
        ``|TopComm|`` truncation of the two-stage diffusion method.
    cache_size:
        Max entries of the hot-user fold cache (0 disables caching).
    influence_cache_size:
        Max entries of the per-topic influence cache.
    ic_simulations:
        Monte-Carlo realisations per influential-community query.
    seed:
        Seed of the IC simulations (queries are deterministic given it).
    """

    def __init__(
        self,
        estimates: ParameterEstimates,
        top_comm_size: int = 5,
        cache_size: int = 1024,
        influence_cache_size: int = 64,
        ic_simulations: int = 100,
        seed: int = 0,
    ) -> None:
        # np.array with copy=True (not ascontiguousarray, which aliases
        # already-contiguous inputs): the engine must own its tensors so a
        # caller-side mutation can never corrupt a serving model.
        def owned(tensor: np.ndarray) -> np.ndarray:
            return np.array(tensor, dtype=np.float64, order="C", copy=True)

        contiguous = ParameterEstimates(
            pi=owned(estimates.pi),
            theta=owned(estimates.theta),
            phi=owned(estimates.phi),
            psi=owned(estimates.psi),
            eta=owned(estimates.eta),
        )
        contiguous.validate()
        self.estimates = contiguous
        self.ic_simulations = ic_simulations
        self.seed = seed
        self._predictor = DiffusionPredictor(contiguous, top_comm_size)
        self._fold_cache = LRUCache(cache_size)
        self._influence_cache = LRUCache(influence_cache_size)
        #: Finished influential answers by (topic, sims, size, top_users).
        self._answer_cache = LRUCache(influence_cache_size)
        self._influence_lock = threading.Lock()

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_path(cls, path: str | Path, **kwargs) -> "ModelServer":
        """Build an engine from a model saved by ``COLDModel.save``.

        Raises the loader's typed errors (``ModelError``,
        ``EstimateError``, ``FileNotFoundError``) on corrupt or missing
        artefacts — the reload path catches these and rolls back.
        """
        model = COLDModel.load(path)
        assert model.estimates_ is not None
        return cls(model.estimates_, **kwargs)

    def describe(self) -> dict:
        """Model dimensions and cache statistics (the ``/healthz`` payload)."""
        est = self.estimates
        return {
            "num_users": est.num_users,
            "num_communities": est.num_communities,
            "num_topics": est.num_topics,
            "num_time_slices": est.num_time_slices,
            "vocab_size": est.vocab_size,
            "fold_cache": self._fold_cache.stats(),
            "influence_cache": self._influence_cache.stats(),
        }

    # -- degenerate-score guard ------------------------------------------------

    @staticmethod
    def _guard(
        name: str,
        values: np.ndarray,
        lower: float | None = None,
        upper: float | None = None,
    ) -> np.ndarray:
        """Reject NaN/inf (and out-of-range, when bounded) results."""
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise DegenerateScoreError(f"{name} produced non-finite scores")
        if lower is not None and values.size and values.min() < lower:
            raise DegenerateScoreError(f"{name} produced scores below {lower}")
        if upper is not None and values.size and values.max() > upper:
            raise DegenerateScoreError(f"{name} produced scores above {upper}")
        return values

    # -- query families --------------------------------------------------------

    def retweet(
        self,
        source: int,
        candidates: list[int],
        words: list[int],
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Diffusion probabilities of ``source``'s post for each candidate.

        One :meth:`DiffusionPredictor.retweet_scores` call, which builds
        the fold on a fold-cache miss (see the module docstring).  A
        fold is cached whenever the source is in range and the words
        are, as when the fold was built before the candidate check.
        """
        if deadline is not None:
            deadline.check("retweet admission")
        if not words:
            raise PredictionError("post must contain at least one word")
        word_ids = flat_ids(words, "words")
        targets = flat_ids(candidates, "candidates")
        fold = self._fold_cache.get(source)
        if deadline is not None:
            deadline.check("retweet scoring")
        with trace.span(
            "score_retweet", source=int(source), candidates=len(targets),
            fold_miss=fold is None,
        ):
            scores, built, status = self._predictor.retweet_scores(
                int(source), targets, word_ids, fold
            )
        if fold is None and built is not None and not status & BAD_WORD:
            self._fold_cache.put(source, built)
        if status & BAD_WORD:
            raise PredictionError(
                f"word id out of range [0, {self.estimates.vocab_size})"
            )
        if status & BAD_SOURCE:
            raise PredictionError(f"source {int(source)} out of range")
        if status & BAD_CANDIDATE:
            raise PredictionError("candidate index out of range")
        if status & NONFINITE:
            raise DegenerateScoreError("retweet produced non-finite scores")
        if status & BELOW_ZERO:
            raise DegenerateScoreError("retweet produced scores below 0.0")
        if status & ABOVE_ONE:
            raise DegenerateScoreError(f"retweet produced scores above {SCORE_UPPER}")
        return scores

    def link(
        self,
        sources: list[int] | np.ndarray,
        targets: list[int] | np.ndarray,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """``P(i -> i')`` for equal-length source/target index batches."""
        if deadline is not None:
            deadline.check("link admission")
        sources = self._validate_users(sources, "sources")
        targets = self._validate_users(targets, "targets")
        with trace.span("score_link", pairs=int(sources.size)):
            scores = link_probability(self.estimates, sources, targets)
        return self._guard("link", scores, lower=0.0, upper=1.0 + 1e-9)

    def timestamp(
        self,
        authors: list[int],
        words_per_post: list[list[int]],
        deadline: Deadline | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """ML time slices for a batch of posts; returns ``(slices, scores)``.

        ``scores`` rows are normalised to sum to 1 so clients can read
        them as per-slice confidences.
        """
        if deadline is not None:
            deadline.check("timestamp admission")
        for words in words_per_post:
            self._validate_words(words)
        with trace.span("score_timestamp", posts=len(authors)):
            scores = batch_timestamp_scores(
                self.estimates, authors, words_per_post
            )
        scores = self._guard("timestamp", scores, lower=0.0)
        totals = scores.sum(axis=1, keepdims=True)
        if scores.size and totals.min() <= 0:
            raise DegenerateScoreError("timestamp produced an all-zero row")
        return scores.argmax(axis=1), scores / np.maximum(totals, 1e-300)

    def influential(
        self,
        topic: int,
        size: int = 4,
        top_users: int = 10,
        num_simulations: int | None = None,
        deadline: Deadline | None = None,
    ) -> dict:
        """Influential communities (and users) for ``topic``, cached.

        The Monte-Carlo community influence is the expensive part; it is
        computed once per ``(topic, num_simulations)`` and cached.  The
        finished answer (rankings and rounded lists) is cached too, per
        ``(topic, num_simulations, size, top_users)``, so a hot query is
        two cache lookups; ``cached`` reports whether the influence came
        from its cache.  ``num_simulations`` defaults to
        ``ic_simulations``.  A value outside ``[1, MAX_IC_SIMULATIONS]``,
        ``size < 1`` or ``top_users < 0`` raises ``PredictionError``
        before any cache lookup or run.
        """
        if deadline is not None:
            deadline.check("influential admission")
        if not 0 <= topic < self.estimates.num_topics:
            raise PredictionError(f"topic {topic} out of range")
        sims = self.ic_simulations if num_simulations is None else num_simulations
        if not 0 < sims <= MAX_IC_SIMULATIONS:
            raise PredictionError(
                f"num_simulations must lie in [1, {MAX_IC_SIMULATIONS}]"
            )
        if size < 1:
            raise PredictionError("size must be positive")
        if top_users < 0:
            raise PredictionError("top_users must be non-negative")
        key = (int(topic), int(sims))
        influence = self._influence_cache.get(key)
        cached = influence is not None
        if not cached:
            # One topic's Monte-Carlo runs at a time: concurrent cold
            # queries for the same topic would duplicate the work.
            with self._influence_lock:
                influence = self._influence_cache.get(key)
                cached = influence is not None
                if not cached:
                    with trace.span(
                        "influence_mc", topic=int(topic), simulations=int(sims)
                    ):
                        influence = community_influence(
                            self.estimates,
                            topic,
                            num_simulations=sims,
                            seed=self.seed,
                        )
                    self._guard("influential", influence.degree, lower=0.0)
                    self._influence_cache.put(key, influence)
        assert isinstance(influence, CommunityInfluence)
        if deadline is not None:
            deadline.check("influential ranking")
        # A miss recomputes the answer: the influence may be a fresh run.
        answer_key = (*key, int(size), int(top_users))
        answer = self._answer_cache.get(answer_key) if cached else None
        if answer is None:
            users, user_scores = top_influential_users(
                self.estimates, influence, size=max(top_users, 1)
            )
            self._guard("influential users", user_scores)
            answer = {
                "topic": int(topic),
                "num_simulations": int(sims),
                "communities": influence.top(
                    min(size, self.estimates.num_communities)
                ),
                "degree": [round(float(d), 6) for d in influence.degree],
                "top_users": [int(u) for u in users[:top_users]],
                "user_scores": [round(float(s), 6) for s in user_scores[:top_users]],
            }
            self._answer_cache.put(answer_key, answer)
        # Fresh lists: a caller may edit its answer, never the cached one.
        return {
            name: list(value) if isinstance(value, list) else value
            for name, value in answer.items()
        } | {"cached": cached}

    # -- validation ------------------------------------------------------------

    def _validate_words(self, words: list[int]) -> list[int]:
        if not words:
            raise PredictionError("post must contain at least one word")
        arr = np.asarray(words, dtype=np.int64)
        if arr.ndim != 1:
            raise PredictionError("words must be a flat id list")
        if arr.min() < 0 or arr.max() >= self.estimates.vocab_size:
            raise PredictionError(
                f"word id out of range [0, {self.estimates.vocab_size})"
            )
        return [int(w) for w in arr]

    def _validate_users(self, users, label: str) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(users, dtype=np.int64))
        if arr.size and (arr.min() < 0 or arr.max() >= self.estimates.num_users):
            raise PredictionError(
                f"{label} index out of range [0, {self.estimates.num_users})"
            )
        return arr

    # -- readiness -------------------------------------------------------------

    def self_check(self) -> dict:
        """Score one query of each family and validate the results.

        The hot-swap reload runs this against a candidate engine before
        swapping it in; any degenerate score or kernel failure raises and
        the previous model keeps serving.  Cheap by construction (a few
        milliseconds: IC runs with 10 simulations).
        """
        users = self.estimates.num_users
        if users < 2:
            raise ServingError("model must cover at least two users to serve")
        words = [0]
        retweet = self.retweet(0, [1], words)
        link = self.link([0], [1])
        slices, _scores = self.timestamp([0], [words])
        influential = self.influential(
            0, size=1, top_users=1, num_simulations=min(10, self.ic_simulations)
        )
        return {
            "retweet": float(retweet[0]),
            "link": float(link[0]),
            "timestamp": int(slices[0]),
            "influential_top": influential["communities"][0],
        }
