"""UMass topic coherence — a ground-truth-free topic quality metric.

Figure 8's qualitative claim ("meaningful subjects can be observed") has a
standard quantitative counterpart in the topic-modelling literature: UMass
coherence [Mimno et al. 2011], the average log co-occurrence lift of a
topic's top words::

    coherence(k) = mean over top-word pairs (v_i, v_j), i > j of
                   log[ (D(v_i, v_j) + eps) / D(v_j) ]

where ``D(v)`` counts documents containing ``v`` and ``D(v_i, v_j)`` counts
co-occurrences.  Higher (closer to zero) is better.  Coherent topics put
words together that genuinely co-occur in posts.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from ..datasets.corpus import SocialCorpus


class CoherenceError(ValueError):
    """Raised for invalid coherence computations."""


class CooccurrenceIndex:
    """Document-frequency and pairwise co-occurrence counts over a corpus.

    Built once (O(total unique-word pairs per post)), then shared across
    topic evaluations.  The counts are kept as arrays: one document
    frequency per word id and the sorted keys of the co-occurring pairs,
    so a batch of lookups is one gather and one ``searchsorted``.
    """

    def __init__(self, corpus: SocialCorpus) -> None:
        if corpus.num_posts == 0:
            raise CoherenceError("corpus has no posts")
        self.num_documents = corpus.num_posts
        doc_freq: dict[int, int] = {}
        pair_freq: dict[tuple[int, int], int] = {}
        for post in corpus.posts:
            unique = sorted(set(post.words))
            for v in unique:
                doc_freq[v] = doc_freq.get(v, 0) + 1
            for i in range(len(unique)):
                for j in range(i + 1, len(unique)):
                    pair = (unique[i], unique[j])
                    pair_freq[pair] = pair_freq.get(pair, 0) + 1
        words = np.fromiter(doc_freq, np.int64, len(doc_freq))
        self._doc_freq = np.zeros(max(doc_freq, default=-1) + 1, np.int64)
        self._doc_freq[words] = np.fromiter(doc_freq.values(), np.int64, len(words))
        pairs = np.fromiter(
            chain.from_iterable(pair_freq), np.int64, 2 * len(pair_freq)
        ).reshape(-1, 2)
        keys = self._pair_key(pairs[:, 0], pairs[:, 1])
        order = np.argsort(keys)
        self._pair_keys = keys[order]
        self._pair_freq = np.fromiter(
            pair_freq.values(), np.int64, len(pair_freq)
        )[order]

    def _pair_key(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """One int64 per word pair ``low <= high`` (ids below the table)."""
        return low * len(self._doc_freq) + high

    def document_frequencies(self, words: np.ndarray) -> np.ndarray:
        """Number of posts containing each word of ``words``."""
        words = np.asarray(words, dtype=np.int64)
        known = (words >= 0) & (words < len(self._doc_freq))
        return np.where(known, self._doc_freq[np.where(known, words, 0)], 0)

    def co_document_frequencies(
        self, words_a: np.ndarray, words_b: np.ndarray
    ) -> np.ndarray:
        """Number of posts containing both words, pair by pair (order-free;
        a word paired with itself counts its documents)."""
        words_a = np.asarray(words_a, dtype=np.int64)
        words_b = np.asarray(words_b, dtype=np.int64)
        low, high = np.minimum(words_a, words_b), np.maximum(words_a, words_b)
        known = (low >= 0) & (high < len(self._doc_freq))
        keys = self._pair_key(np.where(known, low, 0), np.where(known, high, 0))
        slot = np.searchsorted(self._pair_keys, keys)
        found = known & (slot < len(self._pair_keys))
        found[found] = self._pair_keys[slot[found]] == keys[found]
        counts = np.zeros(keys.shape, np.int64)
        counts[found] = self._pair_freq[slot[found]]
        same = low == high
        counts[same] = self.document_frequencies(low[same])
        return counts

    def document_frequency(self, word: int) -> int:
        """Number of posts containing ``word``."""
        return int(self.document_frequencies([word])[0])

    def co_document_frequency(self, word_a: int, word_b: int) -> int:
        """Number of posts containing both words (order-free)."""
        return int(self.co_document_frequencies([word_a], [word_b])[0])


def umass_coherence(
    index: CooccurrenceIndex,
    top_word_ids: list[int],
    epsilon: float = 1.0,
) -> float:
    """UMass coherence of one topic's ranked top words.

    ``top_word_ids`` must be ranked by topic weight (descending); the
    conditioning word of each pair is the higher-ranked one, per the
    original formulation.
    """
    if len(top_word_ids) < 2:
        raise CoherenceError("need at least two top words")
    if epsilon <= 0:
        raise CoherenceError("epsilon must be positive")
    total = 0.0
    pairs = 0
    for i in range(1, len(top_word_ids)):
        for j in range(i):
            v_i, v_j = top_word_ids[i], top_word_ids[j]
            denominator = index.document_frequency(v_j)
            if denominator == 0:
                continue
            numerator = index.co_document_frequency(v_i, v_j) + epsilon
            total += math.log(numerator / denominator)
            pairs += 1
    if pairs == 0:
        raise CoherenceError("no scorable word pairs (all unseen words)")
    return total / pairs


def umass_coherences(
    index: CooccurrenceIndex,
    top_word_ids: np.ndarray,
    epsilon: float = 1.0,
) -> np.ndarray:
    """:func:`umass_coherence` of every row of ranked top words, in one batch.

    Every pair's frequencies are looked up in one pass and its log lift
    taken in one ``np.log``; each row's mean agrees with
    :func:`umass_coherence` to rounding (numpy sums pairwise, the scalar
    version left to right).
    """
    top = np.asarray(top_word_ids, dtype=np.int64)
    if top.ndim != 2 or top.shape[1] < 2:
        raise CoherenceError("need at least two top words")
    if epsilon <= 0:
        raise CoherenceError("epsilon must be positive")
    # Pairs (i, j), i > j, in umass_coherence's loop order; the
    # higher-ranked word j conditions.
    later, earlier = np.tril_indices(top.shape[1], -1)
    first, second = top[:, earlier].ravel(), top[:, later].ravel()
    denominator = index.document_frequencies(first).astype(np.float64)
    numerator = index.co_document_frequencies(second, first).astype(np.float64)
    scored = denominator != 0
    terms = np.zeros(len(first))
    np.divide(numerator + epsilon, denominator, out=terms, where=scored)
    np.log(terms, out=terms, where=scored)
    pairs = scored.reshape(len(top), -1).sum(axis=1)
    if not pairs.all():
        raise CoherenceError("no scorable word pairs (all unseen words)")
    return terms.reshape(len(top), -1).sum(axis=1) / pairs


def topic_coherences(
    phi: np.ndarray,
    corpus: SocialCorpus,
    top_n: int = 10,
    epsilon: float = 1.0,
    index: CooccurrenceIndex | None = None,
) -> np.ndarray:
    """UMass coherence of every topic in a fitted ``phi`` matrix.

    ``index`` reuses a prebuilt co-occurrence index over ``corpus``.  One
    row-wise sort ranks every topic's words, each row in the order
    ``np.argsort(phi[k])[::-1]`` gives it.
    """
    if top_n < 2:
        raise CoherenceError("top_n must be >= 2")
    if phi.ndim != 2 or phi.shape[1] != corpus.vocab_size:
        raise CoherenceError("phi shape does not match the corpus vocabulary")
    if index is None:
        index = CooccurrenceIndex(corpus)
    ranked = np.argsort(phi, axis=1)[:, ::-1][:, :top_n]
    return umass_coherences(index, ranked, epsilon)


def mean_coherence(
    phi: np.ndarray, corpus: SocialCorpus, top_n: int = 10
) -> float:
    """Convenience: mean UMass coherence across topics (higher is better)."""
    return float(topic_coherences(phi, corpus, top_n).mean())
