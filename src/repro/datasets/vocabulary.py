"""Vocabulary: a bidirectional token <-> integer-id mapping.

The COLD paper works over a fixed vocabulary extracted from the corpus after
stop-word removal (89K terms on Weibo dataset 1).  This module provides the
small substrate every text model in the repository shares: a frozen,
append-only mapping with deterministic ids, optional stop-word filtering and
minimum-frequency pruning.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

import numpy as np


class VocabularyError(ValueError):
    """Raised on invalid vocabulary operations (unknown token, frozen add)."""


class Vocabulary:
    """Token <-> id bijection with optional freezing.

    Ids are assigned densely in first-seen order, which keeps the mapping
    deterministic for a fixed token stream and makes word-count arrays
    directly indexable by id.

    Parameters
    ----------
    tokens:
        Optional initial tokens, added in order.
    """

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._frozen = False
        self.add_all(tokens)

    # -- construction ------------------------------------------------------

    def add(self, token: str) -> int:
        """Add ``token`` (if new) and return its id.

        Raises :class:`VocabularyError` when the vocabulary is frozen and the
        token is unknown.
        """
        if not isinstance(token, str) or not token:
            raise VocabularyError(f"tokens must be non-empty strings, got {token!r}")
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        if self._frozen:
            raise VocabularyError(f"vocabulary is frozen; cannot add {token!r}")
        new_id = len(self._id_to_token)
        self._token_to_id[token] = new_id
        self._id_to_token.append(token)
        return new_id

    def add_all(self, tokens: Iterable[str]) -> list[int]:
        """Add every token and return their ids in order: :meth:`add_array`
        as a list."""
        return self.add_array(list(tokens)).tolist()

    def add_array(self, tokens: Sequence[str]) -> np.ndarray:
        """Add every token and return their ids in order, as an int64 array.

        All or nothing: new tokens get ids in first-seen order, and the
        first new token that :meth:`add` would reject raises its
        :class:`VocabularyError` before any token is added.
        """
        table = self._token_to_id
        fresh = [token for token in dict.fromkeys(tokens) if token not in table]
        for token in fresh:
            if self._frozen or not isinstance(token, str) or not token:
                self.add(token)  # raises add's error for this token
        table.update(zip(fresh, range(len(self), len(self) + len(fresh))))
        self._id_to_token.extend(fresh)
        return np.fromiter(map(table.__getitem__, tokens), np.int64, len(tokens))

    def freeze(self) -> "Vocabulary":
        """Disallow further additions; returns self for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookup ------------------------------------------------------------

    def id_of(self, token: str) -> int:
        """Return the id of ``token``; raises for unknown tokens."""
        try:
            return self._token_to_id[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None

    def get(self, token: str, default: int | None = None) -> int | None:
        """Return the id of ``token`` or ``default`` when unknown."""
        return self._token_to_id.get(token, default)

    def token_of(self, token_id: int) -> str:
        """Return the token with id ``token_id``; raises for out-of-range ids."""
        if not 0 <= token_id < len(self._id_to_token):
            raise VocabularyError(f"token id {token_id} out of range [0, {len(self)})")
        return self._id_to_token[token_id]

    def encode(self, tokens: Sequence[str], skip_unknown: bool = False) -> list[int]:
        """Map tokens to ids.

        When ``skip_unknown`` is true, unknown tokens are silently dropped
        (the standard treatment of out-of-vocabulary words at test time);
        otherwise an unknown token raises.
        """
        if skip_unknown:
            ids = []
            for token in tokens:
                token_id = self._token_to_id.get(token)
                if token_id is not None:
                    ids.append(token_id)
            return ids
        return [self.id_of(token) for token in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Map ids back to tokens."""
        return [self.token_of(token_id) for token_id in ids]

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: object) -> bool:
        return token in self._token_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_token == other._id_to_token

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "open"
        return f"Vocabulary({len(self)} tokens, {state})"

    # -- serialisation -----------------------------------------------------

    def to_list(self) -> list[str]:
        """Tokens in id order (a copy, safe to mutate)."""
        return list(self._id_to_token)

    @classmethod
    def from_list(cls, tokens: Sequence[str], frozen: bool = True) -> "Vocabulary":
        """Rebuild a vocabulary from an id-ordered token list."""
        vocab = cls(tokens)
        if len(vocab) != len(tokens):
            raise VocabularyError("token list contains duplicates")
        if frozen:
            vocab.freeze()
        return vocab


def build_vocabulary(
    documents: Iterable[Sequence[str]],
    min_count: int = 1,
    stopwords: Iterable[str] = (),
    max_size: int | None = None,
) -> Vocabulary:
    """Build a frozen vocabulary from tokenised documents.

    Mirrors the paper's preprocessing: stop-word removal and pruning of rare
    terms.  Tokens are ranked by (count desc, token asc) before ``max_size``
    truncation so the result is deterministic.
    """
    if min_count < 1:
        raise VocabularyError(f"min_count must be >= 1, got {min_count}")
    stop = set(stopwords)
    counts: Counter[str] = Counter()
    for doc in documents:
        counts.update(token for token in doc if token not in stop)
    kept = [(token, count) for token, count in counts.items() if count >= min_count]
    kept.sort(key=lambda item: (-item[1], item[0]))
    if max_size is not None:
        kept = kept[:max_size]
    return Vocabulary(token for token, _count in kept).freeze()
