"""Unit tests for repro.datasets.vocabulary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets.vocabulary import Vocabulary, VocabularyError, build_vocabulary


class Token(str):
    """A ``str`` subclass: a valid token of another type."""


#: Tokens ``add`` takes or rejects: strings, the empty string, a ``str``
#: subclass and non-strings.
tokens = st.one_of(
    st.sampled_from(["a", "b", "c", "dd"]),
    st.just(""),
    st.sampled_from(["a", "e"]).map(Token),
    st.integers(0, 2),
    st.none(),
)


def _one_by_one(vocab: Vocabulary, batch: list):
    """The per-token oracle of a batch: the first token ``add`` rejects
    raises its error and no token of the batch is added."""
    before = vocab.to_list()
    try:
        for token in batch:
            vocab.add(token)
    except VocabularyError as error:
        vocab._id_to_token[len(before):] = []
        vocab._token_to_id = {token: i for i, token in enumerate(before)}
        return str(error)
    return None


def _batched(build):
    try:
        return build(), None
    except VocabularyError as error:
        return None, str(error)


class TestAdd:
    def test_assigns_dense_ids_in_first_seen_order(self):
        vocab = Vocabulary()
        assert vocab.add("alpha") == 0
        assert vocab.add("beta") == 1
        assert vocab.add("gamma") == 2

    def test_re_adding_returns_existing_id(self):
        vocab = Vocabulary(["alpha", "beta"])
        assert vocab.add("alpha") == 0
        assert len(vocab) == 2

    def test_add_all_returns_ids_in_order(self):
        vocab = Vocabulary()
        assert vocab.add_all(["x", "y", "x"]) == [0, 1, 0]

    def test_rejects_empty_token(self):
        with pytest.raises(VocabularyError):
            Vocabulary().add("")

    def test_rejects_non_string_token(self):
        with pytest.raises(VocabularyError):
            Vocabulary().add(42)  # type: ignore[arg-type]


class TestBatchMatchesAdd:
    """The constructor and ``add_array`` against one ``add`` per token:
    same ids in the same order, or the same first error and nothing added."""

    @given(st.lists(tokens, max_size=8))
    def test_constructor(self, batch):
        oracle = Vocabulary()
        error = _one_by_one(oracle, batch)
        vocab, got = _batched(lambda: Vocabulary(batch))
        assert got == error
        if error is None:
            assert vocab.to_list() == oracle.to_list()
            assert vocab._token_to_id == oracle._token_to_id

    @given(
        st.lists(st.sampled_from(["a", "b"]), max_size=3),
        st.lists(tokens, max_size=8),
        st.booleans(),
    )
    def test_add_array(self, known, batch, frozen):
        oracle, vocab = Vocabulary(known), Vocabulary(known)
        if frozen:
            oracle.freeze(), vocab.freeze()
        error = _one_by_one(oracle, batch)
        ids, got = _batched(lambda: vocab.add_array(batch))
        assert got == error
        assert vocab.to_list() == oracle.to_list()
        assert vocab._token_to_id == oracle._token_to_id
        if error is None:
            assert ids.tolist() == [oracle.id_of(token) for token in batch]


class TestFreeze:
    def test_frozen_vocabulary_rejects_new_tokens(self):
        vocab = Vocabulary(["alpha"]).freeze()
        with pytest.raises(VocabularyError):
            vocab.add("beta")

    def test_frozen_vocabulary_still_returns_known_ids(self):
        vocab = Vocabulary(["alpha"]).freeze()
        assert vocab.add("alpha") == 0

    def test_freeze_is_chainable_and_flagged(self):
        vocab = Vocabulary().freeze()
        assert vocab.frozen


class TestLookup:
    def test_id_and_token_roundtrip(self):
        vocab = Vocabulary(["alpha", "beta"])
        for token in vocab:
            assert vocab.token_of(vocab.id_of(token)) == token

    def test_unknown_token_raises(self):
        with pytest.raises(VocabularyError):
            Vocabulary().id_of("missing")

    def test_get_returns_default_for_unknown(self):
        assert Vocabulary().get("missing") is None
        assert Vocabulary().get("missing", -1) == -1

    def test_out_of_range_id_raises(self):
        vocab = Vocabulary(["alpha"])
        with pytest.raises(VocabularyError):
            vocab.token_of(5)
        with pytest.raises(VocabularyError):
            vocab.token_of(-1)

    def test_contains(self):
        vocab = Vocabulary(["alpha"])
        assert "alpha" in vocab
        assert "beta" not in vocab


class TestEncodeDecode:
    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary(["a", "b", "c"])
        tokens = ["c", "a", "c", "b"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_encode_raises_on_unknown_by_default(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(VocabularyError):
            vocab.encode(["a", "zzz"])

    def test_encode_skip_unknown_drops_oov_tokens(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.encode(["a", "zzz", "b"], skip_unknown=True) == [0, 1]


class TestSerialisation:
    def test_to_list_from_list_roundtrip(self):
        vocab = Vocabulary(["x", "y", "z"])
        rebuilt = Vocabulary.from_list(vocab.to_list())
        assert rebuilt == vocab
        assert rebuilt.frozen

    def test_from_list_rejects_duplicates(self):
        with pytest.raises(VocabularyError):
            Vocabulary.from_list(["x", "x"])

    def test_to_list_returns_copy(self):
        vocab = Vocabulary(["x"])
        listed = vocab.to_list()
        listed.append("mutated")
        assert len(vocab) == 1

    def test_equality_ignores_frozen_state(self):
        assert Vocabulary(["a"]) == Vocabulary(["a"]).freeze()

    def test_inequality_with_other_types(self):
        assert Vocabulary(["a"]) != ["a"]


class TestBuildVocabulary:
    def test_counts_and_min_count_pruning(self):
        docs = [["a", "a", "b"], ["a", "c"]]
        vocab = build_vocabulary(docs, min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert "c" not in vocab

    def test_stopwords_are_removed(self):
        docs = [["the", "cat"], ["the", "dog"]]
        vocab = build_vocabulary(docs, stopwords=["the"])
        assert "the" not in vocab
        assert "cat" in vocab

    def test_max_size_keeps_most_frequent(self):
        docs = [["a"] * 5 + ["b"] * 3 + ["c"]]
        vocab = build_vocabulary(docs, max_size=2)
        assert set(vocab) == {"a", "b"}

    def test_deterministic_id_order_by_frequency_then_token(self):
        docs = [["b", "a", "b", "a", "c"]]
        vocab = build_vocabulary(docs)
        # a and b tie at 2, broken alphabetically; c last with 1.
        assert vocab.to_list() == ["a", "b", "c"]

    def test_result_is_frozen(self):
        vocab = build_vocabulary([["a"]])
        assert vocab.frozen

    def test_invalid_min_count_raises(self):
        with pytest.raises(VocabularyError):
            build_vocabulary([["a"]], min_count=0)
