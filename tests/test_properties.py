"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gibbs import categorical, sweep
from repro.core.params import Hyperparameters
from repro.core.state import CountState
from repro.datasets.corpus import Post, SocialCorpus
from repro.datasets.vocabulary import Vocabulary
from repro.eval.auc import roc_auc
from repro.eval.timestamp import accuracy_at_tolerance
from repro.parallel.graph import ComputationGraph
from repro.parallel.partition import partition_graph

# -- strategies ----------------------------------------------------------------

tokens = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)


@st.composite
def corpora(draw) -> SocialCorpus:
    """Small random-but-valid corpora."""
    num_users = draw(st.integers(min_value=2, max_value=6))
    num_slices = draw(st.integers(min_value=1, max_value=4))
    vocab_size = draw(st.integers(min_value=3, max_value=12))
    num_posts = draw(st.integers(min_value=1, max_value=12))
    posts = []
    for _ in range(num_posts):
        author = draw(st.integers(min_value=0, max_value=num_users - 1))
        timestamp = draw(st.integers(min_value=0, max_value=num_slices - 1))
        words = draw(
            st.lists(
                st.integers(min_value=0, max_value=vocab_size - 1),
                min_size=1,
                max_size=6,
            )
        )
        posts.append(Post(author=author, words=tuple(words), timestamp=timestamp))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_users - 1),
                st.integers(min_value=0, max_value=num_users - 1),
            ),
            max_size=8,
        )
    )
    links = [(s, d) for s, d in pairs if s != d]
    return SocialCorpus(
        num_users=num_users,
        num_time_slices=num_slices,
        posts=posts,
        links=links,
        vocab_size=vocab_size,
    )


# -- vocabulary ------------------------------------------------------------------


@given(st.lists(tokens, min_size=1, max_size=30))
def test_vocabulary_encode_decode_is_identity(token_list):
    vocab = Vocabulary()
    vocab.add_all(token_list)
    assert vocab.decode(vocab.encode(token_list)) == token_list


@given(st.lists(tokens, min_size=1, max_size=30))
def test_vocabulary_ids_are_dense_and_unique(token_list):
    vocab = Vocabulary(token_list)
    ids = sorted(vocab.id_of(token) for token in set(token_list))
    assert ids == list(range(len(vocab)))


@given(st.lists(tokens, min_size=1, max_size=20))
def test_vocabulary_roundtrip_through_list(token_list):
    vocab = Vocabulary(token_list)
    assert Vocabulary.from_list(vocab.to_list()) == vocab


# -- corpus -----------------------------------------------------------------------


@given(corpora())
def test_corpus_word_count_matrix_total(corpus):
    assert corpus.word_count_matrix().sum() == corpus.num_words


@given(corpora())
def test_corpus_out_in_links_are_transposes(corpus):
    outgoing = corpus.out_links()
    incoming = corpus.in_links()
    forward = {(s, d) for s, targets in enumerate(outgoing) for d in targets}
    backward = {(s, d) for d, sources in enumerate(incoming) for s in sources}
    assert forward == backward == corpus.link_set()


@given(corpora())
def test_corpus_negative_links_complement(corpus):
    assert (
        corpus.num_links + corpus.num_negative_links
        == corpus.num_users * (corpus.num_users - 1)
    )


# -- Gibbs state --------------------------------------------------------------------


@given(corpora(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_gibbs_sweep_preserves_count_invariants(corpus, C, K):
    rng = np.random.default_rng(0)
    state = CountState.initialize(corpus, C, K, rng)
    hp = Hyperparameters(
        rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=1.0, lambda1=0.1
    )
    sweep(state, hp, rng)
    state.check_invariants()  # raises on violation


@given(corpora())
@settings(max_examples=25, deadline=None)
def test_count_totals_conserved(corpus):
    rng = np.random.default_rng(1)
    state = CountState.initialize(corpus, 2, 2, rng)
    assert state.n_comm_topic.sum() == corpus.num_posts
    assert state.n_topic_total.sum() == corpus.num_words
    assert state.n_link_comm.sum() == corpus.num_links


# -- categorical sampling --------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_categorical_returns_valid_index_with_positive_weight(weights, seed):
    array = np.asarray(weights)
    rng = np.random.default_rng(seed)
    index = categorical(array, rng)
    assert 0 <= index < len(array)
    if array.sum() > 0:
        assert array[index] > 0 or array.max() == 0


# -- partitioning -----------------------------------------------------------------------


@given(corpora(), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_partition_covers_all_work_exactly_once(corpus, num_nodes):
    graph = ComputationGraph.from_corpus(corpus)
    shards, stats = partition_graph(graph, num_nodes)
    posts = sorted(int(p) for shard in shards for p in shard.post_ids)
    links = sorted(int(e) for shard in shards for e in shard.link_ids)
    assert posts == list(range(corpus.num_posts))
    assert links == list(range(corpus.num_links))
    assert stats.total_work == graph.total_work
    assert stats.imbalance >= 1.0


# -- metrics ----------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
)
def test_roc_auc_bounded_and_antisymmetric(pos, neg):
    p = np.asarray(pos)
    n = np.asarray(neg)
    value = roc_auc(p, n)
    assert 0.0 <= value <= 1.0
    assert value + roc_auc(n, p) == 1.0


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=-5, max_value=5),
)
def test_roc_auc_invariant_under_affine_transform(pos, neg, scale, shift):
    # Integer scores and transforms keep float comparisons (and hence tie
    # structure) exact; continuous transforms can flip ties by rounding.
    p = np.asarray(pos, dtype=np.float64)
    n = np.asarray(neg, dtype=np.float64)
    assert roc_auc(p, n) == roc_auc(p * scale + shift, n * scale + shift)


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40))
def test_accuracy_monotone_in_tolerance(errors):
    array = np.asarray(errors)
    values = [accuracy_at_tolerance(array, tol) for tol in range(0, 22)]
    assert values == sorted(values)
    assert values[-1] == 1.0
