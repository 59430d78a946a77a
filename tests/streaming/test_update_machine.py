"""A hypothesis state machine driving COLDModel.update with arbitrary events.

Every step feeds one batch: posts by known and new users over known and
new terms, links (self-links and repeats included), stamps in and past
the fitted grid, before its origin, out of order and duplicated, under
each rollover policy; or a ready-made increment with self-links and
links the state already holds.  After every step the counters must equal
a recount and the attached corpus must mirror the state.  A typed
ingestion error must leave the state, the corpus and the builder's
interning as they were.
"""

from __future__ import annotations

import copy
from functools import cache

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import StreamConfig
from repro.core.model import COLDModel
from repro.datasets.corpus import Post
from repro.datasets.stream import (
    CorpusIncrement,
    CorpusStreamBuilder,
    PostEvent,
    RolloverError,
    StaleEventError,
)
from repro.datasets.synthetic import SyntheticConfig, generate_corpus
from repro.streaming import corpus_to_events

WORLD = SyntheticConfig(
    num_users=12, num_communities=3, num_topics=3, num_time_slices=4,
    vocab_size=30, anchors_per_topic=4, mean_posts_per_user=4.0,
    mean_words_per_post=4.0, mean_links_per_user=2.0, seed=5,
)

USER_KEYS = [f"u{i}" for i in range(WORLD.num_users)] + ["new0", "new1", "new2"]
TOKENS = [f"term{v:05d}" for v in range(WORLD.vocab_size)] + ["fresh0", "fresh1"]
#: Stamps as fractions of the fitted span from its origin: before it
#: (stale), on its edges, inside, and up to three spans past it.  The
#: fixed values make repeated stamps likely.
STAMPS = st.sampled_from([-0.25, 0.0, 0.5, 1.0, 1.1, 2.0]) | st.floats(-0.5, 3.0)

posts = st.tuples(
    st.just("post"), st.sampled_from(USER_KEYS),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5), STAMPS,
)
links = st.tuples(
    st.just("link"), st.sampled_from(USER_KEYS), st.sampled_from(USER_KEYS), STAMPS,
)


@cache
def bootstrap() -> COLDModel:
    """A fitted model with a live incremental builder; copy before use."""
    corpus, _ = generate_corpus(WORLD)
    builder = CorpusStreamBuilder(num_time_slices=WORLD.num_time_slices)
    for event in corpus_to_events(corpus):
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)
    model = COLDModel(num_communities=3, num_topics=3, seed=0)
    model.fit(builder.build(incremental=True), num_iterations=2)
    model.stream_builder_ = builder
    return model


def snapshot(model: COLDModel) -> dict:
    """Everything a failed update must leave alone."""
    builder = model.stream_builder_
    corpus = model.corpus_
    return {
        **{name: array.copy() for name, array in model.state_.to_arrays().items()},
        "corpus": (
            len(corpus.posts), list(corpus.links), corpus.num_users,
            corpus.vocab_size, corpus.num_time_slices,
        ),
        "interned": (len(builder._user_ids), len(builder._vocabulary)),
        "update_count": model.update_count_,
    }


def assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(after[name], value, err_msg=name)
        else:
            assert after[name] == value, name


class UpdateMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model = copy.deepcopy(bootstrap())
        builder = self.model.stream_builder_
        self.origin, self.span = builder._origin, builder._span

    @rule(
        batch=st.lists(posts | links, min_size=1, max_size=6),
        rollover=st.sampled_from(["grow", "clamp", "error"]),
        max_new_slices=st.sampled_from([1, 256]),
    )
    def update_with_events(self, batch, rollover, max_new_slices):
        builder = self.model.stream_builder_
        for kind, first, second, stamp in batch:
            time = self.origin + stamp * self.span
            if kind == "post":
                builder.add_post(first, second, time)
            else:
                builder.add_link(first, second, time)
        before = snapshot(self.model)
        config = StreamConfig(
            update_sweeps=1, sample_last=1, rollover=rollover,
            max_new_slices=max_new_slices,
        )
        try:
            self.model.update([], stream=config)
        except (StaleEventError, RolloverError):
            assert_same(before, snapshot(self.model))
            # Drop the rejected batch, as a caller repairing the stream would.
            builder._post_events.clear()
            builder._link_events.clear()

    @rule(
        data=st.data(),
        num_posts=st.integers(0, 3),
    )
    def update_with_increment(self, data, num_posts):
        """Posts and links in the model's id space: self-links, repeats and
        links the state already holds are dropped by ``fold_increment``."""
        state = self.model.state_
        users = state.n_user_comm.shape[0]
        vocab = state.n_topic_word.shape[1]
        slices = state.n_comm_topic_time.shape[2]
        user = st.integers(0, users - 1)
        known = [tuple(edge) for edge in state.links[:5].tolist()]
        new_posts = tuple(
            Post(
                author=data.draw(user),
                words=tuple(data.draw(st.lists(
                    st.integers(0, vocab - 1), min_size=1, max_size=4
                ))),
                timestamp=data.draw(st.integers(0, slices - 1)),
            )
            for _ in range(num_posts)
        )
        edge = st.tuples(user, user)
        if known:
            edge |= st.sampled_from(known)
        new_links = tuple(data.draw(st.lists(edge, max_size=5)))
        self.model.update(
            CorpusIncrement(
                posts=new_posts, links=new_links, num_users=users,
                vocab_size=vocab, num_time_slices=slices,
            ),
            stream=StreamConfig(update_sweeps=1, sample_last=1),
        )

    @invariant()
    def counters_match_a_recount(self) -> None:
        self.model.state_.check_invariants()

    @invariant()
    def corpus_mirrors_the_state(self) -> None:
        state, corpus = self.model.state_, self.model.corpus_
        assert len(corpus.posts) == state.num_posts
        assert corpus.num_links == state.num_links
        assert corpus.num_users == state.n_user_comm.shape[0]
        assert corpus.vocab_size == state.n_topic_word.shape[1]
        assert corpus.num_time_slices == state.n_comm_topic_time.shape[2]
        assert corpus.vocabulary is None or len(corpus.vocabulary) == corpus.vocab_size


UpdateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=8, deadline=None
)
TestUpdateMachine = UpdateMachine.TestCase
