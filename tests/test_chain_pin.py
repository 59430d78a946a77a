"""The Gibbs chain, pinned.

Bit-identity between the native and reference kernels cannot catch a
change both share: the RNG call order, a permutation, the order
``initialize`` draws in.  These digests of the assignments after a few
sweeps on the e2e benchmark's MEDIUM world at seed 7 can.  A change that
draws a new chain on purpose re-pins them once and says why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.model import COLDModel
from repro.datasets.synthetic import SyntheticConfig, generate_corpus

MEDIUM_WORLD = SyntheticConfig(
    num_users=600,
    num_communities=10,
    num_topics=20,
    num_time_slices=12,
    vocab_size=2000,
    mean_posts_per_user=8.0,
    mean_words_per_post=40.0,
    mean_links_per_user=3.0,
    seed=7,
)

#: (num_nodes, executor) -> sha256 of the assignments after 3 sweeps.
CHAIN_SHA256 = {
    (1, "simulated"): (
        "5cad144cf8b07b62dad85ec95032a1e5c8488b1755a38bb731fa7453c5feea0e"
    ),
    (2, "simulated"): (
        "4fbfef6babd8c7e29d99ff8b61a8395547011697484218edc9198c0425066977"
    ),
}


def _assignments_digest(state) -> str:
    digest = hashlib.sha256()
    for name in ("post_comm", "post_topic", "link_src_comm", "link_dst_comm"):
        digest.update(np.ascontiguousarray(getattr(state, name), "<i8").tobytes())
    digest.update(str(state.degenerate_draws).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def medium_corpus():
    corpus, _truth = generate_corpus(MEDIUM_WORLD)
    return corpus


@pytest.mark.parametrize(("num_nodes", "executor"), sorted(CHAIN_SHA256))
def test_medium_chain_is_pinned(medium_corpus, num_nodes, executor):
    model = COLDModel(
        num_communities=20, num_topics=40, seed=7,
        num_nodes=num_nodes, executor=executor,
    )
    model.fit(medium_corpus, num_iterations=3)
    assert _assignments_digest(model.state_) == CHAIN_SHA256[num_nodes, executor]
