"""Graph abstraction of the distributed Gibbs sampler (paper Fig. 4).

The paper maps COLD inference onto GraphLab by building a bipartite graph:

* one vertex per **user** and one per **time slice**;
* a **user-time edge** between user ``i`` and slice ``t`` carrying the posts
  ``i`` wrote at ``t`` (their words and community/topic indicators);
* **user-user edges** carrying the community indicators of positive links.

Computation then happens on edges (the scatter phase samples indicators),
while vertices aggregate the counters their edges need — which is what lets
the state stay local and the algorithm parallelise.  This module builds the
same abstraction from a :class:`~repro.datasets.corpus.SocialCorpus`, held
as index arrays: the user-time edges in CSR form over one grouping of the
post ids, and the user-user edges as the link ids ``0 .. num_links - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.corpus import SocialCorpus


class GraphError(ValueError):
    """Raised for invalid computation-graph operations."""


@dataclass
class ComputationGraph:
    """The Fig.-4 bipartite + social graph over one corpus.

    User-time edge ``e`` joins user ``edge_users[e]`` and slice
    ``edge_times[e]`` and carries the posts
    ``post_ids[post_offsets[e]:post_offsets[e + 1]]`` (ascending).  Edges
    are sorted by (user, time).  Link ``l`` is user-user edge ``l``.
    """

    num_users: int
    num_time_slices: int
    edge_users: np.ndarray
    edge_times: np.ndarray
    post_offsets: np.ndarray
    post_ids: np.ndarray
    num_links: int

    @classmethod
    def from_corpus(cls, corpus: SocialCorpus) -> "ComputationGraph":
        """Group posts by (author, time slice); links are edges as they are."""
        authors = np.asarray(corpus.post_authors, dtype=np.int64)
        times = np.asarray(corpus.post_times, dtype=np.int64)
        order = np.lexsort((times, authors))  # stable -> post ids ascending
        sorted_authors = authors[order]
        sorted_times = times[order]
        new_edge = np.ones(len(order), dtype=bool)
        new_edge[1:] = (np.diff(sorted_authors) != 0) | (np.diff(sorted_times) != 0)
        starts = np.flatnonzero(new_edge)
        return cls(
            num_users=corpus.num_users,
            num_time_slices=corpus.num_time_slices,
            edge_users=sorted_authors[starts],
            edge_times=sorted_times[starts],
            post_offsets=np.append(starts, len(order)),
            post_ids=order.astype(np.int64, copy=False),
            num_links=corpus.num_links,
        )

    # -- sizes -----------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """User vertices + time vertices."""
        return self.num_users + self.num_time_slices

    @property
    def num_edges(self) -> int:
        return len(self.edge_users) + self.num_links

    @property
    def edge_work(self) -> np.ndarray:
        """Work per user-time edge: the number of posts it resamples."""
        return np.diff(self.post_offsets)

    @property
    def total_work(self) -> int:
        """Total per-sweep work units (posts + links)."""
        return int(self.post_offsets[-1] - self.post_offsets[0]) + self.num_links

    # -- consistency -------------------------------------------------------------

    def check_covers(self, corpus: SocialCorpus) -> None:
        """Verify the graph carries every post and link exactly once."""
        offsets = self.post_offsets
        carried = self.post_ids[offsets[0] : offsets[-1]]
        if len(offsets) != len(self.edge_users) + 1 or not np.array_equal(
            np.sort(carried), np.arange(corpus.num_posts)
        ):
            raise GraphError("user-time edges do not cover the posts exactly once")
        if self.num_links != corpus.num_links:
            raise GraphError("user-user edges do not cover the links exactly once")
