"""Graph abstraction of the distributed Gibbs sampler (paper Fig. 4).

The paper maps COLD inference onto GraphLab by building a bipartite graph:

* one vertex per **user** and one per **time slice**;
* a **user-time edge** between user ``i`` and slice ``t`` carrying the posts
  ``i`` wrote at ``t`` (their words and community/topic indicators);
* **user-user edges** carrying the community indicators of positive links.

Computation then happens on edges (the scatter phase samples indicators),
while vertices aggregate the counters their edges need — which is what lets
the state stay local and the algorithm parallelise.  This module builds the
same abstraction from a :class:`~repro.datasets.corpus.SocialCorpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.corpus import SocialCorpus


class GraphError(ValueError):
    """Raised for invalid computation-graph operations."""


@dataclass(frozen=True)
class UserTimeEdge:
    """Edge between ``user`` and time slice ``time`` carrying post indices."""

    user: int
    time: int
    post_ids: tuple[int, ...]

    @property
    def work(self) -> int:
        """Work estimate: number of posts to resample on this edge."""
        return len(self.post_ids)


@dataclass(frozen=True)
class UserUserEdge:
    """Edge for one positive link, carrying its index into corpus.links."""

    link_id: int
    src: int
    dst: int

    @property
    def work(self) -> int:
        """Work estimate: one joint (s, s') resample."""
        return 1


@dataclass
class ComputationGraph:
    """The Fig.-4 bipartite + social graph over one corpus."""

    num_users: int
    num_time_slices: int
    user_time_edges: list[UserTimeEdge]
    user_user_edges: list[UserUserEdge]

    @classmethod
    def from_corpus(cls, corpus: SocialCorpus) -> "ComputationGraph":
        """Group posts by (author, time slice) and wrap links as edges."""
        user_time_edges = cls._group_post_columns(
            np.asarray(corpus.post_authors), np.asarray(corpus.post_times)
        )
        user_user_edges = [
            UserUserEdge(link_id=link_id, src=src, dst=dst)
            for link_id, (src, dst) in enumerate(corpus.link_array().tolist())
        ]
        return cls(
            num_users=corpus.num_users,
            num_time_slices=corpus.num_time_slices,
            user_time_edges=user_time_edges,
            user_user_edges=user_user_edges,
        )

    @staticmethod
    def _group_post_columns(
        authors: np.ndarray, times: np.ndarray
    ) -> list[UserTimeEdge]:
        """Vectorised (author, time) grouping: edges sorted by
        (user, time), each edge's post ids ascending."""
        if len(authors) == 0:
            return []
        order = np.lexsort((times, authors))  # stable -> post ids ascending
        sorted_authors = authors[order]
        sorted_times = times[order]
        boundaries = np.flatnonzero(
            (np.diff(sorted_authors) != 0) | (np.diff(sorted_times) != 0)
        )
        starts = np.concatenate(([0], boundaries + 1))
        stops = np.concatenate((boundaries + 1, [len(order)]))
        order_list = order.tolist()
        return [
            UserTimeEdge(
                user=int(sorted_authors[lo]),
                time=int(sorted_times[lo]),
                post_ids=tuple(order_list[lo:hi]),
            )
            for lo, hi in zip(starts.tolist(), stops.tolist())
        ]

    # -- sizes -----------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """User vertices + time vertices."""
        return self.num_users + self.num_time_slices

    @property
    def num_edges(self) -> int:
        return len(self.user_time_edges) + len(self.user_user_edges)

    @property
    def total_work(self) -> int:
        """Total per-sweep work units (posts + links)."""
        posts = sum(edge.work for edge in self.user_time_edges)
        links = len(self.user_user_edges)
        return posts + links

    # -- consistency -------------------------------------------------------------

    def post_ids(self) -> np.ndarray:
        """All post indices carried by user-time edges (sorted, unique)."""
        ids = [pid for edge in self.user_time_edges for pid in edge.post_ids]
        return np.asarray(sorted(ids), dtype=np.int64)

    def check_covers(self, corpus: SocialCorpus) -> None:
        """Verify the graph carries every post and link exactly once."""
        ids = self.post_ids()
        expected = np.arange(corpus.num_posts)
        if len(ids) != corpus.num_posts or not np.array_equal(ids, expected):
            raise GraphError("user-time edges do not cover the posts exactly once")
        link_ids = sorted(edge.link_id for edge in self.user_user_edges)
        if link_ids != list(range(corpus.num_links)):
            raise GraphError("user-user edges do not cover the links exactly once")

    def degree_of_user(self, user: int) -> int:
        """Number of edges incident to a user vertex (time + social)."""
        if not 0 <= user < self.num_users:
            raise GraphError(f"user {user} out of range")
        time_degree = sum(1 for e in self.user_time_edges if e.user == user)
        social = sum(
            1 for e in self.user_user_edges if user in (e.src, e.dst)
        )
        return time_degree + social
