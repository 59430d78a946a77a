"""Edge partitioning across simulated cluster nodes (paper §4.3).

"The data, as well as computation tasks, is partitioned into fine
granularity and evenly distributed to each vertex and edge" — we reproduce
this with greedy longest-processing-time (LPT) bin packing of edges onto
``num_nodes`` shards, balancing the per-sweep work estimate (posts + links).
LPT guarantees a makespan within 4/3 of optimal, which keeps the simulated
cluster's load imbalance low and the Fig.-13b speedups near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ComputationGraph


class PartitionError(ValueError):
    """Raised for invalid partitioning requests."""


@dataclass(frozen=True)
class Shard:
    """One cluster node's slice of the computation graph: the post and
    link indices it resamples, in sweep order."""

    node_id: int
    post_ids: np.ndarray
    link_ids: np.ndarray

    @property
    def work(self) -> int:
        return len(self.post_ids) + len(self.link_ids)


@dataclass(frozen=True)
class PartitionStats:
    """Load-balance summary of a partitioning."""

    work_per_node: tuple[int, ...]

    @property
    def imbalance(self) -> float:
        """max/mean work ratio; 1.0 is perfectly balanced."""
        work = np.asarray(self.work_per_node, dtype=np.float64)
        mean = work.mean()
        if mean == 0:
            return 1.0
        return float(work.max() / mean)

    @property
    def total_work(self) -> int:
        return int(sum(self.work_per_node))


def partition_graph(
    graph: ComputationGraph, num_nodes: int
) -> tuple[list[Shard], PartitionStats]:
    """LPT-balance all edges of ``graph`` onto ``num_nodes`` shards.

    Edges are taken by decreasing work — ties user-time edges first, in
    (user, time) order, then links by id — and each is placed on the
    currently lightest shard, the lower node id on equal loads.  Every
    edge lands on exactly one shard, so each post/link is resampled by
    exactly one node per superstep.

    The greedy placement is computed one run of equal work ``w`` at a
    time.  A min-heap of (load, node) that pops a node and pushes it back
    ``w`` heavier pops, over ``m`` steps, exactly the ``m`` smallest pairs
    ``(L_n + k*w, n)``, ``k >= 0``, where ``L_n`` is node ``n``'s load at
    the start of the run.  All of them have
    ``k < (max L - min L) // w + ceil(m / num_nodes)``, so one stable sort
    of that table places the whole run.
    """
    if num_nodes <= 0:
        raise PartitionError(f"num_nodes must be positive, got {num_nodes}")
    num_post_edges = len(graph.edge_users)
    work = np.concatenate(
        (graph.edge_work, np.ones(graph.num_links, dtype=np.int64))
    )
    order = np.argsort(-work, kind="stable")
    sorted_work = work[order]
    owner = np.empty(len(order), dtype=np.int64)
    loads = np.zeros(num_nodes, dtype=np.int64)
    runs = np.append(np.flatnonzero(np.diff(sorted_work, prepend=0)), len(order))
    for lo, hi in zip(runs[:-1].tolist(), runs[1:].tolist()):
        w, m = int(sorted_work[lo]), hi - lo
        depth = int(loads.max() - loads.min()) // w - (-m // num_nodes)
        heap = loads[:, None] + w * np.arange(depth)
        owner[lo:hi] = np.argsort(heap.ravel(), kind="stable")[:m] // depth
        loads += w * np.bincount(owner[lo:hi], minlength=num_nodes)

    # Group the placed edges by node, keeping placement order within each.
    by_node = np.argsort(owner, kind="stable")
    items, nodes = order[by_node], owner[by_node]
    is_post_edge = items < num_post_edges
    edges = items[is_post_edge]
    link_ids = items[~is_post_edge] - num_post_edges
    # Expand each edge into its slice of graph.post_ids (a CSR gather).
    lengths = work[edges]
    ends = np.cumsum(lengths)
    gather = np.repeat(graph.post_offsets[edges] - (ends - lengths), lengths)
    post_ids = graph.post_ids[gather + np.arange(len(gather))]
    link_counts = np.bincount(nodes[~is_post_edge], minlength=num_nodes)
    post_counts = loads - link_counts
    shards = [
        Shard(node_id=node, post_ids=posts, link_ids=links)
        for node, (posts, links) in enumerate(
            zip(
                np.split(post_ids, np.cumsum(post_counts)[:-1]),
                np.split(link_ids, np.cumsum(link_counts)[:-1]),
            )
        )
    ]
    return shards, PartitionStats(work_per_node=tuple(loads.tolist()))
