"""Distributed training: the GraphLab-style parallel sampler.

Demonstrates the §4.3 parallel inference substitute:

1. build the Figure-4 computation graph (user/time vertices, post and link
   edges, held as index arrays) and partition it across simulated cluster
   nodes, each shard an array of post ids and one of link ids;
2. train with 1, 2, 4 and 8 nodes and report the simulated cluster time
   (Figure 13b's scaling curve);
3. verify the parallel fit matches the serial fit's quality.

    python examples/distributed_training.py
"""

from __future__ import annotations

from repro import COLDModel, ParallelCOLDSampler
from repro.datasets import benchmark_world
from repro.eval import cold_perplexity
from repro.parallel import ComputationGraph, partition_graph
from repro.viz import bar_chart


def main() -> None:
    corpus, _truth = benchmark_world(seed=3)
    print(f"corpus: {corpus}")

    # The Fig-4 graph abstraction and its partitioning.
    graph = ComputationGraph.from_corpus(corpus)
    shards, stats = partition_graph(graph, 4)
    print(
        f"computation graph: {graph.num_vertices} vertices, "
        f"{len(graph.edge_users)} user-time + {graph.num_links} user-user "
        f"= {graph.num_edges} edges, total work {graph.total_work}"
    )
    print(
        f"4-node partition: work per node {stats.work_per_node} "
        f"(posts, links: {[(len(s.post_ids), len(s.link_ids)) for s in shards]}), "
        f"imbalance {stats.imbalance:.3f}"
    )

    # Node sweep (Fig 13b).
    iterations = 15
    times: dict[str, float] = {}
    estimates_by_nodes = {}
    for nodes in (1, 2, 4, 8):
        sampler = ParallelCOLDSampler(
            num_communities=4, num_topics=8, num_nodes=nodes,
            prior="scaled", seed=0,
        ).fit(corpus, num_iterations=iterations)
        times[f"{nodes} nodes"] = sampler.training_seconds()
        estimates_by_nodes[nodes] = sampler.estimates_
        print(
            f"  {nodes} nodes: cluster time {sampler.training_seconds():.2f}s, "
            f"speedup {sampler.speedup():.2f}x"
        )
    print("\nsimulated cluster time (Fig 13b):")
    print(bar_chart(list(times), list(times.values())))

    # True multi-core execution: the same 4-node fit on the shared-memory
    # process pool draws the identical chain (executors never change draws).
    multicore = ParallelCOLDSampler(
        num_communities=4, num_topics=8, num_nodes=4,
        executor="processes", prior="scaled", seed=0,
    ).fit(corpus, num_iterations=iterations)
    import numpy as np

    identical = np.allclose(
        multicore.estimates_.pi, estimates_by_nodes[4].pi
    )
    print(
        f"\nprocesses executor: cluster time "
        f"{multicore.training_seconds():.2f}s, speedup "
        f"{multicore.speedup():.2f}x, identical draws to simulated: "
        f"{identical}"
    )

    # Quality check: parallel vs serial perplexity on the training corpus.
    serial = COLDModel(num_communities=4, num_topics=8, prior="scaled", seed=0).fit(
        corpus, num_iterations=iterations
    )
    serial_perplexity = cold_perplexity(serial.estimates_, corpus)
    parallel_perplexity = cold_perplexity(estimates_by_nodes[8], corpus)
    print(
        f"\ntraining perplexity: serial {serial_perplexity:.1f} vs "
        f"8-node parallel {parallel_perplexity:.1f} "
        f"({abs(serial_perplexity - parallel_perplexity) / serial_perplexity:.1%} apart)"
    )


if __name__ == "__main__":
    main()
