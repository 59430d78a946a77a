"""Unit tests for repro.parallel (graph, partition, engine, sampler)."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.corpus import SocialCorpus
from repro.parallel.engine import (
    EngineError,
    NodeTiming,
    SimulatedCluster,
    SuperstepReport,
)
from repro.parallel.graph import ComputationGraph, GraphError
from repro.parallel.partition import PartitionError, partition_graph
from repro.parallel.sampler import ParallelCOLDSampler


def reference_lpt(graph, num_nodes):
    """Greedy LPT through a heapq min-heap, one edge at a time: edges by
    decreasing work, user-time edges before links, then by (user, time)
    or link id; each onto the lightest (load, node).  Returns each node's
    post ids and link ids in placement order, and its work."""
    items = [
        ((-work, 0, user, time), work, edge)
        for edge, (work, user, time) in enumerate(
            zip(
                graph.edge_work.tolist(),
                graph.edge_users.tolist(),
                graph.edge_times.tolist(),
            )
        )
    ]
    items += [((-1, 1, link, 0), 1, link) for link in range(graph.num_links)]
    posts = [[] for _ in range(num_nodes)]
    links = [[] for _ in range(num_nodes)]
    heap = [(0, node) for node in range(num_nodes)]
    for key, work, index in sorted(items):
        load, node = heapq.heappop(heap)
        if key[1] == 0:
            lo, hi = graph.post_offsets[index], graph.post_offsets[index + 1]
            posts[node].extend(graph.post_ids[lo:hi].tolist())
        else:
            links[node].append(index)
        heapq.heappush(heap, (load + work, node))
    loads = [load for load, _node in sorted(heap, key=lambda entry: entry[1])]
    return posts, links, loads


def assert_matches_reference(graph, num_nodes):
    shards, stats = partition_graph(graph, num_nodes)
    posts, links, loads = reference_lpt(graph, num_nodes)
    assert [s.node_id for s in shards] == list(range(num_nodes))
    for shard in shards:
        assert shard.post_ids.dtype == shard.link_ids.dtype == np.int64
        assert shard.post_ids.tolist() == posts[shard.node_id]
        assert shard.link_ids.tolist() == links[shard.node_id]
    assert list(stats.work_per_node) == loads
    assert [s.work for s in shards] == loads


def graph_of_work(edge_work, num_links, seed):
    """A graph whose user-time edges carry ``edge_work`` posts each (edge
    ``e`` joins user ``e`` and slice 0), over shuffled post ids."""
    offsets = np.cumsum([0, *edge_work], dtype=np.int64)
    return ComputationGraph(
        num_users=len(edge_work),
        num_time_slices=1,
        edge_users=np.arange(len(edge_work), dtype=np.int64),
        edge_times=np.zeros(len(edge_work), dtype=np.int64),
        post_offsets=offsets,
        post_ids=np.random.default_rng(seed).permutation(int(offsets[-1])),
        num_links=num_links,
    )


class TestComputationGraph:
    def test_from_corpus_covers_everything(self, tiny_corpus):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        graph.check_covers(tiny_corpus)

    def test_user_time_edges_group_posts(self, hand_corpus):
        graph = ComputationGraph.from_corpus(hand_corpus)
        keys = list(zip(graph.edge_users.tolist(), graph.edge_times.tolist()))
        assert keys == sorted(set(keys))  # one edge per pair, (user, time) order
        for edge, (user, time) in enumerate(keys):
            lo, hi = graph.post_offsets[edge], graph.post_offsets[edge + 1]
            pids = graph.post_ids[lo:hi].tolist()
            assert pids and pids == sorted(pids)
            for pid in pids:
                post = hand_corpus.posts[pid]
                assert post.author == user
                assert post.timestamp == time

    def test_vertex_and_edge_counts(self, hand_corpus):
        graph = ComputationGraph.from_corpus(hand_corpus)
        assert graph.num_vertices == 5 + 4
        # every hand-corpus post has a distinct (author, time) pair
        assert len(graph.edge_users) == 6
        assert graph.num_links == 4
        assert graph.num_edges == 6 + 4

    def test_total_work(self, hand_corpus):
        graph = ComputationGraph.from_corpus(hand_corpus)
        assert graph.total_work == hand_corpus.num_posts + hand_corpus.num_links
        assert graph.edge_work.tolist() == [1] * 6

    def test_check_covers_detects_missing_posts(self, hand_corpus):
        graph = ComputationGraph.from_corpus(hand_corpus)
        graph.edge_users = graph.edge_users[:-1]
        graph.edge_times = graph.edge_times[:-1]
        graph.post_offsets = graph.post_offsets[:-1]
        with pytest.raises(GraphError, match="posts"):
            graph.check_covers(hand_corpus)

    def test_check_covers_detects_offsets_out_of_step_with_edges(
        self, hand_corpus
    ):
        graph = ComputationGraph.from_corpus(hand_corpus)
        graph.post_offsets = np.delete(graph.post_offsets, 1)  # merge two edges
        with pytest.raises(GraphError, match="posts"):
            graph.check_covers(hand_corpus)

    def test_check_covers_detects_missing_links(self, hand_corpus):
        graph = ComputationGraph.from_corpus(hand_corpus)
        graph.num_links -= 1
        with pytest.raises(GraphError, match="links"):
            graph.check_covers(hand_corpus)

    def test_empty_corpus_has_no_edges(self):
        empty = SocialCorpus(num_users=2, num_time_slices=3, vocab_size=1, posts=[])
        graph = ComputationGraph.from_corpus(empty)
        assert graph.num_edges == 0 and graph.total_work == 0
        graph.check_covers(empty)


class TestPartition:
    def test_shards_partition_work_exactly(self, tiny_corpus):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        shards, stats = partition_graph(graph, 4)
        assert len(shards) == 4
        all_posts = np.concatenate([s.post_ids for s in shards])
        assert sorted(all_posts.tolist()) == list(range(tiny_corpus.num_posts))
        all_links = np.concatenate([s.link_ids for s in shards])
        assert sorted(all_links.tolist()) == list(range(tiny_corpus.num_links))
        assert stats.total_work == graph.total_work

    def test_balanced_load(self, tiny_corpus):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        _shards, stats = partition_graph(graph, 4)
        assert stats.imbalance < 1.2

    def test_single_node_gets_everything(self, tiny_corpus):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        shards, stats = partition_graph(graph, 1)
        assert shards[0].work == graph.total_work
        assert stats.imbalance == pytest.approx(1.0)

    def test_more_nodes_than_edges(self, hand_corpus):
        graph = ComputationGraph.from_corpus(hand_corpus)
        shards, _stats = partition_graph(graph, 50)
        total = sum(s.work for s in shards)
        assert total == graph.total_work

    def test_deterministic(self, tiny_corpus):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        a, _ = partition_graph(graph, 3)
        b, _ = partition_graph(graph, 3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.post_ids, sb.post_ids)
            np.testing.assert_array_equal(sa.link_ids, sb.link_ids)

    def test_rejects_nonpositive_nodes(self, tiny_corpus):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        with pytest.raises(PartitionError):
            partition_graph(graph, 0)


class TestPartitionMatchesHeapLPT:
    """``partition_graph`` places every edge where the heapq LPT does."""

    @given(
        st.lists(st.sampled_from([1, 1, 1, 2, 2, 3, 5, 8, 40]), max_size=60),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_work_vectors(self, edge_work, num_links, num_nodes, seed):
        assert_matches_reference(graph_of_work(edge_work, num_links, seed), num_nodes)

    def test_more_nodes_than_edges(self):
        assert_matches_reference(graph_of_work([3, 1, 3], 2, seed=0), 9)

    def test_empty_post_set(self):
        assert_matches_reference(graph_of_work([], 5, seed=0), 3)
        assert_matches_reference(graph_of_work([], 0, seed=0), 3)

    @pytest.mark.parametrize("num_nodes", [1, 2, 5])
    def test_without_network(self, tiny_corpus, num_nodes):
        graph = ComputationGraph.from_corpus(tiny_corpus)
        graph.num_links = 0  # as ParallelCOLDSampler does for include_network=False
        shards, _stats = partition_graph(graph, num_nodes)
        assert all(len(s.link_ids) == 0 for s in shards)
        assert_matches_reference(graph, num_nodes)

    def test_medium_world(self):
        from repro.perf import MEDIUM

        graph = ComputationGraph.from_corpus(MEDIUM.build_corpus())
        for num_nodes in range(1, 9):
            assert_matches_reference(graph, num_nodes)


class TestSimulatedCluster:
    def test_superstep_runs_all_tasks(self):
        cluster = SimulatedCluster(num_nodes=3)
        hits = []
        report = cluster.superstep([lambda i=i: hits.append(i) for i in range(3)])
        assert sorted(hits) == [0, 1, 2]
        assert len(report.node_timings) == 3

    def test_cluster_time_is_max_plus_merge(self):
        report = SuperstepReport(
            node_timings=(
                NodeTiming(0, 0.2),
                NodeTiming(1, 0.5),
                NodeTiming(2, 0.1),
            ),
            merge_seconds=0.05,
        )
        assert report.cluster_seconds == pytest.approx(0.55)
        assert report.serial_seconds == pytest.approx(0.85)

    def test_merge_callback_runs_after_tasks(self):
        order = []
        cluster = SimulatedCluster(num_nodes=2)
        cluster.superstep(
            [lambda: order.append("a"), lambda: order.append("b")],
            merge=lambda: order.append("merge"),
        )
        assert order[-1] == "merge"

    def test_task_count_must_match_nodes(self):
        cluster = SimulatedCluster(num_nodes=2)
        with pytest.raises(EngineError):
            cluster.superstep([lambda: None])

    def test_threads_executor_runs_tasks(self):
        cluster = SimulatedCluster(num_nodes=2, executor="threads")
        hits = []
        cluster.superstep([lambda: hits.append(1), lambda: hits.append(2)])
        assert sorted(hits) == [1, 2]

    def test_rejects_unknown_executor(self):
        with pytest.raises(EngineError):
            SimulatedCluster(num_nodes=2, executor="mpi")

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(EngineError):
            SimulatedCluster(num_nodes=0)


class TestParallelSampler:
    def test_fit_produces_valid_estimates(self, tiny_corpus):
        sampler = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=3, prior="scaled", seed=0)
        sampler.fit(tiny_corpus, num_iterations=8)
        assert sampler.fitted
        assert sampler.estimates_ is not None
        sampler.estimates_.validate()

    def test_merged_counters_are_exact(self, tiny_corpus):
        """After every superstep merge, the global counters must equal a
        from-scratch recount of the shared assignments."""
        sampler = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=4, prior="scaled", seed=1)
        sampler.fit(tiny_corpus, num_iterations=5)
        assert sampler.state_ is not None
        sampler.state_.check_invariants()

    def test_single_node_keeps_invariants(self, tiny_corpus):
        sampler = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=1, prior="scaled", seed=0)
        sampler.fit(tiny_corpus, num_iterations=4)
        sampler.state_.check_invariants()

    def test_timing_report_populated(self, tiny_corpus):
        sampler = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=2, prior="scaled", seed=0)
        sampler.fit(tiny_corpus, num_iterations=6)
        assert sampler.report_ is not None
        assert len(sampler.report_.supersteps) == 6
        assert sampler.training_seconds() > 0
        assert sampler.speedup() >= 1.0

    def test_speedup_grows_with_nodes(self, tiny_corpus):
        slow = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=1, prior="scaled", seed=0)
        slow.fit(tiny_corpus, num_iterations=4)
        fast = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=4, prior="scaled", seed=0)
        fast.fit(tiny_corpus, num_iterations=4)
        assert fast.speedup() > slow.speedup()

    def test_partition_stats_exposed(self, tiny_corpus):
        sampler = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=3, prior="scaled", seed=0)
        sampler.fit(tiny_corpus, num_iterations=3)
        assert sampler.partition_stats_ is not None
        assert sampler.partition_stats_.imbalance < 1.5

    def test_no_network_mode(self, tiny_corpus):
        sampler = ParallelCOLDSampler(
            num_communities=3, num_topics=4, num_nodes=2, include_network=False, prior="scaled", seed=0
        )
        sampler.fit(tiny_corpus, num_iterations=4)
        assert sampler.state_ is not None
        assert sampler.state_.num_links == 0

    def test_parallel_quality_close_to_serial(self, tiny_corpus):
        """Approximate parallel Gibbs must reach likelihoods comparable to
        the serial sampler (the AD-LDA claim the paper relies on)."""
        from repro.core.likelihood import joint_log_likelihood
        from repro.core.model import COLDModel

        serial = COLDModel(num_communities=3, num_topics=4, prior="scaled", seed=0).fit(
            tiny_corpus, num_iterations=25
        )
        parallel = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=4, prior="scaled", seed=0)
        parallel.fit(tiny_corpus, num_iterations=25)
        ll_serial = joint_log_likelihood(serial.state_, serial.hyperparameters)
        ll_parallel = joint_log_likelihood(
            parallel.state_, parallel.hyperparameters
        )
        # Within 5% of each other in log-likelihood (staleness noise).
        assert abs(ll_serial - ll_parallel) / abs(ll_serial) < 0.05

    def test_errors(self, tiny_corpus):
        with pytest.raises(EngineError):
            ParallelCOLDSampler(num_communities=0, num_topics=4)
        with pytest.raises(EngineError):
            ParallelCOLDSampler(num_communities=3, num_topics=4, prior="bogus")
        sampler = ParallelCOLDSampler(num_communities=3, num_topics=4, prior="scaled")
        with pytest.raises(EngineError):
            sampler.fit(tiny_corpus, num_iterations=0)
        with pytest.raises(EngineError):
            sampler.training_seconds()

    def test_deterministic_given_seed(self, tiny_corpus):
        a = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=2, prior="scaled", seed=5)
        a.fit(tiny_corpus, num_iterations=5)
        b = ParallelCOLDSampler(num_communities=3, num_topics=4, num_nodes=2, prior="scaled", seed=5)
        b.fit(tiny_corpus, num_iterations=5)
        np.testing.assert_allclose(a.estimates_.pi, b.estimates_.pi)
