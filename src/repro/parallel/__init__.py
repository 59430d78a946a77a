"""GraphLab substitute: vertex-centric GAS engine + parallel COLD sampler.

The Fig.-4 computation graph (:class:`ComputationGraph`) and its shards
(:class:`Shard`, from :func:`partition_graph`) are index arrays: a shard
is the post ids and link ids one node resamples, in sweep order.  See
DESIGN.md §2 for why a simulated synchronous cluster preserves the
paper's scalability claims (Figs. 13–14) at laptop scale.
"""

from .engine import (
    ClusterReport,
    EngineError,
    NodeTiming,
    SimulatedCluster,
    SuperstepReport,
)
from .graph import ComputationGraph, GraphError
from .partition import PartitionError, PartitionStats, Shard, partition_graph
from .sampler import ParallelCOLDSampler
from .shm import SharedArrayBlock, SharedMemoryError
from .worker import ProcessWorkerPool, WorkerCrashError

__all__ = [
    "ClusterReport",
    "ComputationGraph",
    "EngineError",
    "GraphError",
    "NodeTiming",
    "ParallelCOLDSampler",
    "PartitionError",
    "PartitionStats",
    "ProcessWorkerPool",
    "Shard",
    "SharedArrayBlock",
    "SharedMemoryError",
    "SimulatedCluster",
    "SuperstepReport",
    "WorkerCrashError",
    "partition_graph",
]
