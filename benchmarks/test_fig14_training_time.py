"""Figure 14: training time of all methods on the whole dataset.

The paper reports wall-clock training time for EUTB, PMTLM, MMSB, Pipeline,
serial COLD, and COLD distributed over 8 nodes ("COLD (8)").  The shapes:
COLD's serial cost is at the high end (it consumes text + network + time),
and the parallel implementation brings it down by a large factor, making it
"feasible in actual deployment".
"""

from __future__ import annotations

from repro.baselines.eutb import EUTBModel
from repro.baselines.mmsb import MMSBModel
from repro.baselines.pipeline import PipelineModel
from repro.baselines.pmtlm import PMTLMModel
from repro.core.model import COLDModel
from repro.eval.timing import Stopwatch, TimingTable
from repro.parallel.sampler import ParallelCOLDSampler
from benchmarks.conftest import BENCH_C, BENCH_K

TRAIN_ITERS = 15  # same sweep count for every method: a fair comparison


def _time_all(corpus) -> dict[str, float]:
    times: dict[str, float] = {}

    with Stopwatch() as sw:
        MMSBModel(BENCH_C, rho=0.1, num_restarts=1, seed=0).fit(
            corpus, num_iterations=TRAIN_ITERS
        )
    times["MMSB"] = sw.seconds

    with Stopwatch() as sw:
        PMTLMModel(BENCH_K, rho=0.5, seed=0).fit(corpus, num_iterations=TRAIN_ITERS)
    times["PMTLM"] = sw.seconds

    with Stopwatch() as sw:
        EUTBModel(BENCH_K, alpha=0.5, seed=0).fit(corpus, num_iterations=TRAIN_ITERS)
    times["EUTB"] = sw.seconds

    with Stopwatch() as sw:
        PipelineModel(BENCH_C, BENCH_K, seed=0).fit(
            corpus,
            network_iterations=TRAIN_ITERS,
            text_iterations=TRAIN_ITERS,
        )
    times["Pipeline"] = sw.seconds

    with Stopwatch() as sw:
        COLDModel(num_communities=BENCH_C, num_topics=BENCH_K, prior="scaled", seed=0).fit(
            corpus, num_iterations=TRAIN_ITERS
        )
    times["COLD"] = sw.seconds

    sampler = ParallelCOLDSampler(
        num_communities=BENCH_C, num_topics=BENCH_K, num_nodes=8,
        prior="scaled", seed=0,
    ).fit(corpus, num_iterations=TRAIN_ITERS)
    times["COLD (8)"] = sampler.training_seconds()
    return times


def test_fig14_training_time(benchmark, corpus):
    times = benchmark.pedantic(lambda: _time_all(corpus), rounds=1, iterations=1)
    table = TimingTable("Fig 14: training time (same #sweeps per method)")
    for name, seconds in sorted(times.items(), key=lambda kv: kv[1]):
        table.add(name, seconds)
    print()
    print(table.render())

    # Shape 1: the parallel implementation cuts serial COLD's time by a
    # large factor (the paper: hundreds of hours -> a few).
    assert times["COLD (8)"] < times["COLD"] / 3

    # Shape 2: serial COLD costs more than the single-feature baselines
    # (it jointly consumes text + network + time).
    assert times["COLD"] > times["MMSB"]

    # Shape 3: parallel COLD is competitive with the baselines despite
    # modelling strictly more ("feasible in actual deployment").
    assert times["COLD (8)"] < max(times["EUTB"], times["PMTLM"], times["Pipeline"])
