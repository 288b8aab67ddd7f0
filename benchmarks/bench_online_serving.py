"""Online multi-tenant serving vs. the offline oracle.

Beyond the paper's offline evaluation: jobs arrive over time (Poisson)
and the orchestrator schedules them incrementally, window by window, with
admission control.  The oracle knows all jobs at time 0 and schedules the
whole horizon in one wave -- the best case incremental scheduling can
approach once every tenant is present.  We report makespan, mean JCT,
utilization, and the no-op overhead of splicing, for two window sizes.

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_online_serving.py --seed 13
"""

import argparse

from benchmarks.common import (
    at_both_precisions,
    render_results,
    require,
    unfinished,
    write_results,
)
from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig, find_violations
from repro.serve import (
    OnlineOrchestrator,
    OrchestratorConfig,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)

NUM_JOBS = 8
NUM_STAGES = 4
CAPACITY = 8192
SLOTS = 4
DEFAULT_SEED = 7
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


def make_jobs(seed):
    return [
        AdapterJob(a, synthetic_dataset(a, DATASETS[a % 4], 24, seed=seed + 10),
                   8)
        for a in range(NUM_JOBS)
    ]


def serve(workload, window_batches, slots=SLOTS):
    config = OrchestratorConfig(
        scheduler=SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                                  use_milp=False),
        window_batches=window_batches,
        admission=SlotAdmission(slots) if slots else None,
    )
    cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
    orchestrator = OnlineOrchestrator(
        StreamingSimExecutor(cost, NUM_STAGES), config
    )
    result = orchestrator.run(workload)
    assert result.violations == 0
    assert find_violations(orchestrator.stream, NUM_STAGES) == []
    return row(result)


def sweep(seed=DEFAULT_SEED):
    jobs = make_jobs(seed)
    # Arrival rate chosen so several tenants overlap but the system is
    # not permanently saturated (the interesting online regime).
    online_workload = poisson_workload(jobs, rate=1.5, rng=seed)
    oracle_workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
    return {
        # The oracle is unconstrained: full information, no slot limit.
        "oracle-offline": serve(oracle_workload, window_batches=None,
                                slots=None),
        "online-w2": serve(online_workload, window_batches=2),
        "online-w1": serve(online_workload, window_batches=1),
    }


COLUMNS = (
    ("scenario", 15, None), ("makespan", 10, ".2f"), ("meanJCT", 10, ".2f"),
    ("meanQdelay", 10, ".2f"), ("util", 8, ".1%"), ("noops", 8, None),
    ("replans", 8, None),
)


def row(result):
    return {
        "makespan": result.makespan,
        "meanJCT": result.mean_completion_time(),
        "meanQdelay": result.mean_queueing_delay(),
        "util": result.utilization,
        "noops": result.noop_microbatches,
        "replans": result.replans,
        "mbs": result.total_microbatches,
        "unfinished": unfinished(result),
        "total_tokens": result.total_tokens,
    }


def report(rows, seed):
    title = (
        f"Online serving vs oracle ({NUM_JOBS} jobs, seed {seed}, "
        f"{SLOTS} slots, {NUM_STAGES}-stage pipeline, LLaMa-8B)"
    )
    write_results("online_serving", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    oracle, online = rows["oracle-offline"], rows["online-w2"]
    claims = []
    # Every scenario finishes every job.
    for name, row in rows.items():
        claims += [
            (row["unfinished"] == 0,
             f"{name} left {row['unfinished']} job(s) unfinished"),
            (row["total_tokens"] == oracle["total_tokens"],
             f"{name} served different work than the oracle"),
        ]
    claims += [
        # The oracle plans once; online replans many times.
        (oracle["replans"] == 1,
         f"the oracle replanned ({oracle['replans']} plans)"),
        (online["replans"] > oracle["replans"],
         "online stopped replanning incrementally "
         f"({online['replans']} vs oracle {oracle['replans']})"),
        # Online service time (excluding queueing for arrival) cannot
        # beat the oracle's full-information makespan; 5% slack for
        # clock alignment.
        (online["makespan"] >= 0.95 * oracle["makespan"],
         "online makespan dropped below the oracle lower bound "
         f"({online['makespan']} vs {oracle['makespan']})"),
        # Incremental scheduling pays a bounded bubble overhead: spliced
        # junction no-ops exist but do not dominate the stream.
        (online["noops"] < online["mbs"],
         f"no-ops dominate the online stream ({online['noops']} of "
         f"{online['mbs']} microbatches)"),
    ]
    return [message for holds, message in claims if not holds]


def test_online_serving(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(rows, DEFAULT_SEED)
    require(check(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload + arrival seed")
    args = parser.parse_args()
    rows = sweep(args.seed)
    report(rows, args.seed)
    require(check(rows))


if __name__ == "__main__":
    main()
