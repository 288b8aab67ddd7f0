"""Multi-replica serving: replica count vs JCT, utilization, throughput.

Beyond the paper's single-pipeline evaluation: the same Poisson tenant
stream is served by 1, 2, and 4 pipeline replicas behind a least-loaded
:class:`~repro.serve.router.TenantRouter`, plus a 2-replica
packing-affinity configuration with migration enabled.  At equal offered
load, adding replicas must raise job throughput (finished jobs per unit
virtual time) and cut mean JCT; per-replica utilization drops as the
fleet outruns the arrival process -- the classic capacity/latency trade
this bench quantifies.

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_multi_replica.py --seed 13
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
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    OrchestratorConfig,
    PackingAffinityRouting,
    ReplicaSet,
    ReplicaSetConfig,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)

NUM_JOBS = 8
NUM_STAGES = 4
CAPACITY = 8192
SLOTS = 4
# High enough that one pipeline is service-bound (backlogged), so adding
# replicas shows up as throughput, not just idle capacity.
RATE = 4.0
DEFAULT_SEED = 7
REPLICA_COUNTS = (1, 2, 4)
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


def make_jobs(seed):
    return [
        AdapterJob(a, synthetic_dataset(a, DATASETS[a % 4], 24, seed=seed),
                   8)
        for a in range(NUM_JOBS)
    ]


def serve(workload, num_replicas, routing=None, migration_threshold=None):
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SchedulerConfig(capacity=CAPACITY,
                                      num_stages=NUM_STAGES,
                                      use_milp=False),
            window_batches=2,
            admission=SlotAdmission(SLOTS),
        ),
        routing=routing,
        migration_threshold=migration_threshold,
    )
    cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
    executors = [
        StreamingSimExecutor(cost, NUM_STAGES) for _ in range(num_replicas)
    ]
    result = ReplicaSet(executors, config).run(workload)
    assert result.violations == 0
    return row(result)


def sweep(seed=DEFAULT_SEED):
    jobs = make_jobs(seed + 10)
    # Same offered load for every fleet size: identical jobs, identical
    # arrival process.
    results = {}
    for count in REPLICA_COUNTS:
        workload = poisson_workload(jobs, rate=RATE, rng=seed)
        results[f"least-loaded-x{count}"] = serve(workload, count)
    workload = poisson_workload(jobs, rate=RATE, rng=seed)
    results["affinity+migrate-x2"] = serve(
        workload, 2, routing=PackingAffinityRouting(),
        migration_threshold=4,
    )
    return results


COLUMNS = (
    ("scenario", 20, None), ("makespan", 10, ".2f"), ("meanJCT", 10, ".2f"),
    ("util", 8, ".1%"), ("jobs/t", 9, ".3f"), ("tokens/t", 9, ".0f"),
    ("migr", 7, None), ("rerte", 7, None),
)


def row(result):
    return {
        "makespan": result.makespan,
        "meanJCT": result.mean_completion_time(),
        "util": result.utilization(),
        "jobs/t": result.jobs_per_time(),
        "tokens/t": result.tokens_per_time(),
        "migr": result.migrations,
        "rerte": result.reroutes,
        "jobs": len(result.records),
        "unfinished": unfinished(result),
        "total_tokens": result.total_tokens,
    }


def report(rows, seed):
    title = (
        f"Replica count vs JCT/utilization ({NUM_JOBS} jobs, Poisson "
        f"rate {RATE}, seed {seed}, {SLOTS} slots/replica, "
        f"{NUM_STAGES}-stage pipelines, LLaMa-8B)"
    )
    write_results("multi_replica", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    single, double = rows["least-loaded-x1"], rows["least-loaded-x2"]
    claims = []
    # Every fleet size finishes every job; each job lives on one replica.
    for name, row in rows.items():
        claims += [
            (row["unfinished"] == 0 and row["jobs"] == NUM_JOBS,
             f"{name} finished {row['jobs'] - row['unfinished']} of "
             f"{NUM_JOBS} jobs"),
            (row["total_tokens"] == single["total_tokens"],
             f"{name} served different work than x1"),
        ]
    # The scale-out claim: at equal offered load, >=2 replicas sustain
    # strictly higher job throughput than one pipeline.
    claims += [
        (double["jobs/t"] > single["jobs/t"],
         "2 replicas no longer beat 1 on jobs/time "
         f"({double['jobs/t']} vs {single['jobs/t']})"),
        (double["makespan"] <= single["makespan"],
         "2 replicas regressed makespan vs 1 "
         f"({double['makespan']} vs {single['makespan']})"),
        (double["meanJCT"] <= single["meanJCT"],
         "2 replicas regressed mean JCT vs 1 "
         f"({double['meanJCT']} vs {single['meanJCT']})"),
    ]
    return [message for holds, message in claims if not holds]


def test_multi_replica(benchmark):
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
