"""Fleet loop per-event cost: does it stay flat as the fleet grows?

The discrete-event fleet loop pops one timestamped event at a time off
a global heap and touches only the replicas that event names; router
views, load vectors, and cost prices are cached and invalidated per
replica, and the hot paths (batch pricing, ordering keys, router
scoring) are vectorized with numpy.  Its cost per event should
therefore not depend on the fleet size.  (A loop that rescans every
replica per event -- the test suite's lockstep reference -- measured
5.2x more per event on 512 replicas than on 64.)

A rebalance check that posts nothing is no event: the fleet pump runs
each arrival's and wave close's skew check inline, against a load
bound that only a check able to act scans past.  Only a check after a
migration or drain is a ``REBALANCE`` event.  So, against a loop that
posted every check, ``events`` roughly halves, ``events/s`` falls and
``us/event`` rises, while the wall time (``event_s``) drops: each
event left carries the same work plus that of the checks it absorbed.

Both scenarios replay a Poisson trace of thousands of one-shot tenants,
one on 64 replicas and one on 512, in one process.  The gates: every
scenario sustains at least ``EVENTS_PER_SEC_FLOOR`` processed events
per wall second, and the largest fleet's wall time per event is at most
``US_PER_EVENT_RATIO_CEILING`` x the smallest fleet's -- a ratio of two
timings from the same process, so machine speed cancels out.
``check`` runs on every sweep and on the committed
``results/fleet_kernel.json`` (``scripts/check_bench_results.py``).

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_fleet_kernel.py --seed 13

Pass ``--profile`` to additionally print the top-20 cumulative-time
functions of a cProfile capture of each run.
"""

import argparse
import cProfile
import pstats
import time

from benchmarks.common import (
    at_both_precisions,
    render_results,
    require,
    write_results,
)
from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.models import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CostAwareRouting,
    CostEstimator,
    OrchestratorConfig,
    ReplicaSet,
    ReplicaSetConfig,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)

NUM_STAGES = 2
CAPACITY = 8192
SLOTS = 4
DEFAULT_SEED = 7
#: Distinct sample-length values across the whole tenant population.
#: Jobs sharing a length share a ``TenantProfile``, so the cost model's
#: per-profile memos stay warm and the bench times the *fleet loop*,
#: not cold pricing.
NUM_PROFILES = 16
#: Offered load: high enough that replicas stay backlogged, so every
#: event finds work on a large share of the fleet.
RATE = 400.0
#: Seconds-skew rebalance trigger -- keeps a rebalance check after every
#: arrival and wave close (a loop without load caching would recompute
#: every replica's load here; the balanced trace rarely trips an actual
#: move -- migration/drain correctness is the equivalence suite's job).
MIGRATION_TIME_THRESHOLD = 30.0
#: (name, number of one-batch tenant jobs, fleet size).
SCENARIOS = (
    ("fleet-64", 2000, 64),
    ("fleet-512", 3000, 512),
)
#: Maximum wall time per event on the largest fleet, as a multiple of
#: the smallest fleet's (both measured in one process).
US_PER_EVENT_RATIO_CEILING = 2.0
#: Minimum processed events per wall second on every scenario.
EVENTS_PER_SEC_FLOOR = 5000.0

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                        use_milp=False)


def make_jobs(num_jobs, seed):
    """One-global-batch tenants drawn from a small pool of lengths."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pool = rng.integers(64, 512, size=NUM_PROFILES)
    return [
        AdapterJob(
            a,
            FinetuneDataset(a, [Sample(a, 0, int(pool[a % NUM_PROFILES]))]),
            1,
        )
        for a in range(num_jobs)
    ]


def serve(num_jobs, num_replicas, seed, profile=False):
    """Run the fleet over the scenario trace; return (result, seconds)."""
    estimator = CostEstimator.for_scheduler(COST, SCHED)
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SCHED,
            window_batches=1,
            admission=SlotAdmission(SLOTS),
            estimator=estimator,
        ),
        routing=CostAwareRouting(estimator),
        migration_time_threshold=MIGRATION_TIME_THRESHOLD,
    )
    executors = [
        StreamingSimExecutor(COST, NUM_STAGES) for _ in range(num_replicas)
    ]
    workload = poisson_workload(make_jobs(num_jobs, seed + 10), rate=RATE,
                                rng=seed)
    replica_set = ReplicaSet(executors, config)
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    result = replica_set.run(workload)
    elapsed = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
        print(f"\n-- cProfile top 20 ({num_jobs} jobs, "
              f"{num_replicas} replicas) --")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return result, elapsed


def sweep(seed=DEFAULT_SEED, profile=False):
    results = {}
    for name, num_jobs, num_replicas in SCENARIOS:
        result, event_s = serve(num_jobs, num_replicas, seed, profile=profile)
        assert result.violations == 0
        assert all(r.finish_time is not None for r in result.records.values())
        events = sum(result.events_processed.values())
        results[name] = {
            "jobs": num_jobs,
            "replicas": num_replicas,
            "event_s": event_s,
            "events": events,
            "events/s": events / event_s,
            "us/event": event_s / events * 1e6,
        }
    return results


COLUMNS = (
    ("scenario", 11, None), ("jobs", 6, None), ("replicas", 9, None),
    ("event_s", 8, ".2f"), ("events", 8, None), ("events/s", 9, ".0f"),
    ("us/event", 8, ".1f"),
)


def report(rows, seed):
    title = (
        f"Fleet loop per-event cost (seed {seed}, Poisson rate {RATE}, "
        f"{SLOTS} slots/replica, {NUM_STAGES}-stage pipelines, LLaMa-8B)"
    )
    write_results("fleet_kernel", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    # Every scenario must sustain the event-throughput floor.
    claims = [
        (row["events/s"] >= EVENTS_PER_SEC_FLOOR,
         f"{name} fell below the event-throughput floor "
         f"({row['events/s']:.0f} vs {EVENTS_PER_SEC_FLOOR:.0f} events/s)")
        for name, row in rows.items()
    ]
    # Per-event cost must stay flat from the smallest to the largest
    # fleet -- a ratio of two timings from one process.
    by_size = sorted(rows.values(), key=lambda row: row["replicas"])
    ratio = by_size[-1]["us/event"] / by_size[0]["us/event"]
    claims.append(
        (ratio <= US_PER_EVENT_RATIO_CEILING,
         f"us/event grows {ratio:.2f}x from the smallest to the largest "
         f"fleet, above the {US_PER_EVENT_RATIO_CEILING}x gate")
    )
    return [message for holds, message in claims if not holds]


def test_fleet_kernel(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(rows, DEFAULT_SEED)
    require(check(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload + arrival seed")
    parser.add_argument("--profile", action="store_true",
                        help="print cProfile top-20 for each run")
    args = parser.parse_args()
    rows = sweep(args.seed, profile=args.profile)
    report(rows, args.seed)
    require(check(rows))


if __name__ == "__main__":
    main()
