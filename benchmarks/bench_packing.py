"""Length-aware knapsack packing vs arrival-order head-tail grouping.

The gate behind the ``packing="knapsack"`` scheme (``docs/serving.md``
section "Length-aware packing"): on a heavy-tailed multi-tenant trace,
assembling waves from token-mass knapsack groups must cut padding waste
and the bubble rate at equal-or-better mean JCT -- and stay bit-identical
across a double run.

The trace is the shape that makes head-tail contrast pairing overflow:
eight tenants alternating long wikisum jobs (small global batches of
~1.5k-token samples) with short xsum jobs (large global batches of
~0.4k-token samples).  Head-tail groups pair long with short, so every
(group, step) carries more padded tokens than one microbatch holds: the
step splits across bins, each split re-rounds its adapter segments to
the padding granule (waste) and puts the same adapters in adjacent
microbatches (bubble-lemma no-ops).  The knapsack assembler instead
weighs each job by its padded per-step token mass and first-fit-
decreasing-packs jobs into groups that fill one microbatch, so every
group-step is a single bin: one padding rounding per adapter per step,
and enough groups to interleave cleanly across the pipeline depth.

Three scenarios, one table row each:

* ``arrival``        -- the head-tail baseline.
* ``knapsack``       -- knapsack waves + sticky groups + estimator-priced
                        packing-affinity routing.
* ``knapsack-rerun`` -- the same config run again; every value must equal
                        the ``knapsack`` row (determinism).  Loop
                        independence -- the same schedule on the lockstep
                        reference loop -- is the knapsack equivalence
                        suite's job
                        (``tests/integration/test_packing_losslessness.py``).

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_packing.py --seed 13
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
    CostEstimator,
    OrchestratorConfig,
    PackingAffinityRouting,
    ReplicaSet,
    ReplicaSetConfig,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
)

NUM_STAGES = 2
CAPACITY = 8192
DEFAULT_SEED = 7
COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES, use_milp=False)

# The gate: knapsack must cut padding waste by at least this fraction of
# the arrival baseline's waste, without paying for it in mean JCT.
WASTE_REDUCTION_FLOOR = 0.15
JCT_PENALTY_CEILING = 1.0


def heavy_tailed_trace(seed):
    """Eight tenants alternating long-sample and short-sample jobs.

    Per-step token masses land near half a microbatch (long ~4.5k,
    short ~3k of the 8192 capacity), so knapsack pairs one of each into
    a ~92%-full single-bin group while head-tail's contrast pairs (two
    long + two short once all eight are live) overflow every step.
    """
    jobs = []
    for adapter in range(8):
        if adapter % 2 == 0:
            dataset = synthetic_dataset(adapter, "wikisum", 12, seed=seed)
            gbs = 3
        else:
            dataset = synthetic_dataset(adapter, "xsum", 32, seed=seed)
            gbs = 8
        jobs.append(
            ServeJob(
                job=AdapterJob(adapter, dataset, gbs),
                arrival_time=0.05 * adapter,
            )
        )
    return jobs


def serve(seed, packing):
    estimator = CostEstimator.for_scheduler(COST, SCHED)
    routing = (
        PackingAffinityRouting(estimator=estimator)
        if packing == "knapsack"
        else PackingAffinityRouting()
    )
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SCHED,
            window_batches=2,
            admission=SlotAdmission(8),
            estimator=estimator,
            packing=packing,
        ),
        routing=routing,
    )
    executors = [StreamingSimExecutor(COST, NUM_STAGES)]
    result = ReplicaSet(executors, config).run(heavy_tailed_trace(seed))
    assert result.violations == 0
    return row(result)


def sweep(seed=DEFAULT_SEED):
    return {
        "arrival": serve(seed, "arrival"),
        "knapsack": serve(seed, "knapsack"),
        "knapsack-rerun": serve(seed, "knapsack"),
    }


COLUMNS = (
    ("scenario", 19, None), ("waste", 8, ".4f"), ("bubble", 8, ".4f"),
    ("packeff", 9, ".4f"), ("meanJCT", 9, ".4f"), ("makespan", 9, ".4f"),
    ("mbs", 5, None), ("noops", 7, None), ("tokens", 8, None),
)


def row(result):
    return {
        "waste": result.padding_waste(),
        "bubble": result.bubble_rate(),
        "packeff": result.pack_efficiency(),
        "meanJCT": result.mean_completion_time(),
        "makespan": result.makespan,
        "mbs": result.total_microbatches,
        "noops": result.noop_microbatches,
        "tokens": result.total_tokens,
        "padded": result.total_padded_tokens,
        "unfinished": unfinished(result),
    }


def report(rows, seed):
    title = (
        "Length-aware knapsack packing vs arrival-order head-tail grouping "
        f"(seed {seed}, {NUM_STAGES}-stage pipeline, LLaMa-8B, capacity "
        f"{CAPACITY}, waste-reduction floor {WASTE_REDUCTION_FLOOR})"
    )
    write_results("packing", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    arrival, knapsack = rows["arrival"], rows["knapsack"]
    reduction = 1.0 - knapsack["waste"] / arrival["waste"]
    claims = [
        # Packing claim: knapsack waves cut padding waste by at least
        # the floor and never bubble more, at equal-or-better mean JCT.
        (reduction >= WASTE_REDUCTION_FLOOR,
         f"knapsack no longer cuts padding waste by the "
         f"{WASTE_REDUCTION_FLOOR} floor ({knapsack['waste']} vs "
         f"{arrival['waste']}, reduction {reduction:.2f})"),
        (knapsack["bubble"] <= arrival["bubble"],
         "knapsack regressed the bubble rate "
         f"({knapsack['bubble']} vs {arrival['bubble']})"),
        (knapsack["meanJCT"] <= JCT_PENALTY_CEILING * arrival["meanJCT"],
         f"knapsack mean JCT left the {JCT_PENALTY_CEILING}x band "
         f"({knapsack['meanJCT']} vs arrival {arrival['meanJCT']})"),
        # Same work served either way: packing shapes the stream, not
        # the jobs -- and everything the stream computed is accounted
        # for.
        (knapsack["tokens"] == arrival["tokens"],
         "knapsack served different work than arrival "
         f"({knapsack['tokens']} vs {arrival['tokens']} tokens)"),
        # Determinism claim: a second run reproduces the knapsack row.
        (rows["knapsack-rerun"] == knapsack,
         "the knapsack-rerun row diverged from the knapsack row -- the "
         "schedule is no longer deterministic across reruns"),
    ]
    for name in ("arrival", "knapsack"):
        row = rows[name]
        claims += [
            (row["unfinished"] == 0,
             f"{name} left {row['unfinished']} job(s) unfinished"),
            (row["padded"] >= row["tokens"] > 0,
             f"{name} computed fewer padded tokens ({row['padded']}) than "
             f"real ones ({row['tokens']})"),
        ]
    return [message for holds, message in claims if not holds]


def test_packing(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(rows, DEFAULT_SEED)
    require(check(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="dataset seed for the trace tenants")
    args = parser.parse_args()
    rows = sweep(args.seed)
    report(rows, args.seed)
    require(check(rows))


if __name__ == "__main__":
    main()
