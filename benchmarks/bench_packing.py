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
* ``knapsack-rerun`` -- the same config run again; every cell must equal
                        the ``knapsack`` row (determinism).  Loop
                        independence -- the same schedule on the lockstep
                        reference loop -- is the knapsack equivalence
                        suite's job
                        (``tests/integration/test_packing_losslessness.py``).

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_packing.py --seed 13
"""

import argparse

from benchmarks.common import fmt_row, write_table
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
# ``scripts/check_bench_results.py`` imports both constants so the CI
# check and the benchmark agree by construction.
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
    return result


def sweep(seed=DEFAULT_SEED):
    return {
        "arrival": serve(seed, "arrival"),
        "knapsack": serve(seed, "knapsack"),
        "knapsack-rerun": serve(seed, "knapsack"),
    }


def cells(result):
    """One row of metric cells; identical runs must produce equal cells."""
    return [
        f"{result.padding_waste():.4f}",
        f"{result.bubble_rate():.4f}",
        f"{result.pack_efficiency():.4f}",
        f"{result.mean_completion_time():.4f}",
        f"{result.makespan:.4f}",
        result.total_microbatches,
        result.noop_microbatches,
        result.total_tokens,
    ]


def report(results, seed):
    widths = [19, 8, 8, 9, 9, 9, 5, 7, 8]
    lines = [
        "Length-aware knapsack packing vs arrival-order head-tail grouping "
        f"(seed {seed}, {NUM_STAGES}-stage pipeline, LLaMa-8B, capacity "
        f"{CAPACITY}, waste-reduction floor {WASTE_REDUCTION_FLOOR})",
        fmt_row(
            ["scenario", "waste", "bubble", "packeff", "meanJCT",
             "makespan", "mbs", "noops", "tokens"],
            widths,
        ),
    ]
    for name, result in results.items():
        lines.append(fmt_row([name, *cells(result)], widths))
    write_table("packing", lines)


def check(results):
    arrival, knapsack = results["arrival"], results["knapsack"]
    # Packing claim: knapsack waves cut padding waste by at least the
    # floor and never bubble more, at equal-or-better mean JCT.
    reduction = 1.0 - knapsack.padding_waste() / arrival.padding_waste()
    assert reduction >= WASTE_REDUCTION_FLOOR, reduction
    assert knapsack.bubble_rate() <= arrival.bubble_rate()
    assert (
        knapsack.mean_completion_time()
        <= JCT_PENALTY_CEILING * arrival.mean_completion_time()
    )
    # Same work served either way: packing shapes the stream, not the
    # jobs -- and everything the stream computed is accounted for.
    assert knapsack.total_tokens == arrival.total_tokens
    for result in (arrival, knapsack):
        assert all(r.finish_time is not None for r in result.records.values())
        assert result.total_padded_tokens >= result.total_tokens > 0

    # Determinism claim: a second run reproduces the knapsack
    # schedule cell for cell.
    assert cells(results["knapsack-rerun"]) == cells(knapsack)


def test_packing(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(results, DEFAULT_SEED)
    check(results)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="dataset seed for the trace tenants")
    args = parser.parse_args()
    results = sweep(args.seed)
    report(results, args.seed)
    check(results)


if __name__ == "__main__":
    main()
