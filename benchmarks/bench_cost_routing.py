"""Cost-model-driven control plane vs batch-count heuristics.

Beyond the paper's offline evaluation: three serving scenarios where
pricing decisions in expected *seconds* (``repro/serve/costing.py``)
beats counting global batches.

1. **Routing.**  A heterogeneous two-replica trace mixing heavy tenants
   (few global batches of long wikisum samples) with light ones (many
   batches of short xsum samples) -- exactly the shape that makes
   outstanding-batch counts lie.  ``LeastLoadedRouting`` piles the
   heavies onto one replica because their batch counts look small;
   ``CostAwareRouting`` balances expected seconds and wins on mean JCT.
2. **Deadline admission.**  An overloaded deadline trace where the
   earliest deadlines belong to hopeless jobs.  Plain EDF dutifully
   serves the doomed first and cascades misses onto feasible tenants;
   the ``DeadlineFeasibilityAdmission`` gate sheds infeasible arrivals
   (terminal ``rejected`` state) so the feasible ones finish on time --
   lower served miss rate and more deadline-goodput from the same
   pipeline.
3. **Adaptive window.**  A stable single-tenant horizon under the
   ``AdaptiveWindowConfig`` control loop: the window grows while the
   tenant set is quiet, cutting replans vs the static window at no JCT
   cost.

Every scenario runs with the estimator on, and the table records the
per-run calibration ratio (predicted / observed wave seconds); each must
stay within the documented ``CALIBRATION_TOLERANCE``.

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_cost_routing.py --seed 13
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
    CALIBRATION_TOLERANCE,
    AdaptiveWindowConfig,
    CostAwareRouting,
    CostEstimator,
    DeadlineFeasibilityAdmission,
    DeadlineOrdering,
    LeastLoadedRouting,
    OnlineOrchestrator,
    OrchestratorConfig,
    ReplicaSet,
    ReplicaSetConfig,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
)

NUM_STAGES = 4
CAPACITY = 8192
DEFAULT_SEED = 7
COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                        use_milp=False)
ESTIMATOR = CostEstimator.for_scheduler(COST, SCHED)


def heterogeneous_trace(seed):
    """Heavies (few batches, long samples) + lights (many, short).

    Batch counts are anti-correlated with wall-clock cost on purpose:
    each heavy owes 2 global batches of wikisum-length samples, each
    light 8 global batches of xsum-length ones, so a batch-counting
    router systematically underestimates the heavies.
    """
    jobs = []
    for a in range(8):
        heavy = a % 2 == 0
        dataset = synthetic_dataset(
            a, "wikisum" if heavy else "xsum", 32, seed=seed,
        )
        gbs = 16 if heavy else 4
        jobs.append(
            ServeJob(job=AdapterJob(a, dataset, gbs), arrival_time=0.05 * a)
        )
    return jobs


def route(workload, routing):
    # Two slots per replica: misplacement shows up as queueing, which is
    # what JCT punishes.
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SCHED,
            window_batches=2,
            admission=SlotAdmission(2),
            estimator=ESTIMATOR,
        ),
        routing=routing,
    )
    executors = [StreamingSimExecutor(COST, NUM_STAGES) for _ in range(2)]
    result = ReplicaSet(executors, config).run(workload)
    assert result.violations == 0
    return row(result)


def deadline_trace(seed):
    """All-deadline trace whose *earliest* deadlines are hopeless.

    Three doomed heavies (deadline far below their own service time)
    plus five feasible lights.  EDF ranks the doomed first -- worst
    case for an admission policy that never says no.
    """
    jobs = []
    for a in range(3):
        dataset = synthetic_dataset(a, "wikisum", 48, seed=seed)
        job = AdapterJob(a, dataset, 8)
        jobs.append(
            ServeJob(job=job, arrival_time=0.01 * a,
                     deadline=0.2 + 0.01 * a)  # << its own service time
        )
    for a in range(3, 8):
        dataset = synthetic_dataset(a, "xsum", 16, seed=seed)
        job = AdapterJob(a, dataset, 8)
        solo = ESTIMATOR.job_seconds(job)
        jobs.append(
            ServeJob(job=job, arrival_time=0.01 * a,
                     deadline=0.01 * a + 8 * solo)
        )
    return jobs


def serve_deadlines(workload, gated):
    admission = SlotAdmission(2)
    config = OrchestratorConfig(
        scheduler=SCHED,
        window_batches=1,
        admission=(
            DeadlineFeasibilityAdmission(admission) if gated else admission
        ),
        ordering=DeadlineOrdering(),
        estimator=ESTIMATOR,
    )
    orchestrator = OnlineOrchestrator(
        StreamingSimExecutor(COST, NUM_STAGES), config
    )
    result = orchestrator.run(workload)
    assert result.violations == 0
    return row(result)


def serve_window(seed, adaptive):
    dataset = synthetic_dataset(0, "mixed", 96, seed=seed)
    workload = [ServeJob(job=AdapterJob(0, dataset, 8), arrival_time=0.0)]
    config = OrchestratorConfig(
        scheduler=SCHED,
        window_batches=1,
        estimator=ESTIMATOR,
        adaptive_window=(
            AdaptiveWindowConfig(min_batches=1, max_batches=6)
            if adaptive else None
        ),
    )
    orchestrator = OnlineOrchestrator(
        StreamingSimExecutor(COST, NUM_STAGES), config
    )
    result = orchestrator.run(workload)
    assert result.violations == 0
    return row(result)


def sweep(seed=DEFAULT_SEED):
    trace = heterogeneous_trace(seed)
    deadlines = deadline_trace(seed)
    return {
        "least-loaded-x2": route(trace, LeastLoadedRouting()),
        "cost-aware-x2": route(trace, CostAwareRouting(ESTIMATOR)),
        "edf": serve_deadlines(deadlines, gated=False),
        "edf-gated": serve_deadlines(deadlines, gated=True),
        "static-w1": serve_window(seed, adaptive=False),
        "adaptive-window": serve_window(seed, adaptive=True),
    }


COLUMNS = (
    ("scenario", 16, None), ("makespan", 9, ".2f"), ("meanJCT", 9, ".3f"),
    ("missrate", 9, ".2f"), ("servedmiss", 11, ".2f"), ("goodput", 8, None),
    ("reject", 7, None), ("replans", 8, None), ("calib", 6, ".2f"),
)


def row(result):
    return {
        "makespan": result.makespan,
        "meanJCT": result.mean_completion_time(),
        "missrate": result.deadline_miss_rate(),
        "servedmiss": result.served_deadline_miss_rate(),
        "goodput": result.deadline_goodput(),
        "reject": result.rejected,
        "replans": result.replans,
        "calib": result.calibration_ratio(),
        "unfinished": unfinished(result),
        "total_tokens": result.total_tokens,
    }


def report(rows, seed):
    title = (
        "Cost-model-driven control plane vs batch-count heuristics "
        f"(seed {seed}, {NUM_STAGES}-stage pipeline, LLaMa-8B, "
        f"calibration tolerance {CALIBRATION_TOLERANCE})"
    )
    write_results("cost_routing", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    least, aware = rows["least-loaded-x2"], rows["cost-aware-x2"]
    edf, gated = rows["edf"], rows["edf-gated"]
    static, adaptive = rows["static-w1"], rows["adaptive-window"]
    claims = [
        # Routing claim: pricing placements in seconds beats batch counts
        # on the heterogeneous trace -- no worse mean JCT, same work.
        (aware["meanJCT"] <= least["meanJCT"],
         "cost-aware routing no longer matches least-loaded on mean JCT "
         f"({aware['meanJCT']} vs {least['meanJCT']})"),
        (aware["total_tokens"] == least["total_tokens"],
         "cost-aware routing served different work"),
        # Admission claim: shedding infeasible arrivals lowers the miss
        # rate among served jobs and raises deadline-goodput -- the same
        # pipeline stops wasting time on doomed work.
        (gated["reject"] >= 1, "the feasibility gate never shed a job"),
        (gated["servedmiss"] < edf["missrate"],
         "gating no longer lowers the served deadline-miss rate below "
         f"plain EDF ({gated['servedmiss']} vs {edf['missrate']})"),
        (gated["goodput"] >= edf["goodput"],
         "gating regressed deadline-goodput "
         f"({gated['goodput']} vs {edf['goodput']})"),
        # Window claim: a stable tenant set earns bigger windows -- fewer
        # replans at (approximately) no makespan cost.
        (adaptive["replans"] < static["replans"],
         "the adaptive window stopped saving replans "
         f"({adaptive['replans']} vs {static['replans']})"),
        (adaptive["makespan"] <= 1.05 * static["makespan"],
         "the adaptive window costs makespan "
         f"({adaptive['makespan']} vs {static['makespan']})"),
    ]
    # Every job the routed runs and the gated run did not shed finishes.
    for name in ("least-loaded-x2", "cost-aware-x2", "edf-gated"):
        claims.append((rows[name]["unfinished"] == 0,
                       f"{name} left {rows[name]['unfinished']} job(s) "
                       "unfinished"))
    # Estimator honesty: every run's predicted/observed ratio stays
    # within the documented tolerance.
    tolerance = CALIBRATION_TOLERANCE
    for name, row in rows.items():
        ratio = row["calib"]
        claims.append(
            (ratio is not None and 1 / tolerance <= ratio <= tolerance,
             f"{name} calibration ratio {ratio} left the documented "
             f"[{1 / tolerance}, {tolerance}] band")
        )
    return [message for holds, message in claims if not holds]


def test_cost_routing(benchmark):
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
