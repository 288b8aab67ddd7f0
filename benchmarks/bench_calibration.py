"""Closed-loop cost calibration vs the a priori control plane.

Three serving scenarios where *feeding the estimator's own record back
into it* beats acting on a priori prices alone:

1. **Feedback correction.**  Two tenants whose length distribution
   drifts mid-run (short xsum-like samples for the first half of the
   stream, long wikisum-like ones for the second), so the dataset-level
   moments the a priori estimator prices with are stale for every
   individual wave.  A ``CalibrationTracker`` folds each wave's
   observed/predicted ratio back into the estimator; the corrected run's
   calibration ratio must be strictly tighter than the uncorrected one
   -- and inside the tightened ``CORRECTED_CALIBRATION_TOLERANCE`` band,
   while the uncorrected run is only held to ``CALIBRATION_TOLERANCE``.
2. **Queueing-aware admission.**  An overloaded deadline trace: light
   tenants that can meet their deadlines while sharing the pipeline
   with each other, plus heavy arrivals whose deadlines fit their solo
   service time but not the backlog already planned ahead of them.  The
   service-time-only ``DeadlineFeasibilityAdmission`` admits the
   heavies (each looks feasible alone), they clog the pipeline, and
   everyone misses; the ``queueing_aware`` gate charges the replica's
   expected wave backlog too, sheds the heavies at arrival, and the
   lights finish on time -- strictly more deadline-goodput from the
   same pipeline.  The cost is pessimism: a lucky schedule could
   occasionally have saved a shed job, which is why the mode is off by
   default.
3. **Seconds-skew rebalancing.**  A heterogeneous two-replica fleet
   (heavies owing *few* global batches of long samples, lights many
   batches of short ones) under count-based routing, so batch counts
   systematically misstate the load.  The batch-skew rebalancer moves
   jobs to even a number that lies; the seconds-skew rebalancer
   compares completion horizons (replica clock + expected remaining
   seconds) and must match or beat it on mean JCT.  A third leg turns
   on ``drain_then_migrate`` to measure what paying pipeline flushes to
   unlock deep-pipeline migrations costs/buys
   (``ReplicaSetResult.rebalance_drains`` counts the flushes).

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_calibration.py --seed 13
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
from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.models import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CALIBRATION_TOLERANCE,
    CORRECTED_CALIBRATION_TOLERANCE,
    CalibrationTracker,
    CostEstimator,
    DeadlineFeasibilityAdmission,
    DeadlineOrdering,
    LeastLoadedRouting,
    OnlineOrchestrator,
    OrchestratorConfig,
    ReplicaSet,
    ReplicaSetConfig,
    SRPTOrdering,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
)

NUM_STAGES = 4
CAPACITY = 8192
DEFAULT_SEED = 7
#: Fast smoothing for the drift scenario: the regime shifts once, so the
#: tracker should chase the newest waves rather than average regimes.
TRACKER_ALPHA = 0.6
COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                        use_milp=False)
#: Tracker-free pricing helper for building traces (deadlines etc.).
PRICER = CostEstimator.for_scheduler(COST, SCHED)


def fresh_estimator(corrected):
    """A per-run estimator (trackers are stateful; never share them)."""
    tracker = CalibrationTracker(alpha=TRACKER_ALPHA) if corrected else None
    return CostEstimator.for_scheduler(COST, SCHED, calibration=tracker)


# -- scenario 1: feedback correction under drift -------------------------


def drifting_job(adapter_id, seed, samples=96, gbs=8):
    """A tenant whose length distribution steps mid-stream.

    First half xsum-length samples, second half wikisum-length: the
    dataset-level moments (what the a priori estimator prices every
    wave with) describe the *mixture*, so each half is mispriced in a
    different direction -- early waves overpredicted, late waves
    underpredicted.
    """
    short = synthetic_dataset(adapter_id, "xsum", samples // 2, seed=seed)
    long = synthetic_dataset(adapter_id, "wikisum", samples // 2, seed=seed + 1)
    lengths = [s.length for s in short.samples] + [s.length for s in long.samples]
    dataset = FinetuneDataset(
        adapter_id=adapter_id,
        samples=[
            Sample(adapter_id=adapter_id, index=i, length=length)
            for i, length in enumerate(lengths)
        ],
        source="drift",
    )
    return AdapterJob(adapter_id, dataset, gbs)


def serve_drift(seed, corrected):
    workload = [
        ServeJob(job=drifting_job(a, seed + a), arrival_time=0.0)
        for a in range(2)
    ]
    config = OrchestratorConfig(
        scheduler=SCHED,
        window_batches=1,  # one batch per wave: the drift is per-wave visible
        estimator=fresh_estimator(corrected),
    )
    orchestrator = OnlineOrchestrator(
        StreamingSimExecutor(COST, NUM_STAGES), config
    )
    result = orchestrator.run(workload)
    assert result.violations == 0
    return row(result)


# -- scenario 2: queueing-aware deadline admission -----------------------


def overload_trace(seed):
    """Lights that survive sharing; heavies doomed by the queue only.

    Light deadlines are 5x their solo service time -- generous enough
    to share the pipeline with the other lights, not with a heavy.
    Heavy deadlines are 1.2x solo: feasible on an idle pipeline (the
    service-only gate must admit them), infeasible behind the lights'
    planned backlog (the queueing-aware gate must shed them).
    """
    jobs = []
    for a, t in [(0, 0.0), (1, 0.0), (2, 0.4), (3, 0.6)]:
        job = AdapterJob(a, synthetic_dataset(a, "xsum", 48, seed=seed), 8)
        jobs.append(
            ServeJob(job=job, arrival_time=t,
                     deadline=t + 5.0 * PRICER.job_seconds(job))
        )
    for a, t in [(4, 0.2), (5, 0.5)]:
        job = AdapterJob(a, synthetic_dataset(a, "wikisum", 48, seed=seed), 8)
        jobs.append(
            ServeJob(job=job, arrival_time=t,
                     deadline=t + 1.2 * PRICER.job_seconds(job))
        )
    return sorted(jobs, key=lambda j: (j.arrival_time, j.adapter_id))


def serve_overload(workload, queueing_aware):
    config = OrchestratorConfig(
        scheduler=SCHED,
        window_batches=2,
        admission=DeadlineFeasibilityAdmission(
            SlotAdmission(3), queueing_aware=queueing_aware
        ),
        ordering=DeadlineOrdering(),
        estimator=fresh_estimator(corrected=False),
    )
    orchestrator = OnlineOrchestrator(
        StreamingSimExecutor(COST, NUM_STAGES), config
    )
    result = orchestrator.run(workload)
    assert result.violations == 0
    return row(result)


# -- scenario 3: seconds-skew vs batch-skew rebalancing ------------------


def heterogeneous_trace(seed):
    """Batch counts anti-correlated with cost (the lying-count shape)."""
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


def mean_batch_price(trace):
    """Trace-wide expected seconds per global batch (threshold currency).

    Makes the batch and seconds thresholds commensurable: a batch-skew
    threshold of ``K`` batches and a seconds-skew threshold of
    ``K * mean_batch_price`` tolerate the same skew *for the average
    tenant* -- the comparison then isolates the unit, not the
    sensitivity.
    """
    total = sum(PRICER.job_seconds(j.job) for j in trace)
    batches = sum(j.job.num_global_batches() for j in trace)
    return total / batches


def serve_fleet(workload, batch_thr=None, time_thr=None, drain=False):
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SCHED,
            window_batches=2,
            admission=SlotAdmission(2),
            ordering=SRPTOrdering(),
            estimator=fresh_estimator(corrected=False),
        ),
        routing=LeastLoadedRouting(),  # count-based placement, on purpose
        migration_threshold=batch_thr,
        migration_time_threshold=time_thr,
        drain_then_migrate=drain,
    )
    executors = [StreamingSimExecutor(COST, NUM_STAGES) for _ in range(2)]
    result = ReplicaSet(executors, config).run(workload)
    assert result.violations == 0
    return row(result)


def sweep(seed=DEFAULT_SEED):
    overload = overload_trace(seed)
    fleet = heterogeneous_trace(seed)
    price = mean_batch_price(fleet)
    return {
        "uncorrected": serve_drift(seed, corrected=False),
        "corrected": serve_drift(seed, corrected=True),
        "edf-service": serve_overload(overload, queueing_aware=False),
        "edf-queueaware": serve_overload(overload, queueing_aware=True),
        "batch-skew": serve_fleet(fleet, batch_thr=4),
        "secs-skew": serve_fleet(fleet, time_thr=4 * price),
        "secs-skew-drain": serve_fleet(fleet, time_thr=4 * price, drain=True),
    }


COLUMNS = (
    ("scenario", 16, None), ("calib", 7, ".2f"), ("caliberr", 9, ".3f"),
    ("waveerr", 9, ".3f"), ("meanJCT", 9, ".3f"), ("makespan", 9, ".2f"),
    ("goodput", 8, None), ("smiss", 7, ".2f"), ("reject", 7, None),
    ("mig", 5, None), ("drains", 7, None),
)


def row(result):
    return {
        "calib": result.calibration_ratio(),
        "caliberr": result.calibration_error(),
        "waveerr": result.mean_wave_calibration_error(),
        "meanJCT": result.mean_completion_time(),
        "makespan": result.makespan,
        "goodput": result.deadline_goodput(),
        "smiss": result.served_deadline_miss_rate(),
        "reject": result.rejected,
        "mig": getattr(result, "migrations", None),
        "drains": getattr(result, "rebalance_drains", None),
        "unfinished": unfinished(result),
        "total_tokens": result.total_tokens,
    }


def report(rows, seed):
    title = (
        "Closed-loop cost calibration vs the a priori control plane "
        f"(seed {seed}, {NUM_STAGES}-stage pipeline, LLaMa-8B; corrected "
        f"band {CORRECTED_CALIBRATION_TOLERANCE}, uncorrected "
        f"{CALIBRATION_TOLERANCE})"
    )
    write_results("calibration", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    uncorrected, corrected = rows["uncorrected"], rows["corrected"]
    service, queueing = rows["edf-service"], rows["edf-queueaware"]
    batch, seconds = rows["batch-skew"], rows["secs-skew"]
    drain = rows["secs-skew-drain"]
    claims = []
    # Correction claim: the feedback loop tightens calibration on the
    # drifting trace -- run-level ratio strictly closer to 1.0, mean
    # per-wave error strictly lower, and each run inside its own band.
    for column in ("caliberr", "waveerr"):
        claims.append(
            (corrected[column] < uncorrected[column],
             f"feedback correction no longer tightens {column} on the "
             f"drifting trace ({corrected[column]} vs {uncorrected[column]})")
        )
    for name, tolerance in (("uncorrected", CALIBRATION_TOLERANCE),
                            ("corrected", CORRECTED_CALIBRATION_TOLERANCE)):
        ratio = rows[name]["calib"]
        claims.append(
            (ratio is not None and 1 / tolerance <= ratio <= tolerance,
             f"{name} ratio {ratio} left its "
             f"[{1 / tolerance:.3f}, {tolerance}] band")
        )
    claims += [
        # Same trace, same work: correction changes prices, not execution.
        (corrected["total_tokens"] == uncorrected["total_tokens"],
         "correction changed the work served"),
        # Admission claim: charging the planned backlog sheds doomed-
        # under-load arrivals at arrival, so the same pipeline finishes
        # strictly more deadline-carrying jobs on time (and misses less
        # among the jobs it serves).
        (queueing["goodput"] > service["goodput"],
         "queueing-aware admission no longer beats service-time-only "
         f"admission on deadline goodput ({queueing['goodput']} vs "
         f"{service['goodput']})"),
        (queueing["smiss"] <= service["smiss"],
         "queueing-aware admission regressed the served miss rate "
         f"({queueing['smiss']} vs {service['smiss']})"),
        (queueing["reject"] >= 1 and service["reject"] >= 1,
         "a feasibility gate never shed a job"),
        # Rebalancing claim: triggering on completion-horizon seconds
        # skew matches or beats the batch-count trigger on mean JCT (the
        # counts lie on this trace), at commensurable thresholds.
        (seconds["meanJCT"] <= 1.05 * batch["meanJCT"],
         "seconds-skew rebalancing no longer matches batch-skew mean JCT "
         f"({seconds['meanJCT']} vs {batch['meanJCT']})"),
        # The drain leg pays flushes to unlock migrations a deep
        # pipeline otherwise starves; it must actually fire, and only
        # there.
        (drain["drains"] >= 1, "the drain-then-migrate leg never paid a drain"),
        (batch["drains"] == 0 and seconds["drains"] == 0,
         "a leg without drain-then-migrate drained"),
    ]
    for name in ("secs-skew", "secs-skew-drain"):
        claims.append((rows[name]["total_tokens"] == batch["total_tokens"],
                       f"{name} served different work than batch-skew"))
    # Every job the admission and rebalancing legs did not shed finishes.
    for name in ("edf-service", "edf-queueaware", "batch-skew", "secs-skew",
                 "secs-skew-drain"):
        claims.append((rows[name]["unfinished"] == 0,
                       f"{name} left {rows[name]['unfinished']} job(s) "
                       "unfinished"))
    return [message for holds, message in claims if not holds]


def test_calibration(benchmark):
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
