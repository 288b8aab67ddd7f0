"""Elastic autoscaling on heterogeneous capacity: three gated scenarios.

A :class:`~repro.serve.autoscaler.FleetAutoscaler` watches the
calibrated seconds-valued backlog and sizes the fleet inside a
$/GPU-hour budget, buying from two pools -- on-demand H100s (the
hardware the cost model prices) and cheap spot L40S capacity whose
:attr:`~repro.serve.autoscaler.CapacityPool.speed_factor` (computed
here from the layer cost model itself, not guessed) seeds the
calibration tracker so slow hardware is priced honestly from its first
wave.  Scale actions flow through the event kernel as first-class heap
events, so every scenario replays byte-identically -- the sweep runs
each trace twice and asserts identical per-job records before reporting
a single number.

Scenarios (each also a pytest-benchmark case):

* ``diurnal`` -- two traffic peaks around a lull: the fleet must grow
  for each peak and give capacity back in between (joins *and* retires).
* ``flash-crowd`` -- a calm trickle, then a burst at 10x the rate: the
  fleet grows under pressure and every deadline-carrying job is judged
  by the served miss-rate gate.
* ``mass-reclaim`` -- a provider takes 25% of an 8-replica fleet back
  mid-run with a finite grace window; the gate is **zero lost jobs**
  and a bounded mean-JCT penalty versus the identical trace with no
  reclamation (``mass-reclaim-base``).

Claims (held by ``check`` on every sweep and on the committed
``results/autoscale.json``): no scenario loses a job, every
scenario's deadline miss rate stays under ``MISS_RATE_CEILING``, the
elastic fleet's GPU-seconds stay under what a fixed fleet at peak size
would bill (``gpu_s < (repl + joins) * makespan``), and the
mass-reclaim JCT penalty stays under ``RECLAIM_JCT_PENALTY``x.

Run under pytest (the default seed) or standalone:

    PYTHONPATH=src:. python benchmarks/bench_autoscale.py --seed 13
"""

import argparse

import numpy as np

from benchmarks.common import (
    at_both_precisions,
    render_results,
    require,
    write_results,
)
from repro.data.dataset import FinetuneDataset, Sample
from repro.distsim.systems import stage_times
from repro.gpu import H100
from repro.gpu.specs import get_gpu
from repro.models import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel, MicrobatchShape
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CapacityPool,
    CostAwareRouting,
    CostEstimator,
    FleetAutoscaler,
    OrchestratorConfig,
    ReclamationNotice,
    ReplicaSet,
    ReplicaSetConfig,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
)

NUM_STAGES = 2
CAPACITY = 8192
SLOTS = 4
DEFAULT_SEED = 7
#: Distinct sample-length values across the tenant population (shared
#: profiles keep the estimator's memos warm; see bench_fleet_kernel).
NUM_PROFILES = 16
#: Every Nth tenant carries a completion deadline.
DEADLINE_EVERY = 3
#: Seconds of slack a deadline-carrying tenant gets past its arrival.
DEADLINE_SLACK = 6.0
#: Served deadline-miss-rate ceiling every scenario must stay under.
MISS_RATE_CEILING = 0.15
#: Mean-JCT multiplier the mass reclaim may cost over the no-reclaim
#: baseline run of the identical trace.
RECLAIM_JCT_PENALTY = 1.5

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
SCHED = SchedulerConfig(capacity=CAPACITY, num_stages=NUM_STAGES,
                        use_milp=False)


def pool_speed_factor(gpu_key):
    """Step-time ratio of ``gpu_key`` versus the reference H100 model.

    Derived from the same layer cost model the executors run on (a
    representative microbatch shape), so the calibration seed and the
    simulated hardware cannot drift apart.
    """
    probe = MicrobatchShape(tokens=4096, sum_sq_len=4096.0 * 256,
                            num_adapters=SLOTS)
    alt = LayerCostModel(LLAMA3_8B, get_gpu(gpu_key),
                         strategy="fused_multi")
    ref_f, ref_b = stage_times(COST, probe, NUM_STAGES)
    alt_f, alt_b = stage_times(alt, probe, NUM_STAGES)
    return (sum(alt_f) + sum(alt_b)) / (sum(ref_f) + sum(ref_b))


ON_DEMAND = CapacityPool("h100", "h100", hourly_rate=6.0, limit=6)
SPOT = CapacityPool("l40s-spot", "l40s", hourly_rate=1.5, limit=6,
                    speed_factor=pool_speed_factor("l40s"), spot=True)

#: (name, job count per segment, arrival rate per segment).  Segments
#: run back to back: diurnal is peak/lull/peak, the flash crowd is a
#: trickle then a 10x burst, the reclaim trace is steady overload.
TRACES = {
    "diurnal": ((160, 200.0), (40, 8.0), (160, 200.0)),
    "flash-crowd": ((60, 20.0), (240, 200.0)),
    "mass-reclaim": ((400, 100.0),),
}
#: 25% of the 8-replica reclaim fleet, taken with a 0.5s grace window.
RECLAIM_NOTICE = ReclamationNotice(time=1.0, count=2, deadline=0.5)
SCENARIOS = ("diurnal", "flash-crowd", "mass-reclaim-base", "mass-reclaim")


def make_jobs(count, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(64, 512, size=NUM_PROFILES)
    return [
        AdapterJob(
            a,
            FinetuneDataset(a, [Sample(a, 0, int(lengths[a % NUM_PROFILES]))]),
            1,
        )
        for a in range(count)
    ]


def build_workload(name, seed):
    """Segment-rate Poisson arrivals; every Nth tenant gets a deadline."""
    segments = TRACES["mass-reclaim" if name.startswith("mass") else name]
    total = sum(count for count, _ in segments)
    jobs = make_jobs(total, seed + 10)
    rng = np.random.default_rng(seed)
    workload = []
    clock = 0.0
    offset = 0
    for count, rate in segments:
        gaps = rng.exponential(1.0 / rate, size=count)
        for index, gap in enumerate(gaps):
            clock += gap
            job = jobs[offset + index]
            deadline = (
                clock + DEADLINE_SLACK
                if job.adapter_id % DEADLINE_EVERY == 0
                else None
            )
            workload.append(
                ServeJob(job=job, arrival_time=clock, deadline=deadline)
            )
        offset += count
    return workload


def build_autoscaler(name):
    if name.startswith("mass-reclaim"):
        initial = ("h100",) * 4 + ("l40s-spot",) * 4
        notices = (RECLAIM_NOTICE,) if name == "mass-reclaim" else ()
    else:
        initial = ("h100",)
        notices = ()
    return FleetAutoscaler(
        pools=(ON_DEMAND, SPOT),
        budget_per_hour=40.0,
        initial_pools=initial,
        scale_up_backlog=0.5,
        scale_down_backlog=0.1,
        provision_delay=0.1,
        cooldown=0.2,
        reclamations=notices,
    )


def serve(name, seed):
    """Run one scenario; return the fleet result."""
    scaler = build_autoscaler(name)
    estimator = CostEstimator.for_scheduler(COST, SCHED)
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=SCHED,
            window_batches=1,
            admission=SlotAdmission(SLOTS),
            estimator=estimator,
        ),
        routing=CostAwareRouting(estimator),
        migration_time_threshold=30.0,
        autoscaler=scaler,
        executor_factory=lambda pool: StreamingSimExecutor(
            LayerCostModel(LLAMA3_8B, get_gpu(pool.gpu),
                           strategy="fused_multi"),
            NUM_STAGES,
        ),
    )
    executors = [
        StreamingSimExecutor(COST, NUM_STAGES)
        for _ in range(len(scaler.initial_pools))
    ]
    workload = build_workload(name, seed)
    return ReplicaSet(executors, config).run(workload)


def fingerprint(result):
    """The per-job outcome stream a rerun must reproduce exactly."""
    return {
        aid: (r.arrival_time, r.admit_time, r.first_scheduled_time,
              r.finish_time, r.replica, r.migrations, r.num_batches)
        for aid, r in result.records.items()
    }


def sweep(seed=DEFAULT_SEED):
    results = {}
    for name in SCENARIOS:
        result = serve(name, seed)
        # Determinism gate before any reported number: scale events are
        # kernel events, so the rerun must be byte-identical.
        rerun = serve(name, seed)
        assert fingerprint(rerun) == fingerprint(result), name
        assert rerun.events_processed == result.events_processed, name
        lost = sum(
            1 for r in result.records.values() if r.finish_time is None
        )
        results[name] = {
            "jobs": len(result.records),
            "repl": len(build_autoscaler(name).initial_pools),
            "joins": result.joins,
            "retires": result.retires,
            "reclaims": result.reclaims,
            "forced": result.forced_evacuations,
            "missrate": result.deadline_miss_rate(),
            "meanJCT": result.mean_completion_time(),
            "makespan": result.makespan,
            "gpu_s": result.gpu_seconds,
            "dollars": result.dollars_spent,
            "lost": lost,
        }
    return results


COLUMNS = (
    ("scenario", 18, None), ("jobs", 5, None), ("repl", 5, None),
    ("joins", 6, None), ("retires", 7, None), ("reclaims", 8, None),
    ("forced", 6, None), ("missrate", 8, ".3f"), ("meanJCT", 8, ".3f"),
    ("makespan", 8, ".2f"), ("gpu_s", 8, ".2f"), ("dollars", 8, ".5f"),
    ("lost", 4, None),
)


def report(rows, seed):
    title = (
        f"Elastic autoscaling on heterogeneous capacity (seed {seed}, "
        f"H100 ${ON_DEMAND.hourly_rate}/h vs spot L40S "
        f"${SPOT.hourly_rate}/h at {SPOT.speed_factor:.2f}x step time, "
        f"$40/h budget, {SLOTS} slots/replica)"
    )
    write_results("autoscale", render_results(title, COLUMNS, rows), rows)


def check(rows):
    """Claims ``rows`` break, at full precision and as the table shows."""
    return at_both_precisions(problems, rows, COLUMNS)


def problems(rows):
    claims = []
    for name, row in rows.items():
        # The elastic fleet must bill less than a fixed fleet held at
        # its peak size for the whole run.
        peak_bill = (row["repl"] + row["joins"]) * row["makespan"]
        claims += [
            (row["lost"] == 0,
             f"{name} lost {row['lost']} job(s) -- elastic scaling must "
             "stay lossless"),
            (row["missrate"] <= MISS_RATE_CEILING,
             f"{name} deadline miss rate {row['missrate']} left the "
             f"{MISS_RATE_CEILING} ceiling"),
            (row["gpu_s"] < peak_bill,
             f"{name} stopped saving GPU-seconds vs a fixed peak-size "
             f"fleet ({row['gpu_s']} vs {peak_bill})"),
        ]
    diurnal = rows["diurnal"]
    reclaim, base = rows["mass-reclaim"], rows["mass-reclaim-base"]
    claims += [
        (diurnal["joins"] >= 1 and diurnal["retires"] >= 1,
         "the diurnal trace no longer both grows and shrinks "
         f"(joins={diurnal['joins']}, retires={diurnal['retires']})"),
        (rows["flash-crowd"]["joins"] >= 1,
         "the flash crowd never grew the fleet"),
        (reclaim["reclaims"] == RECLAIM_NOTICE.count,
         f"the mass reclaim took {reclaim['reclaims']} replica(s), notice "
         f"says {RECLAIM_NOTICE.count}"),
        (reclaim["meanJCT"] <= RECLAIM_JCT_PENALTY * base["meanJCT"],
         "the mass reclaim's mean-JCT penalty left the "
         f"{RECLAIM_JCT_PENALTY}x band ({reclaim['meanJCT']} vs baseline "
         f"{base['meanJCT']})"),
    ]
    return [message for holds, message in claims if not holds]


def test_autoscale(benchmark):
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
