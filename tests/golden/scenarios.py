"""The golden fleet corpus: pinned serving scenarios and their digests.

Each scenario builds a fresh fleet, serves one seeded trace, and reduces
the run to a corpus entry: the job count, a sha256 of the per-job
records, a sha256 of the per-replica remainder of
:func:`tests.helpers.fingerprint` (counters, makespans, waves,
assignments, microbatch streams), and ``events_processed`` per kind.
``tests/golden/fleet_corpus.json`` commits those entries;
``tests/integration/test_golden_corpus.py`` replays every scenario and
compares.  A change that alters any observable fleet behaviour --
including one that alters the event loop and the lockstep reference the
same way -- changes a digest.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src:. python scripts/gen_golden_corpus.py

The generator also replays every fixed-fleet scenario on the lockstep
reference loop (:mod:`tests.lockstep_reference`) and refuses to write a
corpus the two loops disagree on.
"""

from __future__ import annotations

import asyncio
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.gpu import H100
from repro.gpu.specs import get_gpu
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CalibrationTracker,
    CapacityPool,
    CostAwareRouting,
    CostEstimator,
    DeadlineFeasibilityAdmission,
    FCFSOrdering,
    FleetAutoscaler,
    ManualClock,
    OrchestratorConfig,
    PackingAffinityRouting,
    ReclamationNotice,
    ReplicaSet,
    ReplicaSetConfig,
    ReplicaSetResult,
    ServeConfig,
    ServeJob,
    SlotAdmission,
    SRPTOrdering,
    StreamingSimExecutor,
    poisson_workload,
)
from tests.helpers import fingerprint

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


class StickyRouting:
    """Pin every tenant to replica 0 (forces the rebalancer to act)."""

    def choose(self, job, replicas):
        return 0


def make_job(adapter_id, samples, gbs):
    dataset = synthetic_dataset(
        adapter_id, DATASETS[adapter_id % 4], samples, seed=3
    )
    return AdapterJob(adapter_id, dataset, gbs)


def make_jobs(specs):
    """One AdapterJob per ``(samples, gbs)`` spec, datasets cycling."""
    return [make_job(a, samples, gbs) for a, (samples, gbs) in enumerate(specs)]


def scheduler(num_stages):
    return SchedulerConfig(capacity=8192, num_stages=num_stages, use_milp=False)


def fleet(num_replicas, num_stages, slots=2, ordering=None, estimator=None,
          admission=None, packing="arrival", **fleet_kwargs):
    """A fresh fixed fleet of streaming-sim replicas."""
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=scheduler(num_stages),
            window_batches=1,
            admission=admission or SlotAdmission(slots),
            ordering=ordering or FCFSOrdering(),
            estimator=estimator,
            packing=packing,
        ),
        **fleet_kwargs,
    )
    executors = [
        StreamingSimExecutor(COST, num_stages) for _ in range(num_replicas)
    ]
    return ReplicaSet(executors, config)


def priced(num_stages, calibrated=False):
    return CostEstimator.for_scheduler(
        COST,
        scheduler(num_stages),
        calibration=CalibrationTracker() if calibrated else None,
    )


MIXED = [(8, 2), (12, 4), (6, 2), (10, 2), (16, 4), (4, 2), (9, 3), (14, 2)]


# -- fixed-fleet scenarios (the lockstep reference can run these) ----------


def fcfs_least_loaded():
    workload = poisson_workload(make_jobs(MIXED), rate=1.0, rng=11)
    return fleet(3, 2), workload


def batch_skew_rebalance():
    workload = poisson_workload(make_jobs(MIXED[:7]), rate=1.0, rng=5)
    return fleet(3, 2, routing=StickyRouting(), migration_threshold=2), workload


def seconds_skew_drain_4_stages():
    workload = [
        ServeJob(job=job, arrival_time=0.0)
        for job in make_jobs([(24, 4), (24, 4), (12, 2)])
    ]
    replica_set = fleet(
        2, 4, estimator=priced(4), routing=StickyRouting(),
        migration_time_threshold=0.05, drain_then_migrate=True,
    )
    return replica_set, workload


def seconds_skew_srpt():
    workload = poisson_workload(make_jobs(MIXED), rate=1.0, rng=3)
    replica_set = fleet(
        2, 4, ordering=SRPTOrdering(), estimator=priced(4),
        routing=StickyRouting(), migration_time_threshold=1.0,
    )
    return replica_set, workload


def preemptive_srpt():
    specs = [(24, 2), (20, 2), (4, 2), (16, 2), (4, 2), (6, 2)]
    stamps = [0.0, 0.0, 0.05, 0.07, 0.3, 0.31]
    workload = [
        ServeJob(job=job, arrival_time=stamp)
        for job, stamp in zip(make_jobs(specs), stamps)
    ]
    replica_set = fleet(
        2, 2, slots=1, estimator=priced(2),
        ordering=SRPTOrdering(preemptive=True, aging_rate=0.5),
    )
    return replica_set, workload


def deadline_rejects():
    jobs = make_jobs(MIXED)
    workload = [
        ServeJob(
            job=job,
            arrival_time=0.1 * a,
            deadline=0.1 * a + (0.05 if a % 3 == 0 else 400.0),
        )
        for a, job in enumerate(jobs)
    ]
    admission = DeadlineFeasibilityAdmission(
        SlotAdmission(2), queueing_aware=True
    )
    replica_set = fleet(2, 2, estimator=priced(2), admission=admission)
    return replica_set, workload


def knapsack_packing():
    estimator = priced(2)
    workload = poisson_workload(make_jobs(MIXED), rate=1.0, rng=7)
    replica_set = fleet(
        3, 2, estimator=estimator, packing="knapsack",
        routing=PackingAffinityRouting(estimator=estimator),
    )
    return replica_set, workload


def cost_aware_calibrated():
    estimator = priced(2, calibrated=True)
    workload = poisson_workload(make_jobs(MIXED), rate=2.0, rng=13)
    replica_set = fleet(
        3, 2, estimator=estimator, routing=CostAwareRouting(estimator),
        migration_time_threshold=0.5,
    )
    return replica_set, workload


def packing_affinity_routing():
    workload = poisson_workload(make_jobs(MIXED), rate=1.5, rng=17)
    return fleet(3, 2, routing=PackingAffinityRouting()), workload


def active_migration():
    long_job = AdapterJob(0, synthetic_dataset(0, "xsum", 12, seed=3), 2)
    shorts = [
        AdapterJob(a, synthetic_dataset(a, "xsum", 4, seed=3), 2)
        for a in (1, 2)
    ]
    workload = [
        ServeJob(job=long_job, arrival_time=0.0),
        ServeJob(job=shorts[0], arrival_time=0.01),
        ServeJob(job=shorts[1], arrival_time=0.01),
    ]
    replica_set = fleet(
        2, 1, slots=4, routing=StickyRouting(), migration_threshold=8
    )
    return replica_set, workload


# -- elastic and live scenarios (event loop only) ---------------------------

ON_DEMAND = CapacityPool("a100", "a100-sxm", hourly_rate=4.0, limit=4)
SPOT = CapacityPool(
    "l40s-spot", "l40s", hourly_rate=1.0, limit=4, speed_factor=2.0, spot=True
)


def one_sample_jobs(count, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(64, 512, size=16)
    return [
        AdapterJob(
            a, FinetuneDataset(a, [Sample(a, 0, int(lengths[a % 16]))]), 1
        )
        for a in range(count)
    ]


def elastic(initial_pools, slots=4, migration_time_threshold=30.0,
            **scaler_kwargs):
    """A fresh autoscaled fleet over the a100 / l40s-spot pools."""
    kwargs = dict(
        pools=(ON_DEMAND, SPOT),
        budget_per_hour=20.0,
        initial_pools=initial_pools,
        scale_up_backlog=0.4,
        scale_down_backlog=0.05,
        provision_delay=0.1,
        cooldown=0.1,
    )
    kwargs.update(scaler_kwargs)
    sched = scheduler(2)
    estimator = CostEstimator.for_scheduler(COST, sched)
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=sched,
            window_batches=1,
            admission=SlotAdmission(slots),
            estimator=estimator,
        ),
        routing=CostAwareRouting(estimator),
        migration_time_threshold=migration_time_threshold,
        autoscaler=FleetAutoscaler(**kwargs),
        executor_factory=lambda pool: StreamingSimExecutor(
            LayerCostModel(LLAMA3_8B, get_gpu(pool.gpu), strategy="fused_multi"),
            2,
        ),
    )
    executors = [StreamingSimExecutor(COST, 2) for _ in initial_pools]
    return ReplicaSet(executors, config)


def autoscale_join_retire():
    workload = poisson_workload(one_sample_jobs(100, 17), rate=120.0, rng=7)
    return elastic(("a100",)), workload


def spot_reclaim_forced():
    notice = ReclamationNotice(time=0.1, count=2, deadline=0.0)
    workload = poisson_workload(one_sample_jobs(60, 19), rate=300.0, rng=7)
    replica_set = elastic(
        ("a100", "l40s-spot", "l40s-spot"), slots=2, reclamations=(notice,)
    )
    return replica_set, workload


def reclaim_holds_ticket():
    # Every slot on the surviving on-demand replica is taken when the
    # spot pair is reclaimed, so boundary jobs carrying state have
    # nowhere to land and wait, held, until a slot frees.
    notice = ReclamationNotice(time=0.2, count=2, deadline=0.3)
    jobs = make_jobs([(12, 2)] * 9)
    workload = [ServeJob(job=job, arrival_time=0.0) for job in jobs]
    replica_set = elastic(
        ("a100", "l40s-spot", "l40s-spot"),
        slots=1,
        reclamations=(notice,),
        budget_per_hour=6.0,
    )
    return replica_set, workload


def gateway_session():
    """A live session: rate limit, queue bound, holds, a cancel, deadlines."""
    sched = scheduler(2)
    config = ServeConfig(
        num_replicas=2,
        slots=2,
        window_batches=1,
        migration_time_threshold=0.05,
        gateway_rate=4.0,
        gateway_burst=2.0,
        gateway_queue_bound=3,
        gateway_hold=0.2,
    )
    steps = (0.05, 0.13, 0.21, 0.34, 0.55)

    async def drive():
        clock = ManualClock()
        gateway = config.build_gateway(COST, sched, clock=clock)
        for a in range(10):
            await gateway.submit(
                make_job(a, *MIXED[a % len(MIXED)]),
                tenant="ab"[a % 2],
                deadline=None if a % 4 else 400.0,
            )
            if a == 3:
                await gateway.cancel(2)
            clock.advance(steps[a % len(steps)])
        return gateway, await gateway.drain()

    gateway, result = asyncio.run(drive())
    return gateway.replica_set, result.fleet


def gateway_door_churn():
    """A live session under a fairness quota: cancels and resubmissions
    of the same ids, shed resubmissions, and jobs still held at drain."""
    sched = scheduler(2)
    config = ServeConfig(
        num_replicas=2,
        slots=2,
        window_batches=1,
        gateway_queue_bound=3,
        gateway_fairness=0.5,
        gateway_hold=0.3,
    )
    # (advance, op, adapter id, tenant); ids repeat on purpose.
    script = (
        (0.0, "submit", 0, "a"),
        (0.0, "submit", 1, "a"),
        (0.05, "submit", 2, "b"),
        (0.05, "submit", 3, "a"),  # quota: b is waiting
        (0.0, "cancel", 1, None),
        (0.05, "submit", 1, "a"),  # resubmit the cancelled id
        (0.05, "submit", 3, "a"),  # resubmit the shed id: shed again
        (0.1, "submit", 4, "c"),
        (0.1, "submit", 5, "b"),
        (0.0, "cancel", 5, None),
        (0.0, "submit", 6, "b"),
        (0.0, "submit", 7, "b"),
        (0.0, "submit", 11, "b"),
        (0.0, "submit", 5, "b"),  # resubmit the cancelled id: queue full
        (0.4, "submit", 3, "a"),  # the shed id, accepted at last
        (2.0, "submit", 8, "c"),
        (0.0, "submit", 9, "a"),
        (0.0, "submit", 5, "b"),
        (0.1, "cancel", 8, None),
        (0.0, "submit", 8, "c"),
        (0.05, "submit", 10, "b"),
    )

    async def drive():
        clock = ManualClock()
        gateway = config.build_gateway(COST, sched, clock=clock)
        for advance, op, a, tenant in script:
            clock.advance(advance)
            if op == "cancel":
                await gateway.cancel(a)
            else:
                await gateway.submit(
                    make_job(a, *MIXED[a % len(MIXED)]), tenant=tenant
                )
        if await gateway.status(10) != "held":
            raise AssertionError("gateway-door-churn: nothing held at drain")
        return gateway, await gateway.drain()

    gateway, result = asyncio.run(drive())
    return gateway.replica_set, result.fleet


@dataclass(frozen=True)
class Scenario:
    """One corpus entry's recipe.

    Attributes:
        name: Corpus key.
        build: For trace scenarios, a fresh ``(replica_set, workload)``;
            :meth:`run` serves it with ``ReplicaSet.run``.
        session: For live scenarios, drives a gateway session and
            returns ``(replica_set, fleet_result)``.
        lockstep: Whether the lockstep reference loop can serve it
            (fixed fleets only).
    """

    name: str
    build: Callable[[], tuple[ReplicaSet, list[ServeJob]]] | None = None
    session: Callable[[], tuple[ReplicaSet, ReplicaSetResult]] | None = None
    lockstep: bool = True

    def run(self) -> tuple[ReplicaSet, ReplicaSetResult]:
        if self.session is not None:
            return self.session()
        replica_set, workload = self.build()
        return replica_set, replica_set.run(workload)


SCENARIOS = [
    Scenario("fcfs-least-loaded", fcfs_least_loaded),
    Scenario("batch-skew-rebalance", batch_skew_rebalance),
    Scenario("seconds-skew-drain-4-stages", seconds_skew_drain_4_stages),
    Scenario("seconds-skew-srpt", seconds_skew_srpt),
    Scenario("preemptive-srpt", preemptive_srpt),
    Scenario("deadline-rejects", deadline_rejects),
    Scenario("knapsack-packing", knapsack_packing),
    Scenario("cost-aware-calibrated", cost_aware_calibrated),
    Scenario("packing-affinity-routing", packing_affinity_routing),
    Scenario("active-migration", active_migration),
    Scenario("autoscale-join-retire", autoscale_join_retire, lockstep=False),
    Scenario("spot-reclaim-forced", spot_reclaim_forced, lockstep=False),
    Scenario("reclaim-holds-ticket", reclaim_holds_ticket, lockstep=False),
    Scenario("gateway-session", session=gateway_session, lockstep=False),
    Scenario("gateway-door-churn", session=gateway_door_churn, lockstep=False),
]


def _canonical(value: Any) -> Any:
    """A JSON-ready, representation-stable copy of a fingerprint."""
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, np.generic):
        return value.item()
    return value


def _sha256(value: Any) -> str:
    text = json.dumps(_canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def entry(replica_set: ReplicaSet, result: ReplicaSetResult) -> dict:
    """One run reduced to its corpus entry."""
    fields = fingerprint(result, replica_set)
    records = fields.pop("records")
    return {
        "jobs": len(records),
        "records_sha256": _sha256(records),
        "fleet_sha256": _sha256(fields),
        "events_processed": dict(sorted(result.events_processed.items())),
    }
