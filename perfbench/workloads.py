"""The benchmark's three workloads.

Each workload builds its inputs from a seed (``setup``), runs one phase
of the program (``run``), checks the outputs (``check``) and
fingerprints the simulated outcome (:attr:`Outcome.digest`).  The
program only ever sees the generated inputs; the seed stays here.

* ``offline-milp`` -- the paper's offline path: the two-stage MILP
  scheduler packs the Het setting of Section 6.1, then the streaming
  pipeline simulator prices the schedule on LLaMa-70B over 4 H100s.
* ``fleet-512`` -- the event-driven fleet kernel on a fixed 512-replica
  fleet: one-batch tenants from 16 length profiles (warm pricing),
  cost-aware routing, the seconds-skew rebalance probe, greedy packing.
* ``gateway-elastic`` -- the full stack: live gateway door ->
  autoscaled fleet -> knapsack packing -> cost-aware routing, under an
  open-loop steady / 10x burst / steady arrival schedule with deadlines.

Distsim and scheduler functions are called through their modules
(``systems.to_pipeline_microbatch``) so the traced run's wrappers see
the calls.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench.speed import clock as work_clock
from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.distsim import pipeline, systems
from repro.gpu import H100
from repro.models import LLAMA3_8B, LLAMA3_70B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, MultiLoRAScheduler, SchedulerConfig, bubble
from repro.serve import (
    CostAwareRouting,
    CostEstimator,
    GatewayOverload,
    JobOutcome,
    ManualClock,
    OrchestratorConfig,
    ReplicaSet,
    ReplicaSetConfig,
    ServeConfig,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)

__all__ = ["Outcome", "REPORT_UNITS", "WORKLOADS", "percentile"]

#: Units of the workload-specific figures the report prints.
REPORT_UNITS = {
    "tuning_ms_per_sample": "ms",
    "us_per_job": "us",
    "events_per_s": "1/s",
    "sim_mean_jct_s": "s",
    "sim_p99_jct_s": "s",
    "sim_bubble_ratio": "ratio",
    "dollars_per_job": "$",
    "failed_frac": "ratio",
    "microbatches": "count",
    "milp_wins": "count",
    "migrations": "count",
    "shed": "count",
    "rejected": "count",
    "joins": "count",
    "retires": "count",
}


@dataclass
class Outcome:
    """What one repeat of a workload produced.

    Attributes:
        items: Work items the repeat submitted (scheduled samples for
            ``offline-milp``, submitted jobs otherwise); the unit of
            ``us_per_item`` and of the result line's ``attempted``.
        timed_s: Wall seconds of the timed phase, less the speed
            probe's (see ``perfbench/speed.py``): ``schedule()`` for
            ``offline-milp``; first ``run``/``submit`` call to the
            drained result otherwise.
        phase_s: Wall seconds of everything the traced run attributes
            to layers (the timed phase plus, for ``offline-milp``, the
            pipeline simulation).
        values: Simulated outcome metrics; deterministic per seed.
        report: Workload-specific figures, printed in the report only.
        digest: Fingerprint of the simulated outcome.
        latencies: Per-call wall seconds (``gateway-elastic`` submits).
        result: The program's raw output, kept for ``check``.
    """

    items: int
    timed_s: float
    phase_s: float
    values: dict[str, float]
    report: dict[str, float]
    digest: str
    latencies: list[float] = field(default_factory=list)
    result: Any = None


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _digest(rows: object) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _record_rows(records: dict) -> list[tuple]:
    """Per-job lifecycle rows in adapter-id order (floats repr exactly)."""
    return [
        (
            aid,
            r.arrival_time,
            r.admit_time,
            r.first_scheduled_time,
            r.finish_time,
            r.rejected_time,
            r.replica,
            r.migrations,
            r.preemptions,
            r.num_batches,
        )
        for aid, r in sorted(records.items())
    ]


def _jct_report(records: dict) -> dict[str, float]:
    jcts = [r.completion_time for r in records.values() if r.finish_time is not None]
    return {
        "sim_mean_jct_s": float(np.mean(jcts)),
        "sim_p99_jct_s": percentile(jcts, 99),
    }


class OfflineMILP:
    """Two-stage MILP scheduling of the Het setting, then simulation."""

    name = "offline-milp"
    why = (
        "the paper's offline path, where the two-stage MILP does almost "
        "all the work (Fig. 21 tuning time, Fig. 14 tokens/s) and the "
        "serve layers do none"
    )
    #: Section 6.1's "Het" setting: one adapter per dataset.
    DATASETS = ("xsum", "cnn_dailymail", "wikisum", "mixed")
    CAPACITY = 8192
    NUM_STAGES = 4
    #: (samples per adapter, global batch size).  At gbs 4 every MILP
    #: instance (2 adapters x 4 samples) solves ~30x inside the 2.0 s
    #: limit, so the schedule never depends on machine speed; at gbs 8
    #: some seeds hit the limit and solve times vary 3x across seeds.
    #: 256 packing tasks keep the MILP share of them steady per seed.
    SIZES = {"full": (512, 4), "tiny": (8, 4)}

    def setup(self, seed: int, size: str) -> dict:
        samples, gbs = self.SIZES[size]
        jobs = [
            AdapterJob(a, synthetic_dataset(a, name, samples, seed=seed), gbs)
            for a, name in enumerate(self.DATASETS)
        ]
        return {
            "jobs": jobs,
            "config": SchedulerConfig(
                capacity=self.CAPACITY, num_stages=self.NUM_STAGES
            ),
            "cost": LayerCostModel(LLAMA3_70B, H100, strategy="fused_multi"),
        }

    def run(self, state: dict) -> Outcome:
        jobs, config, cost = state["jobs"], state["config"], state["cost"]
        start = work_clock()
        schedule = MultiLoRAScheduler(jobs, config).schedule()
        tuned = work_clock()
        stream = schedule.microbatches
        work = [
            systems.to_pipeline_microbatch(mb, cost, self.NUM_STAGES)
            for mb in stream
        ]
        sim = pipeline.simulate_stream(work, self.NUM_STAGES)
        end = work_clock()
        samples = sum(len(job.dataset) for job in jobs)
        tokens = sum(mb.real_tokens for mb in stream)
        real = sum(1 for mb in stream if not mb.is_noop)
        placed = Counter(
            (a.adapter_id, a.sample.index) for mb in stream for a in mb.assignments
        )
        rows = [
            [(a.adapter_id, a.sample.index, a.global_batch) for a in mb.assignments]
            for mb in stream
        ]
        return Outcome(
            items=samples,
            timed_s=tuned - start,
            phase_s=end - start,
            values={
                "sim_tokens_per_s": tokens / sim.makespan,
                "pack_efficiency": tokens / (config.capacity * real),
                "goodput_frac": sum(1 for c in placed.values() if c == 1) / samples,
            },
            report={
                "tuning_ms_per_sample": (tuned - start) * 1e3 / samples,
                "microbatches": float(len(stream)),
                "milp_wins": schedule.stats["milp_selected"],
                "sim_bubble_ratio": sim.bubble_ratio,
            },
            digest=_digest((rows, sim.makespan)),
            result=(schedule, work),
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        schedule, work = outcome.result
        stream = schedule.microbatches
        failures = []
        violations = bubble.find_violations(stream, self.NUM_STAGES)
        if violations:
            failures.append(f"{len(violations)} bubble-lemma violation(s)")
        expected = {
            (job.adapter_id, sample.index): sample.index // job.global_batch_size
            for job in state["jobs"]
            for sample in job.dataset.samples
        }
        placed = Counter(
            (a.adapter_id, a.sample.index) for mb in stream for a in mb.assignments
        )
        if placed.keys() != expected.keys() or any(c != 1 for c in placed.values()):
            failures.append("a sample is missing, duplicated or foreign")
        elif any(
            expected[(a.adapter_id, a.sample.index)] != a.global_batch
            for mb in stream
            for a in mb.assignments
        ):
            failures.append("a sample carries the wrong global-batch index")
        dataset_tokens = sum(job.dataset.total_tokens() for job in state["jobs"])
        if sum(mb.real_tokens for mb in stream) != dataset_tokens:
            failures.append("simulated tokens differ from the dataset tokens")
        if len(work) != len(stream):
            failures.append("the simulator was not given every microbatch")
        return failures


class Fleet512:
    """The event kernel on a fixed 512-replica fleet, warm pricing."""

    name = "fleet-512"
    why = (
        "the fleet kernel's per-event cost on a fixed fleet with warm "
        "pricing and greedy packing: kernel, router, orchestrator, "
        "executors and estimator, no MILP"
    )
    NUM_STAGES = 2
    CAPACITY = 8192
    SLOTS = 4
    #: Distinct sample lengths across the tenant population: shared
    #: lengths share a tenant profile, so the cost-model memos stay warm.
    NUM_PROFILES = 16
    #: Poisson arrivals per virtual second (keeps replicas backlogged).
    RATE = 400.0
    #: Seconds-skew rebalance trigger: keeps the probe on every event.
    MIGRATION_TIME_THRESHOLD = 30.0
    #: (one-batch jobs, replicas).
    SIZES = {"full": (3000, 512), "tiny": (64, 16)}

    def setup(self, seed: int, size: str) -> dict:
        num_jobs, num_replicas = self.SIZES[size]
        # One length per stratum of [64, 512), jittered and shuffled per
        # seed: the inputs differ by seed, their mean length barely does.
        rng = np.random.default_rng([seed, 0])
        width = (512 - 64) // self.NUM_PROFILES
        pool = rng.permutation(
            64 + width * np.arange(self.NUM_PROFILES)
            + rng.integers(0, width, size=self.NUM_PROFILES)
        )
        jobs = [
            AdapterJob(
                a,
                FinetuneDataset(
                    a, [Sample(a, 0, int(pool[a % self.NUM_PROFILES]))]
                ),
                1,
            )
            for a in range(num_jobs)
        ]
        workload = poisson_workload(
            jobs, rate=self.RATE, rng=np.random.default_rng([seed, 1])
        )
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        scheduler = SchedulerConfig(
            capacity=self.CAPACITY, num_stages=self.NUM_STAGES, use_milp=False
        )
        estimator = CostEstimator.for_scheduler(cost, scheduler)
        config = ReplicaSetConfig(
            orchestrator=OrchestratorConfig(
                scheduler=scheduler,
                window_batches=1,
                admission=SlotAdmission(self.SLOTS),
                estimator=estimator,
            ),
            routing=CostAwareRouting(estimator),
            migration_time_threshold=self.MIGRATION_TIME_THRESHOLD,
        )
        executors = [
            StreamingSimExecutor(cost, self.NUM_STAGES) for _ in range(num_replicas)
        ]
        return {"workload": workload, "fleet": ReplicaSet(executors, config)}

    def run(self, state: dict) -> Outcome:
        workload = state["workload"]
        start = work_clock()
        result = state["fleet"].run(workload)
        elapsed = work_clock() - start
        submitted = len(workload)
        finished = sum(
            1 for r in result.records.values() if r.outcome is JobOutcome.FINISHED
        )
        return Outcome(
            items=submitted,
            timed_s=elapsed,
            phase_s=elapsed,
            values={
                "sim_tokens_per_s": result.tokens_per_time(),
                "pack_efficiency": result.pack_efficiency(),
                "goodput_frac": finished / submitted,
            },
            report={
                "us_per_job": elapsed * 1e6 / submitted,
                "events_per_s": sum(result.events_processed.values()) / elapsed,
                **_jct_report(result.records),
                "failed_frac": (submitted - finished) / submitted,
                "migrations": float(result.migrations),
            },
            digest=_digest(_record_rows(result.records)),
            result=result,
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        result = outcome.result
        ids = {job.adapter_id for job in state["workload"]}
        failures = []
        if set(result.records) != ids:
            failures.append("the fleet's records do not name every submitted job")
        unfinished = sum(
            1 for r in result.records.values() if r.outcome is not JobOutcome.FINISHED
        )
        if unfinished:
            failures.append(f"{unfinished} job(s) never finished")
        held = sum(len(replica.records) for replica in result.replicas)
        if held != len(ids):
            failures.append(f"{held} replica records for {len(ids)} jobs")
        if result.violations:
            failures.append(f"{result.violations} bubble-lemma violation(s)")
        return failures


class GatewayElastic:
    """Gateway door -> autoscaled fleet -> knapsack packing -> cost routing."""

    name = "gateway-elastic"
    why = (
        "the full stack under an open-loop steady/10x-burst/steady load: "
        "door checks, autoscaler, admission and ordering, knapsack "
        "packing, cold pricing of distinct lengths"
    )
    NUM_STAGES = 2
    CAPACITY = 8192
    TENANTS = ("acme", "globex", "initech", "umbrella")
    #: Median sample length per tenant; lengths are lognormal around it.
    TENANT_MEDIANS = (64.0, 128.0, 256.0, 512.0)
    LENGTH_SIGMA = 0.6
    #: Jobs are BATCHES global batches of GBS samples.
    GBS = 4
    BATCHES = 2
    #: Per-tenant token-bucket refill (virtual submits/s) and burst.
    GATE_RATE = 20.0
    GATE_BURST = 8.0
    #: Steady offered load: half the aggregate bucket rate.
    STEADY_RATE = 0.5 * GATE_RATE * len(TENANTS)
    BURST_FACTOR = 10.0
    #: Deadline = submit stamp + uniform(*DEADLINE_SLACK) virtual seconds.
    DEADLINE_SLACK = (1.0, 6.0)
    CONFIG = ServeConfig(
        num_replicas=2,
        routing="cost_aware",
        ordering="srpt",
        aging_rate=0.5,
        slots=4,
        deadline_gate=True,
        window_batches=1,
        migration_time_threshold=0.5,
        autoscale_budget=48.0,
        packing="knapsack",
        gateway_rate=GATE_RATE,
        gateway_burst=GATE_BURST,
        gateway_queue_bound=32,
        gateway_fairness=0.4,
        gateway_hold=0.02,
    )
    #: Submits per phase: steady, burst, steady.  1,500 submits leave 15
    #: latency samples beyond the p99.
    SIZES = {"full": (600, 300, 600), "tiny": (16, 16, 16)}

    def setup(self, seed: int, size: str) -> dict:
        phases = self.SIZES[size]
        total = sum(phases)
        rng = np.random.default_rng(seed)
        tenants = [a % len(self.TENANTS) for a in range(total)]
        medians = np.asarray([self.TENANT_MEDIANS[t] for t in tenants])
        spread = rng.lognormal(
            0.0, self.LENGTH_SIGMA, size=(total, self.GBS * self.BATCHES)
        )
        lengths = np.clip(np.rint(medians[:, None] * spread), 16, 4096).astype(int)
        jobs = [
            AdapterJob(
                a,
                FinetuneDataset(
                    a, [Sample(a, i, int(n)) for i, n in enumerate(lengths[a])]
                ),
                self.GBS,
            )
            for a in range(total)
        ]
        rates = (
            self.STEADY_RATE,
            self.STEADY_RATE * self.BURST_FACTOR,
            self.STEADY_RATE,
        )
        gaps = np.concatenate(
            [rng.exponential(1.0 / rate, size=n) for rate, n in zip(rates, phases)]
        )
        deadlines = np.cumsum(gaps) + rng.uniform(*self.DEADLINE_SLACK, size=total)
        cost = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
        scheduler = SchedulerConfig(
            capacity=self.CAPACITY, num_stages=self.NUM_STAGES, use_milp=False
        )
        clock = ManualClock()
        return {
            "arrivals": list(
                zip(
                    jobs,
                    [self.TENANTS[t] for t in tenants],
                    gaps.tolist(),
                    deadlines.tolist(),
                )
            ),
            "clock": clock,
            "gateway": self.CONFIG.build_gateway(cost, scheduler, clock=clock),
        }

    def run(self, state: dict) -> Outcome:
        gateway, clock, arrivals = state["gateway"], state["clock"], state["arrivals"]

        async def drive() -> tuple[Any, list, list[float], float]:
            outcomes: list = []
            latencies: list[float] = []
            start = work_clock()
            for job, tenant, gap, deadline in arrivals:
                clock.advance(gap)
                sent = work_clock()
                outcome = await gateway.submit(job, tenant=tenant, deadline=deadline)
                latencies.append(work_clock() - sent)
                outcomes.append(outcome)
            result = await gateway.drain()
            return result, outcomes, latencies, work_clock() - start

        result, outcomes, latencies, elapsed = asyncio.run(drive())
        fleet = result.fleet
        submitted = len(arrivals)
        finished = [
            r for r in fleet.records.values() if r.outcome is JobOutcome.FINISHED
        ]
        on_time = sum(1 for r in finished if not r.deadline_missed)
        door = [
            (o.adapter_id, o.reason if isinstance(o, GatewayOverload) else "accepted")
            for o in outcomes
        ]
        return Outcome(
            items=submitted,
            timed_s=elapsed,
            phase_s=elapsed,
            values={
                "sim_tokens_per_s": fleet.tokens_per_time(),
                "pack_efficiency": fleet.pack_efficiency(),
                "goodput_frac": on_time / submitted,
            },
            report={
                "us_per_job": elapsed * 1e6 / submitted,
                **_jct_report(fleet.records),
                "dollars_per_job": fleet.dollars_spent / max(1, len(finished)),
                "failed_frac": (submitted - len(finished)) / submitted,
                "shed": float(result.stats.shed_total()),
                "rejected": float(fleet.rejected),
                "joins": float(fleet.joins),
                "retires": float(fleet.retires),
                "migrations": float(fleet.migrations),
            },
            digest=_digest((door, _record_rows(fleet.records))),
            latencies=latencies,
            result=(result, outcomes, gateway.recorded_trace()),
        )

    def check(self, state: dict, outcome: Outcome) -> list[str]:
        result, outcomes, trace = outcome.result
        stats, fleet = result.stats, result.fleet
        failures = []
        if stats.submitted != len(state["arrivals"]):
            failures.append(
                f"{stats.submitted} submits for {len(state['arrivals'])} jobs"
            )
        if stats.submitted != stats.accepted + stats.shed_total():
            failures.append("submitted != accepted + shed")
        if stats.accepted != stats.released + stats.cancelled:
            failures.append("accepted != released + cancelled")
        released = {job.adapter_id for job in trace}
        if len(released) != stats.released:
            failures.append("the recorded trace disagrees with the release count")
        lost = sum(
            1
            for aid in released
            if aid not in fleet.records
            or fleet.records[aid].outcome
            not in (JobOutcome.FINISHED, JobOutcome.REJECTED)
        )
        if lost:
            failures.append(f"{lost} released job(s) lost")
        refused = sum(1 for o in outcomes if isinstance(o, GatewayOverload))
        if refused != stats.shed_total():
            failures.append(
                f"callers saw {refused} refusals, the ledger {stats.shed_total()}"
            )
        if fleet.violations:
            failures.append(f"{fleet.violations} bubble-lemma violation(s)")
        return failures


WORKLOADS = {w.name: w for w in (OfflineMILP(), Fleet512(), GatewayElastic())}
