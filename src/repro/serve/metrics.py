"""Serving metrics: per-job latency records and the run-level result.

Online systems are judged on latency distributions, not just makespan:
how long a job queued for an adapter slot, how long until its first
microbatch ran, and its job completion time (JCT).  The orchestrator
fills one :class:`JobRecord` per job and aggregates them, together with
stream-level utilization counters, into an :class:`OrchestratorResult`.

With SLO-aware ordering (:mod:`repro.serve.ordering`) the records also
carry each job's priority class, deadline, and preemption count, and the
aggregates slice by class: per-class JCT and queueing, total
preemptions, and the deadline-miss rate.

With a cost estimator (:mod:`repro.serve.costing`) two more signals
appear.  Deadline-feasibility admission can *reject* a doomed arrival --
a distinct terminal state (:attr:`JobRecord.outcome` =
:attr:`~repro.serve.jobs.JobOutcome.REJECTED`), counted separately from
misses so shedding is visible, not laundered into better-looking
latency.  And every planning wave records an estimate-vs-actual pair
(:attr:`OrchestratorResult.wave_estimates`), making the estimator's
calibration a first-class, gateable metric
(:meth:`OrchestratorResult.calibration_ratio`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ScheduleError
from repro.serve.jobs import JobOutcome

__all__ = ["GatewayStats", "JobRecord", "OrchestratorResult", "ReplicaSetResult"]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 on an empty list).

    Deterministic and interpolation-free -- the convention latency
    dashboards use, chosen here so committed benchmark tables are
    byte-stable across numpy versions.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ScheduleError("a percentile rank must lie in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class GatewayStats:
    """Ingress-side ledger of one live gateway session.

    Counts every door decision the
    :class:`~repro.serve.gateway.ServeGateway` made, so overload
    shedding is auditable instead of silent.  The conservation identity
    -- ``submitted == accepted + shed_total()`` and ``accepted ==
    released + cancelled`` once the session is drained -- is asserted by
    ``tests/serve/test_gateway.py`` and gated (together with "zero
    admitted jobs lost") by ``benchmarks/bench_gateway.py``.

    Attributes:
        submitted: Submissions that reached the gateway door.
        accepted: Submissions that passed every door check (rate,
            quota, queue bound, deadline feasibility).
        released: Accepted submissions handed to the fleet (every
            accepted job is released unless cancelled first).
        cancelled: Accepted submissions cancelled inside their ingress
            hold window, before release.
        sheds: Refusals by reason (the
            :data:`~repro.serve.gateway.SHED_REASONS` taxonomy); the
            backpressure ledger.
        admission_latencies: Wall-clock seconds the gateway spent
            deciding each submission (accepted or shed) -- the real
            ingress overhead, not virtual time.
    """

    submitted: int = 0
    accepted: int = 0
    released: int = 0
    cancelled: int = 0
    sheds: dict[str, int] = field(default_factory=dict)
    admission_latencies: list[float] = field(default_factory=list)

    def shed_total(self) -> int:
        """Refused submissions across all reasons."""
        return sum(self.sheds.values())

    def admission_latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the admission latencies, seconds."""
        return _percentile(self.admission_latencies, q)

    def admission_latency_percentiles(self) -> dict[str, float]:
        """The dashboard trio -- p50 / p90 / p99 -- in seconds."""
        return {
            "p50": self.admission_latency_percentile(50.0),
            "p90": self.admission_latency_percentile(90.0),
            "p99": self.admission_latency_percentile(99.0),
        }


@dataclass
class JobRecord:
    """Lifecycle timestamps and totals of one served job.

    All times are in the executor's virtual clock units.

    Attributes:
        adapter_id: The job.
        arrival_time: When the job became known.
        admit_time: When it first received an adapter slot (preemption
            and resumption do not move it).
        first_scheduled_time: Clock before its first microbatch ran.
        finish_time: When its last optimizer step completed.
        num_batches: Optimizer steps the job takes.
        total_tokens: Real (unpadded) tokens across its dataset.
        replica: Replica currently (or finally) serving the job, when a
            :class:`~repro.serve.replicaset.ReplicaSet` routed it
            (``None`` on a single pipeline).
        migrations: Times the job moved between replicas mid-training.
        priority: SLO class the job arrived with (larger = more urgent).
        deadline: Virtual time the job should have finished by
            (``None`` = no deadline).
        preemptions: Times an ordering policy evicted the job from its
            adapter slot mid-training (each one lossless).
        rejected_time: Virtual time deadline-feasibility admission shed
            the job (``None`` = never rejected).  Rejection is terminal:
            the job was never admitted and never trains.
    """

    adapter_id: int
    arrival_time: float
    admit_time: float | None = None
    first_scheduled_time: float | None = None
    finish_time: float | None = None
    num_batches: int = 0
    total_tokens: int = 0
    replica: int | None = None
    migrations: int = 0
    priority: int = 0
    deadline: float | None = None
    preemptions: int = 0
    rejected_time: float | None = None

    @property
    def outcome(self) -> JobOutcome:
        """The job's terminal (or so-far) state."""
        if self.rejected_time is not None:
            return JobOutcome.REJECTED
        if self.finish_time is not None:
            return JobOutcome.FINISHED
        return JobOutcome.UNFINISHED

    @property
    def queueing_delay(self) -> float | None:
        """Time spent waiting for an adapter slot."""
        if self.admit_time is None:
            return None
        return self.admit_time - self.arrival_time

    @property
    def completion_time(self) -> float | None:
        """Job completion time (arrival to last optimizer step)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def deadline_missed(self) -> bool | None:
        """Whether the job blew its deadline (``None`` without one).

        A job that never finished counts as a miss: by the time a result
        exists the session is over, so "not finished" is "not finished
        by the deadline" a fortiori.
        """
        if self.deadline is None:
            return None
        if self.finish_time is None:
            return True
        return self.finish_time > self.deadline


class _LatencyAggregates:
    """Latency/throughput/calibration views over shared result state
    (one definition for the single-pipeline and fleet results, so the
    two can never diverge).  Subclasses supply ``records``,
    :meth:`_wave_pairs` and the stream totals ``makespan``,
    ``total_tokens``, ``total_padded_tokens``, ``total_microbatches``
    and ``noop_microbatches`` (a fleet sums them over its replicas, so
    its ratios are the merged-stream ones)."""

    records: dict[int, JobRecord]

    if TYPE_CHECKING:
        # Read-only here, so a subclass may supply a field or a property.
        @property
        def makespan(self) -> float: ...

        @property
        def total_tokens(self) -> int: ...

        @property
        def total_padded_tokens(self) -> int: ...

        @property
        def total_microbatches(self) -> int: ...

        @property
        def noop_microbatches(self) -> int: ...

    def tokens_per_time(self) -> float:
        """Trained real tokens per unit of virtual time."""
        makespan = self.makespan
        return self.total_tokens / makespan if makespan else 0.0

    def padding_waste(self) -> float:
        """Fraction of computed tokens that were padding.

        ``1 - total_tokens / total_padded_tokens`` -- the serving-layer
        counterpart of :func:`repro.data.packing.padding_waste`, over
        the whole spliced stream.  For a fleet this weights each
        replica by the padded tokens it computed, the same as
        recomputing on the merged stream (``tests/serve/test_metrics.py``
        asserts the identity).  0.0 when nothing was computed.
        """
        padded = self.total_padded_tokens
        if not padded:
            return 0.0
        return 1.0 - self.total_tokens / padded

    def bubble_rate(self) -> float:
        """Fraction of submitted microbatch slots that were no-ops.

        No-ops are the pipeline bubbles the bubble lemma and splice
        junctions insert; fewer means tighter waves.  For a fleet this
        weights each replica by its slot count.  0.0 when no slot was
        submitted.
        """
        total = self.total_microbatches
        if not total:
            return 0.0
        return self.noop_microbatches / total

    def _wave_pairs(self) -> list[tuple[float, float]]:
        """The per-wave ``(predicted, observed)`` pairs this result
        aggregates (every replica's, for a fleet)."""
        return []

    def calibration_ratio(self) -> float | None:
        """Predicted over observed wave seconds, summed across waves.

        1.0 is a perfectly honest estimator; ``None`` without an
        estimator (or when no wave consumed observable time).  The
        documented bounds:
        :data:`repro.serve.costing.CALIBRATION_TOLERANCE` for a priori
        runs, the tightened
        :data:`repro.serve.costing.CORRECTED_CALIBRATION_TOLERANCE`
        once a :class:`~repro.serve.costing.CalibrationTracker` feeds
        corrections back.
        """
        pairs = self._wave_pairs()
        predicted = sum(p for p, _ in pairs)
        observed = sum(o for _, o in pairs)
        if not observed:
            return None
        return predicted / observed

    def calibration_error(self) -> float | None:
        """``|log(calibration_ratio)|`` -- 0.0 is perfect, symmetric."""
        ratio = self.calibration_ratio()
        if ratio is None or ratio <= 0:
            return None
        return abs(math.log(ratio))

    def mean_wave_calibration_error(self) -> float | None:
        """Mean per-wave ``|log(predicted/observed)|`` (0.0 is perfect).

        The run-level :meth:`calibration_ratio` sums before dividing, so
        over- and under-predicted waves can cancel; this view charges
        every wave its own log error, making wave-to-wave drift visible
        even when the totals happen to balance.  ``None`` when no wave
        recorded a usable pair.
        """
        errors = [
            abs(math.log(p / o))
            for p, o in self._wave_pairs()
            if p > 0 and o > 0
        ]
        if not errors:
            return None
        return sum(errors) / len(errors)

    def _class_records(self, priority: int | None) -> list[JobRecord]:
        return [
            r
            for r in self.records.values()
            if priority is None or r.priority == priority
        ]

    def mean_completion_time(self, priority: int | None = None) -> float:
        """Mean JCT across finished jobs (optionally one SLO class)."""
        times = [
            r.completion_time
            for r in self._class_records(priority)
            if r.completion_time is not None
        ]
        return sum(times) / len(times) if times else 0.0

    def mean_queueing_delay(self, priority: int | None = None) -> float:
        """Mean slot-wait across admitted jobs (optionally one class)."""
        delays = [
            r.queueing_delay
            for r in self._class_records(priority)
            if r.queueing_delay is not None
        ]
        return sum(delays) / len(delays) if delays else 0.0

    def priority_classes(self) -> list[int]:
        """The SLO classes present, most urgent (largest) first."""
        return sorted({r.priority for r in self.records.values()}, reverse=True)

    def jct_by_class(self) -> dict[int, float]:
        """Mean JCT per priority class, most urgent first."""
        return {cls: self.mean_completion_time(cls) for cls in self.priority_classes()}

    def rejections(self) -> int:
        """Arrivals shed by deadline-feasibility admission (terminal)."""
        rejected = JobOutcome.REJECTED
        return sum(1 for r in self.records.values() if r.outcome is rejected)

    def deadline_misses(self) -> int:
        """Deadline-carrying jobs that finished late (or not at all).

        A rejected job counts: it carries a deadline it will never meet.
        Use :meth:`served_deadline_miss_rate` for the served-only view.
        """
        return sum(1 for r in self.records.values() if r.deadline_missed is True)

    def deadline_miss_rate(self) -> float:
        """Missed fraction among deadline-carrying jobs (0.0 with none)."""
        carrying = [r for r in self.records.values() if r.deadline is not None]
        if not carrying:
            return 0.0
        return self.deadline_misses() / len(carrying)

    def served_deadline_miss_rate(self) -> float:
        """Missed fraction among deadline-carrying jobs actually served.

        Excludes rejected arrivals: shedding a doomed job is a refusal,
        not a miss, and the operator promise behind feasibility gating
        is that the jobs we *do* serve meet their deadlines.  Compare
        with :meth:`deadline_miss_rate` (which charges rejections) to
        see both sides of the trade.
        """
        served = [
            r
            for r in self.records.values()
            if r.deadline is not None and r.outcome is not JobOutcome.REJECTED
        ]
        if not served:
            return 0.0
        misses = sum(1 for r in served if r.deadline_missed is True)
        return misses / len(served)

    def deadline_goodput(self) -> int:
        """Deadline-carrying jobs that finished on time."""
        return sum(
            1
            for r in self.records.values()
            if r.deadline is not None and r.deadline_missed is False
        )


@dataclass
class OrchestratorResult(_LatencyAggregates):
    """Outcome of one online serving run.

    Attributes:
        records: Per-job lifecycle records, keyed by adapter id.
        makespan: Virtual time from 0 to the last completed work.
        total_tokens: Real tokens trained across all jobs.
        total_padded_tokens: Tokens actually computed across the stream
            (per-adapter padding to the tile granule included) -- the
            denominator of :meth:`padding_waste`.
        capacity: Microbatch token capacity the stream was packed
            against (0 when no wave ran) -- the per-slot budget
            :meth:`pack_efficiency` normalizes by.
        total_microbatches: Microbatch slots submitted (incl. no-ops).
        noop_microbatches: No-op slots (scheduler spacing + splice
            junctions).
        replans: Scheduler planning waves executed.
        splice_noops: No-ops inserted at window junctions specifically.
        utilization: Busy fraction reported by the executor (pipeline
            executors) or the real-token fill fraction (numeric).
        violations: Bubble-lemma violations found on the full spliced
            stream -- always 0 for a correct run; recorded so benchmarks
            and tests can assert it.
        preemptions: Slot evictions the ordering policy performed.
        wave_cuts: Planning waves cut short by mid-wave admission (an
            urgent arrival triggered early replanning).
        rejected: Arrivals shed by deadline-feasibility admission.
        wave_estimates: Per-wave ``(predicted, observed)`` execution
            seconds when the orchestrator carries a
            :class:`~repro.serve.costing.CostEstimator` (empty without
            one).  Predicted is the a priori, length-distribution-based
            estimate that routing/admission decisions actually used;
            observed is the executor clock the wave consumed (idle
            fast-forwards excluded), so the pair measures decision
            honesty, not hindsight.
        stats: Free-form counters (per-wave scheduler stats sums etc.).
    """

    records: dict[int, JobRecord] = field(default_factory=dict)
    makespan: float = 0.0
    total_tokens: int = 0
    total_padded_tokens: int = 0
    capacity: int = 0
    total_microbatches: int = 0
    noop_microbatches: int = 0
    replans: int = 0
    splice_noops: int = 0
    utilization: float = 0.0
    violations: int = 0
    preemptions: int = 0
    wave_cuts: int = 0
    rejected: int = 0
    wave_estimates: list[tuple[float, float]] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def pack_efficiency(self) -> float:
        """Real tokens per unit of non-noop slot capacity.

        ``total_tokens / (capacity * real slots)`` -- how full the bin
        packer kept the microbatches it emitted (1.0 = every real slot
        packed to capacity with zero padding).  Complements
        :meth:`padding_waste` (which charges only padding) by also
        charging capacity left unfilled.  0.0 when no real slot ran.
        """
        real_slots = self.total_microbatches - self.noop_microbatches
        if not self.capacity or real_slots <= 0:
            return 0.0
        return self.total_tokens / (self.capacity * real_slots)

    def _wave_pairs(self) -> list[tuple[float, float]]:
        return self.wave_estimates


@dataclass
class ReplicaSetResult(_LatencyAggregates):
    """Outcome of one multi-replica serving run.

    Per-replica :class:`OrchestratorResult` objects stay available for
    drill-down; the aggregate views below are defined so they equal the
    corresponding per-replica sums (tokens, microbatches) or duration- /
    count-weighted means (utilization, latency) -- the identities
    ``tests/serve/test_replicaset.py`` asserts.

    Attributes:
        replicas: Per-replica results, in replica-index order.  A job
            appears in exactly one replica's records: the one serving it
            when it finished (migrations move the record).
        records: All jobs' lifecycle records merged across replicas.
        migrations: Active jobs moved between replicas (state transfers).
        reroutes: Pending jobs moved between replicas (queue moves only).
        rebalance_drains: Pipeline drains the rebalancer paid to bring
            a deep pipeline's active jobs to step boundaries
            (``drain_then_migrate``); each one bought the chance to
            migrate, at the price of drain bubbles.
        drain_steps_saved: Optimizer steps the *partial* drains among
            those left un-forced: scheduled-but-unstepped batches still
            in flight after each
            :meth:`~repro.serve.orchestrator.OnlineOrchestrator.drain_for`,
            i.e. work a full flush would have dragged to completion
            early.  0 when every drain fell back to a full flush.
        events_processed: Events the discrete-event fleet loop
            processed, by :class:`~repro.serve.events.EventKind` name
            -- the numerator of the events/sec throughput
            ``benchmarks/bench_fleet_kernel.py`` gates.
        joins: Replicas the autoscaler added mid-run (scale-up landings).
        retires: Replicas that left the fleet mid-run, gracefully or by
            reclamation.
        reclaims: Replicas a spot :class:`~repro.serve.autoscaler.ReclamationNotice`
            took back (a subset of ``retires``).
        forced_evacuations: Reclaimed replicas that still held jobs when
            their grace deadline expired and had to be force-drained --
            0 means every reclaim evacuated within its window.
        reclaim_latencies: Seconds from each reclamation notice to that
            replica's last job leaving it, one entry per reclaimed
            replica (the evacuation-latency distribution the autoscale
            bench reports).
        replica_intervals: Each replica's active ``(joined, left)``
            virtual-time interval, in replica-index order.  Populated
            only by autoscaled runs; empty means every replica lived
            the whole run and the aggregates below fall back to
            makespan weighting.
        gpu_seconds: GPU-time bought, summed over replica active
            intervals (a replica is billed from its buy decision to its
            retirement, idle or not).
        dollars_spent: ``gpu_seconds`` priced at each replica's
            $/GPU-hour pool rate.
        gateway: The ingress ledger (:class:`GatewayStats`) when the run
            was served through the live gateway
            (:class:`~repro.serve.gateway.ServeGateway`), folding
            admission-latency percentiles and shed counts into the fleet
            result; ``None`` for sim runs.
    """

    replicas: list[OrchestratorResult] = field(default_factory=list)
    records: dict[int, JobRecord] = field(default_factory=dict)
    migrations: int = 0
    reroutes: int = 0
    rebalance_drains: int = 0
    drain_steps_saved: int = 0
    events_processed: dict[str, int] = field(default_factory=dict)
    joins: int = 0
    retires: int = 0
    reclaims: int = 0
    forced_evacuations: int = 0
    reclaim_latencies: list[float] = field(default_factory=list)
    replica_intervals: list[tuple[float, float]] = field(default_factory=list)
    gpu_seconds: float = 0.0
    dollars_spent: float = 0.0
    gateway: GatewayStats | None = None

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ScheduleError("a replica-set result needs >= 1 replica")
        if self.replica_intervals and len(self.replica_intervals) != len(
            self.replicas
        ):
            raise ScheduleError(
                "replica_intervals must be empty or name every replica"
            )

    def _interval_weights(self) -> list[float]:
        """Each replica's aggregation weight: active span, else makespan.

        The fix for elastic fleets: a replica that joined at t=200 of a
        300-second run must weight fleet means by its 100 active
        seconds, not by a full-run makespan it never served.  Fixed
        fleets (no intervals recorded) keep the original
        makespan weighting, so the legacy identities hold unchanged.
        """
        if self.replica_intervals:
            return [end - start for start, end in self.replica_intervals]
        return [r.makespan for r in self.replicas]

    @property
    def num_replicas(self) -> int:
        """Pipeline replicas that served the run."""
        return len(self.replicas)

    @property
    def makespan(self) -> float:
        """Virtual time until the last replica finished its last work."""
        return max(r.makespan for r in self.replicas)

    @property
    def total_tokens(self) -> int:
        """Real tokens trained, summed over replicas."""
        return sum(r.total_tokens for r in self.replicas)

    @property
    def total_padded_tokens(self) -> int:
        """Computed tokens (padding included), summed over replicas."""
        return sum(r.total_padded_tokens for r in self.replicas)

    @property
    def total_microbatches(self) -> int:
        """Microbatch slots submitted across replicas (incl. no-ops)."""
        return sum(r.total_microbatches for r in self.replicas)

    @property
    def noop_microbatches(self) -> int:
        """No-op slots across replicas."""
        return sum(r.noop_microbatches for r in self.replicas)

    def pack_efficiency(self) -> float:
        """Fleet pack efficiency, weighted by non-noop slot capacity.

        ``sum(tokens) / sum(capacity_i * real slots_i)`` -- replicas may
        in principle run different capacities, so each one's budget is
        priced per replica; with a uniform capacity this reduces to the
        merged-stream :meth:`OrchestratorResult.pack_efficiency`.  0.0
        when no real slot ran anywhere.
        """
        budget = sum(
            r.capacity * (r.total_microbatches - r.noop_microbatches)
            for r in self.replicas
        )
        if budget <= 0:
            return 0.0
        return self.total_tokens / budget

    @property
    def violations(self) -> int:
        """Bubble-lemma violations across all replica streams (0 = correct)."""
        return sum(r.violations for r in self.replicas)

    @property
    def preemptions(self) -> int:
        """Slot evictions across all replicas."""
        return sum(r.preemptions for r in self.replicas)

    @property
    def rejected(self) -> int:
        """Deadline-infeasible arrivals shed across all replicas."""
        return sum(r.rejected for r in self.replicas)

    @property
    def replans(self) -> int:
        """Scheduler planning waves executed across all replicas."""
        return sum(r.replans for r in self.replicas)

    def _wave_pairs(self) -> list[tuple[float, float]]:
        # Every replica's waves pooled, so the fleet calibration views
        # are wave-weighted exactly like the single-pipeline ones.
        return [pair for r in self.replicas for pair in r.wave_estimates]

    def utilization(self) -> float:
        """Busy fraction of the fleet, weighted by each replica's lifetime.

        The numerator is always true busy seconds
        (``util_i * makespan_i`` -- each replica's utilization is
        busy/clock, so the product recovers the busy time).  The
        denominator is each replica's *active interval* when the run
        recorded them (elastic fleets: a mid-run joiner is only on the
        hook for the span it was actually in the fleet), else its
        makespan -- the fixed-fleet identity
        ``sum(util_i * makespan_i) / sum(makespan_i)`` the replica-set
        tests assert.
        """
        weighted = sum(r.utilization * r.makespan for r in self.replicas)
        total = sum(self._interval_weights())
        return weighted / total if total else 0.0

    def mean_reclaim_latency(self) -> float | None:
        """Mean seconds from reclamation notice to empty replica.

        ``None`` when the run reclaimed nothing.
        """
        if not self.reclaim_latencies:
            return None
        return sum(self.reclaim_latencies) / len(self.reclaim_latencies)

    def jobs_per_time(self) -> float:
        """Finished jobs per unit of virtual time (job throughput)."""
        finished = sum(1 for r in self.records.values() if r.finish_time is not None)
        return finished / self.makespan if self.makespan else 0.0
