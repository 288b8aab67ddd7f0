"""Admission control: how many adapters may train concurrently -- and
whether an arrival should be admitted at all.

Every live adapter costs optimizer/accumulator state on the training
devices (Section 2.1's ``32r(n+k)``-byte model states, times the 16-byte
mixed-precision multiplier), so an online orchestrator must bound the
number of concurrently-admitted jobs.  :class:`SlotAdmission` takes an
explicit slot count; :class:`MemoryAdmission` derives it from the
:mod:`repro.distsim.memory` model -- the largest adapter count whose peak
memory estimate still fits the device with the pipeline's worst-case
tokens in flight.

:class:`DeadlineFeasibilityAdmission` adds the *whether* dimension: EDF
orders the queue but never refuses, so an arrival whose deadline is
already infeasible still takes a slot and burns pipeline time on work
that cannot succeed.  The gate compares each due deadline-carrying
candidate's expected remaining service time (priced by the
orchestrator's :class:`~repro.serve.costing.CostEstimator`) against its
time-to-deadline and sheds the doomed ones into the distinct
``rejected`` terminal state (:class:`~repro.serve.jobs.JobOutcome`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.distsim.memory import estimate_memory, fits_on_gpu
from repro.errors import ScheduleError, require_finite
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.serve.ordering import JobView

if TYPE_CHECKING:
    from repro.serve.costing import CostEstimator, TenantProfile
    from repro.serve.jobs import ServeJob

__all__ = [
    "AdmissionPolicy",
    "SlotAdmission",
    "MemoryAdmission",
    "DeadlineFeasibilityAdmission",
]

#: Upper bound on the adapter-slot search (beyond this, adapter states are
#: never the binding constraint in practice).
_MAX_SLOTS = 256


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides how many jobs may hold adapter slots at once."""

    def max_concurrent(self) -> int:
        """The adapter-slot budget (must be at least 1)."""


@dataclass(frozen=True)
class SlotAdmission:
    """A fixed adapter-slot budget.

    Attributes:
        slots: Maximum concurrently-admitted jobs.
    """

    slots: int

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ScheduleError("admission needs at least one adapter slot")

    def max_concurrent(self) -> int:
        return self.slots

    def interleave_key(
        self,
        candidate: "TenantProfile",
        live: "Sequence[TenantProfile]",
        estimator: "CostEstimator",
    ) -> float:
        """How poorly ``candidate``'s lengths interleave with the live set.

        The knapsack-admission tie-breaker: the predicted post-pack
        waste (:meth:`~repro.serve.costing.CostEstimator
        .pack_fragmentation`) of the live profiles *with the candidate
        added*.  Lower is better -- among candidates an
        :class:`~repro.serve.ordering.OrderingPolicy` ranks equal, the
        orchestrator admits the one whose length distribution fills the
        co-resident set's bins tightest.  Deterministic (a pure function
        of frozen profiles), so admission order stays replayable.
        """
        return estimator.pack_fragmentation((*live, candidate))


@dataclass(frozen=True)
class MemoryAdmission:
    """Adapter slots derived from the GPU memory model.

    Attributes:
        model: Architecture being fine-tuned.
        gpu: Device the stages run on.
        capacity: Microbatch token budget (one microbatch in flight per
            stage under 1F1B, so stage 0 holds ``capacity * num_stages``
            activation tokens at peak).
        num_stages: Pipeline depth.
        lora_rank: Adapter rank (sizes the per-adapter states).
        dtype: Training dtype.
        saving: Activation recompute regime.
    """

    model: ModelConfig
    gpu: GPUSpec
    capacity: int
    num_stages: int = 1
    lora_rank: int = 16
    dtype: str = "bf16"
    saving: str = "selective"

    def fits(self, num_adapters: int) -> bool:
        """Whether ``num_adapters`` concurrent adapters fit the device."""
        estimate = estimate_memory(
            self.model,
            self.gpu,
            tokens_in_flight=self.capacity * self.num_stages,
            num_stages=self.num_stages,
            lora_rank=self.lora_rank,
            num_adapters=num_adapters,
            dtype=self.dtype,
            saving=self.saving,
        )
        return fits_on_gpu(estimate, self.gpu)

    def max_concurrent(self) -> int:
        """Largest adapter count that fits (memory is monotone in it).

        Raises:
            ScheduleError: When even a single adapter does not fit -- the
                configuration cannot serve this model at all.
        """
        if not self.fits(1):
            raise ScheduleError(
                f"{self.model.name} with capacity {self.capacity} and "
                f"{self.num_stages} stage(s) does not fit a single adapter "
                f"on {self.gpu.name}; shard further or shrink the capacity"
            )
        lo, hi = 1, _MAX_SLOTS
        if self.fits(hi):
            return hi
        while hi - lo > 1:  # invariant: fits(lo), not fits(hi)
            mid = (lo + hi) // 2
            if self.fits(mid):
                lo = mid
            else:
                hi = mid
        return lo


@dataclass(frozen=True)
class DeadlineFeasibilityAdmission:
    """A slot budget plus a deadline-feasibility gate.

    Wraps an inner slot policy (the *how many* decision is unchanged)
    and adds :meth:`feasible`, which the orchestrator consults for every
    due deadline-carrying candidate: an arrival whose expected remaining
    service time -- priced in seconds by the orchestrator's
    :class:`~repro.serve.costing.CostEstimator` -- no longer fits its
    time-to-deadline is shed immediately (terminal ``rejected`` state)
    instead of occupying a slot it cannot use.

    By default the estimate is *service* time only: it ignores queueing
    for a slot and pipeline sharing with other tenants, so it is
    optimistic and the gate only sheds certainly-doomed work.  Raise
    ``slack`` above 1.0 to shed earlier (a job is rejected once
    ``slack * remaining_seconds`` exceeds its time-to-deadline); the
    orchestrator re-evaluates waiting candidates every admission pass,
    so a job that becomes infeasible *while queueing* is shed then, not
    served late.

    ``queueing_aware=True`` removes the optimism: the orchestrator also
    charges each candidate the replica's expected wave-time backlog --
    the work already planned ahead of it
    (:meth:`~repro.serve.orchestrator.OnlineOrchestrator
    .expected_wave_seconds`) -- so a job that could finish on an idle
    pipeline but not behind the current queue is shed *at arrival*
    instead of after burning queueing time.  The trade-off is
    pessimism: a lucky schedule (a retirement freeing the pipeline
    early, head-tail merges) can occasionally save a job the backlog
    test sheds, so the mode trades a few salvageable jobs for earlier
    shedding; ``benchmarks/bench_calibration.py`` measures both sides
    under overload.  Off by default.

    **Heterogeneous fleets** need no extra configuration here: the
    remaining-seconds estimate the gate compares is priced *per
    replica* -- the orchestrator passes its ``replica_id`` to the
    estimator, and the
    :class:`~repro.serve.costing.CalibrationTracker`'s per-replica
    correction (seeded from the capacity pool's speed factor when an
    autoscaled replica joins, refined by its observed waves) scales the
    estimate to that hardware.  The same job can therefore be feasible
    on an A100 replica and shed on an L40S one, which is the honest
    answer: slow hardware sheds work it cannot finish in time instead
    of serving it late.

    Attributes:
        slots: Inner slot policy (the concurrency budget).
        slack: Safety multiplier on the remaining-time estimate
            (>= how much of the estimate must fit; 1.0 = shed only
            provably-late arrivals under the optimistic estimate).
        queueing_aware: Also charge the replica's expected wave-time
            backlog ahead of the candidate (see above); the backlog is
            *not* multiplied by ``slack`` -- it is already someone
            else's priced work, not this job's estimate.
    """

    slots: AdmissionPolicy
    slack: float = 1.0
    queueing_aware: bool = False

    def __post_init__(self) -> None:
        require_finite(slack=self.slack)
        if self.slack <= 0:
            raise ScheduleError("slack must be positive")

    def max_concurrent(self) -> int:
        """Delegate the concurrency budget to the inner policy."""
        return self.slots.max_concurrent()

    def interleave_key(
        self,
        candidate: "TenantProfile",
        live: "Sequence[TenantProfile]",
        estimator: "CostEstimator",
    ) -> float:
        """Delegate length-interleaving scoring to the inner policy.

        Inner policies without the hook (e.g. :class:`MemoryAdmission`)
        score every candidate 0.0 -- the tie-breaker is then inert and
        admission falls back to pure policy order.
        """
        key = getattr(self.slots, "interleave_key", None)
        if key is None:
            return 0.0
        return key(candidate, live, estimator)

    def feasible(self, view: JobView, now: float, backlog: float = 0.0) -> bool:
        """Whether ``view`` can still meet its deadline.

        Deadline-free candidates are always feasible; so are unpriced
        ones (no estimator stamped ``remaining_seconds``), because the
        gate refuses to shed on a quantity it cannot measure.

        Args:
            view: The candidate, as priced by the orchestrator.
            now: Current virtual time.
            backlog: Expected seconds of already-planned work ahead of
                the candidate; charged only with ``queueing_aware`` on
                (callers may always pass it).
        """
        if view.deadline is None or view.remaining_seconds is None:
            return True
        queued = backlog if self.queueing_aware else 0.0
        return now + queued + self.slack * view.remaining_seconds <= view.deadline

    def feasible_arrival(
        self,
        job: "ServeJob",
        now: float,
        estimator: "CostEstimator | None",
        backlog: float = 0.0,
    ) -> bool:
        """Price a raw arrival at the door and test its feasibility.

        The gateway-facing form of :meth:`feasible`: the live gateway
        (:class:`~repro.serve.gateway.ServeGateway`) holds a
        :class:`~repro.serve.jobs.ServeJob`, not an orchestrator-priced
        :class:`~repro.serve.ordering.JobView`, so this builds the view
        itself -- full remaining batches, expected service seconds from
        ``estimator`` -- and delegates.  With no estimator (or no
        deadline on the job) the arrival is feasible: the door never
        sheds on a quantity it cannot measure, matching
        :meth:`feasible`'s refusal to guess.

        Args:
            job: The raw submission (its ``deadline`` and full batch
                count are read off the job itself).
            now: Current virtual time (the submission stamp).
            estimator: The fleet's pricing model, or ``None``.
            backlog: Seconds of work already queued ahead of the
                arrival; charged only with ``queueing_aware`` on.
        """
        if job.deadline is None or estimator is None:
            return True
        view = JobView(
            adapter_id=job.adapter_id,
            arrival_time=job.arrival_time,
            priority=job.priority,
            deadline=job.deadline,
            remaining_batches=job.job.num_global_batches(),
            admitted=False,
            remaining_seconds=estimator.job_seconds(job.job),
        )
        return self.feasible(view, now, backlog)
