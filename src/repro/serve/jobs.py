"""Serving-layer job descriptions.

A :class:`ServeJob` pairs the *scheduling* view of a fine-tuning job (its
:class:`~repro.scheduler.types.AdapterJob`, over the full sample stream)
with its arrival time and, when the orchestrator drives numeric training,
the :class:`~repro.runtime.engine.NumericJob` holding real token arrays.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.data.arrivals import poisson_times
from repro.errors import ScheduleError, require_finite, require_int
from repro.runtime.engine import NumericJob
from repro.scheduler.types import AdapterJob

__all__ = ["JobOutcome", "ServeJob", "poisson_workload"]


class JobOutcome(enum.Enum):
    """Terminal (or so-far) state of a served job.

    ``REJECTED`` is the distinct terminal state deadline-feasibility
    admission produces: the arrival was shed because its expected
    remaining time already exceeded its time-to-deadline, so it never
    held a slot and never trains.  It is deliberately not a deadline
    *miss* -- metrics count the two separately
    (:meth:`~repro.serve.metrics._LatencyAggregates.rejections` vs
    :meth:`~repro.serve.metrics._LatencyAggregates.deadline_misses`)
    so shedding cannot masquerade as latency improvement.
    """

    #: Still pending, parked, or training when the result was cut.
    UNFINISHED = "unfinished"
    #: Last optimizer step completed.
    FINISHED = "finished"
    #: Shed by deadline-feasibility admission; never admitted.
    REJECTED = "rejected"


@dataclass(frozen=True)
class ServeJob:
    """One tenant's fine-tuning request in the online system.

    Attributes:
        job: Scheduling view: the full dataset and global batch size
            (``batch_offset`` must be 0 -- the orchestrator windows it).
        arrival_time: Virtual time at which the job becomes known.
        numeric: Token-level payload for numeric execution (None when the
            orchestrator only simulates makespan).
        priority: SLO class; larger is more urgent.  Consulted by
            class-aware :mod:`~repro.serve.ordering` policies and by
            priority-aware routing; 0 (best effort) elsewhere.
        deadline: Virtual time the job should finish by, for
            deadline-driven ordering and the deadline-miss-rate metric
            (``None`` = no deadline).
        tenant: Billing identity the live gateway
            (:class:`~repro.serve.gateway.ServeGateway`) rate-limits and
            quota-checks the submission under.  Purely gateway-side
            metadata: the fleet routes on ``adapter_id`` and ignores it,
            so sim traces (which leave it ``None``) are unaffected.
    """

    job: AdapterJob
    arrival_time: float
    numeric: NumericJob | None = None
    priority: int = 0
    deadline: float | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        # Times become event-heap keys: a NaN compares false with
        # everything and silently breaks the (time, ...) order.
        require_finite(arrival_time=self.arrival_time, deadline=self.deadline)
        # A plain int skips the typed check: fleets build thousands of jobs.
        if type(self.priority) is not int:
            require_int(priority=self.priority)
        if self.arrival_time < 0:
            raise ScheduleError("arrival_time must be non-negative")
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ScheduleError(
                "deadline must lie strictly after the job's arrival",
            )
        if self.job.batch_offset != 0:
            raise ScheduleError(
                "ServeJob takes the full job (batch_offset 0); the "
                "orchestrator derives windowed offsets itself"
            )
        if self.numeric is not None:
            if self.numeric.adapter_id != self.job.adapter_id:
                raise ScheduleError("numeric payload belongs to another adapter")
            if len(self.numeric.token_streams) != len(self.job.dataset):
                raise ScheduleError(
                    "numeric payload and dataset disagree on sample count"
                )
            if self.numeric.global_batch_size != self.job.global_batch_size:
                raise ScheduleError(
                    "numeric payload and job disagree on global batch size"
                )

    @property
    def adapter_id(self) -> int:
        """The job's adapter identity."""
        return self.job.adapter_id


def require_job(job: object) -> ServeJob:
    """``job`` itself; anything but a :class:`ServeJob` is refused."""
    if not isinstance(job, ServeJob):
        raise ScheduleError(f"expected a ServeJob, got {job!r}")
    return job


def workload_jobs(workload: Iterable[object]) -> list[ServeJob]:
    """``workload`` as a list of :class:`ServeJob` with distinct adapter ids.

    The refusal rule every entry point that takes a whole workload
    applies before it consumes any state.

    Raises:
        ScheduleError: On a workload that is not a sequence of
            :class:`ServeJob`, or on duplicate adapter ids.
    """
    try:
        jobs = [require_job(item) for item in workload]
    except TypeError:
        message = f"a workload is a sequence of ServeJob, got {workload!r}"
        raise ScheduleError(message) from None
    ids = [job.adapter_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ScheduleError(f"duplicate adapter ids in workload: {ids}")
    return jobs


def poisson_workload(
    jobs: list[AdapterJob],
    rate: float,
    rng: np.random.Generator | int = 0,
) -> list[ServeJob]:
    """Wrap offline jobs into a Poisson-arriving online workload.

    Args:
        jobs: Offline scheduling jobs (whole-horizon, ``batch_offset`` 0),
            one per tenant.
        rate: Mean arrivals per unit of virtual time.
        rng: Generator or seed for the exponential inter-arrival draws.

    Returns:
        One :class:`ServeJob` per input job, arrival-stamped in input
        order (no numeric payloads -- simulation workloads only).
    """
    times = poisson_times(len(jobs), rate, rng)
    return [ServeJob(job=job, arrival_time=time) for job, time in zip(jobs, times)]
