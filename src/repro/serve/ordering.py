"""Ordering policies: who gets the next adapter slot (and who loses one).

FCFS admission is the fairness baseline, but it is JCT-pessimal under
skewed job sizes: a short tenant arriving behind a heavy one waits a full
wave for a slot.  Continuous-batching serving systems (Orca-style
iteration-level scheduling, S-LoRA's multi-adapter admission) showed that
shortest-remaining-work ordering and bounded preemption cut mean JCT
dramatically on heavy-tailed traces.  This module is that decision layer
for the online orchestrator: a pluggable :class:`OrderingPolicy` ranks
every slot candidate (pending arrivals, preempted-and-parked jobs, and --
for preemption -- the jobs currently holding slots) and the orchestrator
admits in rank order.

A policy is two things:

* :meth:`~OrderingPolicy.key` -- a total order over :class:`JobView`
  snapshots; **lower sorts first**.  Every shipped policy ends its key
  with ``(arrival_time, adapter_id)`` so ranking is deterministic.

Two refinements make the ranking *quantitative* rather than heuristic:

* **Time, not batch counts.**  When the orchestrator carries a
  :class:`~repro.serve.costing.CostEstimator`, every :class:`JobView`
  is stamped with :attr:`~JobView.remaining_seconds` -- the job's
  expected remaining service time -- and :class:`SRPTOrdering` ranks on
  it (true shortest-remaining-*time*), while :class:`DeadlineOrdering`
  ranks on *slack* (time to deadline minus remaining time, i.e. least
  laxity first).  Without an estimator the policies fall back to
  remaining batch counts / raw deadlines, exactly the pre-estimator
  behavior.
* **Aging.**  SRPT and strict priority can starve long best-effort
  jobs indefinitely under sustained pressure.  An ``aging_rate`` term
  improves a candidate's rank linearly with its queueing time, which
  bounds worst-case queueing: a job with remaining work ``R`` waiting
  ``W`` outranks any fresh arrival with remaining work ``r`` once
  ``W > (R - r) / aging_rate`` (``tests/serve/test_ordering.py``
  asserts the bound).  Jobs waiting together age together, so aging
  never reorders two equally-old candidates -- it only stops fresh
  arrivals from cutting an ever-growing line.
* :attr:`~OrderingPolicy.preemptive` -- whether a candidate that ranks
  strictly ahead of a running job may evict it.  Eviction is lossless:
  the victim's executor state is exported at an optimizer-step boundary
  and parked, and the job re-enters the candidate pool with its progress
  intact (see :meth:`OnlineOrchestrator._admit_ready
  <repro.serve.orchestrator.OnlineOrchestrator>`).

Four policies ship: :class:`FCFSOrdering` (arrival order, the default),
:class:`SRPTOrdering` (shortest remaining batches first),
:class:`PriorityOrdering` (explicit classes, FCFS within a class), and
:class:`DeadlineOrdering` (earliest deadline first).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ScheduleError, require_finite

__all__ = [
    "JobView",
    "OrderingPolicy",
    "FCFSOrdering",
    "SRPTOrdering",
    "PriorityOrdering",
    "DeadlineOrdering",
    "policy_keys",
    "validate_policy",
]


@dataclass(frozen=True)
class JobView:
    """A policy-facing snapshot of one job competing for an adapter slot.

    Attributes:
        adapter_id: The job.
        arrival_time: When the job became known (the universal
            tie-breaker; preemption and parking do not change it).
        priority: SLO class; larger is more urgent.
        deadline: Virtual time the job should finish by (``None`` = no
            deadline).
        remaining_batches: Optimizer steps still to be taken.  For a
            preempted job this reflects the progress already banked, so
            remaining-work policies rank resumption correctly.
        admitted: Whether the job currently holds an adapter slot
            (a preemption victim) rather than waiting for one.
        remaining_seconds: Expected remaining service time in seconds,
            from the orchestrator's
            :class:`~repro.serve.costing.CostEstimator` (``None``
            without one); time-aware policies prefer it over the batch
            count.
    """

    adapter_id: int
    arrival_time: float
    priority: int
    deadline: float | None
    remaining_batches: int
    admitted: bool
    remaining_seconds: float | None = None

    def remaining_work(self) -> float:
        """Remaining seconds when priced, else the raw batch count.

        The two are different units (seconds vs batches); within one
        orchestrator every candidate is stamped the same way, so keys
        built from this stay mutually comparable.
        """
        if self.remaining_seconds is not None:
            return self.remaining_seconds
        return float(self.remaining_batches)

    def waited(self, now: float) -> float:
        """Queueing time accumulated by virtual time ``now``."""
        return max(0.0, now - self.arrival_time)


@runtime_checkable
class OrderingPolicy(Protocol):
    """Ranks slot candidates; lower :meth:`key` is served first."""

    @property
    def preemptive(self) -> bool:
        """Whether a strictly better-ranked candidate may evict a job."""
        ...

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        """The job's rank at virtual time ``now`` (lower sorts first)."""


def policy_keys(
    policy: OrderingPolicy, jobs: Sequence[JobView], now: float
) -> list[tuple[float, ...]]:
    """Rank a whole candidate set; element ``i`` is ``key(jobs[i], now)``.

    The orchestrator's hot path: every wave plan ranks all pending and
    parked candidates, each by the policy's :meth:`~OrderingPolicy.key`.
    The shipped policies also bind this function as ``keys``, so the
    perfbench tracer finds the method names it times.
    """
    return [policy.key(job, now) for job in jobs]


class _Aging:
    """Validates the ``aging_rate`` of the policies that age candidates."""

    aging_rate: float

    def __post_init__(self) -> None:
        require_finite(aging_rate=self.aging_rate)
        if self.aging_rate < 0:
            raise ScheduleError("aging_rate must be non-negative")


@dataclass(frozen=True)
class FCFSOrdering:
    """Arrival order -- the fairness baseline and the default.

    Never preempts, so it reproduces the orchestrator's original
    first-come-first-served admission exactly.
    """

    preemptive: bool = False

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        """Rank by arrival time."""
        return (job.arrival_time, job.adapter_id)

    keys = policy_keys


@dataclass(frozen=True)
class SRPTOrdering(_Aging):
    """Shortest remaining processing time, with an optional aging bound.

    The mean-JCT workhorse on heavy-tailed traces: short jobs (and jobs
    that are nearly done -- remaining work, not total size) jump the
    queue.  Remaining work is expected *seconds* when the orchestrator
    prices candidates with a :class:`~repro.serve.costing.CostEstimator`
    (:attr:`JobView.remaining_seconds`), else global batches.  With
    ``preemptive=True`` this is true SRPT: a shorter arrival evicts the
    running job with the most remaining work.

    Long jobs can starve under sustained short-job pressure; a positive
    ``aging_rate`` bounds that: a job's effective remaining work shrinks
    by ``aging_rate`` per unit of queueing time, so a job with remaining
    work ``R`` overtakes any fresh arrival with remaining work ``r``
    after waiting at most ``(R - r) / aging_rate``.

    Attributes:
        preemptive: Evict the longest-remaining running job for a
            strictly shorter candidate (default off: reorder the queue
            only).
        aging_rate: Remaining-work units (seconds with an estimator,
            batches without) of rank credit per unit of waiting time;
            0 is pure SRPT (may starve).
    """

    preemptive: bool = False
    aging_rate: float = 0.0

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        """Rank by aged remaining work (time when priced), then arrival."""
        work = job.remaining_work() - self.aging_rate * job.waited(now)
        return (work, job.arrival_time, job.adapter_id)

    keys = policy_keys


@dataclass(frozen=True)
class PriorityOrdering(_Aging):
    """Explicit SLO classes: higher :attr:`~repro.serve.jobs.ServeJob.priority` first.

    Within a class, FCFS.  Preemptive by default -- the point of paying
    for a high class is not waiting behind a low one; a high-class
    arrival evicts the lowest-class running job when no slot is free.

    A positive ``aging_rate`` raises a candidate's *effective* class
    linearly with its queueing time, so a best-effort job cannot wait
    behind class-``c`` traffic longer than ``c / aging_rate`` -- the
    starvation bound strict priority otherwise lacks.

    Attributes:
        preemptive: Allow class-based eviction (default on).
        aging_rate: Priority classes of rank credit per unit of waiting
            time; 0 is strict priority (may starve).
    """

    preemptive: bool = True
    aging_rate: float = 0.0

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        """Rank by aged class (higher effective priority first), then arrival."""
        effective = job.priority + self.aging_rate * job.waited(now)
        return (-effective, job.arrival_time, job.adapter_id)

    keys = policy_keys


@dataclass(frozen=True)
class DeadlineOrdering(_Aging):
    """Earliest deadline first (EDF), slack-aware when costs are priced.

    Jobs without a deadline rank last (after every deadline-carrying
    job).  When candidates carry :attr:`JobView.remaining_seconds` (an
    orchestrator with a :class:`~repro.serve.costing.CostEstimator`),
    the rank is *slack* -- time to deadline minus expected remaining
    time, i.e. least laxity first -- so a long job whose deadline is
    nominally later but effectively tighter is served first.  Without
    an estimator the rank is the raw deadline, classic EDF.  Preemptive
    by default, as EDF's optimality argument assumes.

    Attributes:
        preemptive: Allow deadline-based eviction (default on).
        aging_rate: Rank credit (same time units as the deadline clock)
            per unit of waiting, bounding how long a *deadline-carrying*
            job queues behind fresh earlier-deadline arrivals; 0 is pure
            EDF/least-laxity.  Deadline-free jobs rank last regardless
            (their base is infinite, which no finite credit moves) --
            bound best-effort starvation with :class:`SRPTOrdering` or
            :class:`PriorityOrdering` aging instead.
    """

    preemptive: bool = True
    aging_rate: float = 0.0

    def key(self, job: JobView, now: float) -> tuple[float, ...]:
        """Rank by slack (deadline when unpriced; no deadline = +inf)."""
        if job.deadline is None:
            base = math.inf
        elif job.remaining_seconds is not None:
            base = (job.deadline - now) - job.remaining_seconds
        else:
            base = job.deadline
        base -= self.aging_rate * job.waited(now)
        return (base, job.arrival_time, job.adapter_id)

    keys = policy_keys


def validate_policy(policy: object) -> OrderingPolicy:
    """Check ``policy`` implements the protocol; return it typed.

    Raises:
        ScheduleError: When the object lacks ``key`` or ``preemptive``.
    """
    if not isinstance(policy, OrderingPolicy):
        raise ScheduleError(
            f"{type(policy).__name__} is not an OrderingPolicy (needs a "
            "key() method and a preemptive attribute)"
        )
    return policy
