"""Tenant routing: which pipeline replica serves an arriving job.

With several independent pipeline replicas (each its own
:class:`~repro.serve.orchestrator.OnlineOrchestrator`), every arriving
:class:`~repro.serve.jobs.ServeJob` must be assigned to exactly one of
them.  The assignment shapes both *load balance* (job throughput, JCT)
and *packing quality*: the per-replica scheduler's head-tail grouping and
microbatch packing work best over tenants with compatible sample-length
profiles, so where a tenant lands matters beyond raw load.

Five pluggable policies ship:

* :class:`RoundRobinRouting` -- cycle over replicas; the stateless
  baseline.
* :class:`LeastLoadedRouting` -- send each job to the replica owing the
  fewest outstanding global batches; the latency-oriented default when
  no cost estimator is configured.
* :class:`PackingAffinityRouting` -- among replicas within a bounded load
  gap of the least loaded, prefer the one already serving tenants with
  the most similar mean sample length, so microbatch shapes stay
  groupable and the merge pass keeps finding head-tail pairs.
* :class:`PriorityHeadroomRouting` -- SLO-aware placement: high-class
  jobs go to the replica with the most free adapter slots, while
  best-effort jobs avoid eating a replica's last reserved slots, so a
  high-class arrival can usually land without waiting (or preempting).
* :class:`CostAwareRouting` -- place each arrival where the fleet's
  expected backlog, **in seconds**, grows least: the replica's expected
  remaining time (:attr:`ReplicaView.expected_remaining_time`, priced by
  each orchestrator's :class:`~repro.serve.costing.CostEstimator`) plus
  the arriving job's marginal expected service time there.  Sharpens
  least-loaded decisions whenever tenants are heterogeneous -- two
  replicas owing the same *batch count* can owe very different amounts
  of *time*.

**Units.**  :class:`ReplicaView` carries both batch-count and
seconds-valued load fields; each field documents its unit, and policies
must not mix them (a batch is not a second).  Seconds-valued fields are
``None`` unless the replica's orchestrator carries a cost estimator;
cost-aware policies fall back to batch counts then.

The :class:`TenantRouter` wraps a policy, validates its choices, and
keeps the adapter-to-replica assignment log that migrations update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ScheduleError
from repro.serve.costing import CostEstimator, TenantProfile
from repro.serve.jobs import ServeJob

__all__ = [
    "FleetArrays",
    "ReplicaView",
    "RoutingPolicy",
    "RoundRobinRouting",
    "LeastLoadedRouting",
    "PackingAffinityRouting",
    "PriorityHeadroomRouting",
    "CostAwareRouting",
    "TenantRouter",
]


@dataclass(frozen=True)
class ReplicaView:
    """A routing-time snapshot of one replica's load.

    Load appears in two units -- **global batches** (counts, always
    available) and **expected seconds** (cost-model-priced, ``None``
    without an estimator).  Every outstanding/remaining field counts
    *all* unfinished work the replica owes: active, **parked
    (preempted)**, and pending jobs alike, so a parked-heavy replica is
    never mistaken for an idle one.

    Attributes:
        index: The replica's position in the set.
        clock: The replica's current virtual time.
        outstanding_batches: Not-yet-stepped global batches the replica
            owes across active, parked, and pending jobs.  Unit:
            batches (a count, not a duration).
        num_active: Jobs currently holding adapter slots.
        num_pending: Jobs queued for a slot.
        num_parked: Preempted jobs waiting (with exported state) to
            resume on this replica.  They hold no slot but their
            remaining work is owed here and is included in
            ``outstanding_batches`` / ``expected_remaining_time``.
        slots_free: Free adapter slots (``None`` = unbounded admission).
        live_mean_lengths: Mean sample length of each active job, in
            tokens (packing-affinity input).
        live_priorities: Priority class of each active job
            (headroom-routing input).
        expected_remaining_time: Expected seconds of service the replica
            still owes across active, parked, and pending jobs, priced
            by its orchestrator's
            :class:`~repro.serve.costing.CostEstimator`.  Unit: virtual
            seconds.  ``None`` without an estimator.
        live_profiles: Full :class:`~repro.serve.costing.TenantProfile`
            per active job (same order as ``live_mean_lengths``).
            Estimator-mode :class:`PackingAffinityRouting` scores
            candidate replicas by the predicted post-pack waste of the
            live set plus the arrival; empty when the replica's
            orchestrator predates the field or has no live jobs.
    """

    index: int
    clock: float
    outstanding_batches: int
    num_active: int
    num_pending: int
    slots_free: int | None
    live_mean_lengths: tuple[float, ...] = ()
    live_priorities: tuple[int, ...] = ()
    num_parked: int = 0
    expected_remaining_time: float | None = None
    live_profiles: tuple = ()


@dataclass
class FleetArrays:
    """The two routing columns of a fleet, one row per replica.

    :meth:`CostAwareRouting.choose_arrays` reads only each replica's
    expected backlog and active-job count, so the fleet loop
    (:class:`~repro.serve.replicaset.ReplicaSet`) keeps exactly those two
    columns, filled straight from each replica's orchestrator
    (``expected_remaining_seconds()`` and ``num_active``) -- the values
    a :class:`ReplicaView` of that replica would carry, without building
    one.  The loop reads a replica once per change: when an event
    touches replica ``i``, its one refresh refills row ``i`` (with the
    rebalance load and the autoscaler's deadline pressure) before
    anything reads it; untouched rows keep their floats.  The autoscaler
    reads its backlogs from ``backlogs`` too.
    Every arrival passes the routable rows (:meth:`take`) to
    :meth:`TenantRouter.route` -- all of them on a fixed fleet, the
    survivors on an elastic one -- so a 1000-replica fleet is scored
    (and the choice validated) with no per-view attribute walk, and no
    view built at all.

    Attributes:
        backlogs: Expected remaining seconds per replica, in index
            order (0.0 where the replica has no estimator; see
            ``missing``).  Unit: virtual seconds.
        num_active: Jobs holding adapter slots, per replica.
        indices: Replica indices, in view order.
        missing: True where the replica reports no expected remaining
            seconds -- any True row sends routing back to the views.
    """

    backlogs: np.ndarray
    num_active: np.ndarray
    indices: np.ndarray
    missing: np.ndarray

    @classmethod
    def for_fleet(cls, num_replicas: int) -> "FleetArrays":
        """All-stale arrays for a fleet of ``num_replicas`` replicas."""
        return cls(
            backlogs=np.zeros(num_replicas, dtype=np.float64),
            num_active=np.zeros(num_replicas, dtype=np.int64),
            indices=np.arange(num_replicas, dtype=np.int64),
            missing=np.ones(num_replicas, dtype=bool),
        )

    def refill(self, index: int, remaining: float | None, num_active: int) -> None:
        """Refresh row ``index`` with the replica's current values.

        Args:
            index: The replica's row.
            remaining: Its expected remaining seconds (``None`` without
                an estimator, which marks the row ``missing``).
            num_active: Its jobs holding adapter slots.
        """
        self.backlogs[index] = 0.0 if remaining is None else remaining
        self.num_active[index] = num_active
        self.missing[index] = remaining is None

    def take(self, rows: np.ndarray) -> "FleetArrays":
        """The columns of replicas ``rows`` only, in that order.

        An elastic fleet routes over its routable replicas: retired and
        draining rows stay in the fleet's arrays but are not offered.
        """
        return FleetArrays(
            backlogs=self.backlogs[rows],
            num_active=self.num_active[rows],
            indices=self.indices[rows],
            missing=self.missing[rows],
        )

    def grow(self) -> None:
        """Append one all-stale row (a replica joining the fleet).

        The new row is marked ``missing`` until its first
        :meth:`refill`, so routing reads the views rather than zeros
        for a replica it has never seen.
        """
        self.backlogs = np.append(self.backlogs, 0.0)
        self.num_active = np.append(self.num_active, 0)
        self.indices = np.append(self.indices, len(self.indices))
        self.missing = np.append(self.missing, True)


@runtime_checkable
class RoutingPolicy(Protocol):
    """Chooses the replica an arriving job is assigned to."""

    def choose(self, job: ServeJob, replicas: Sequence[ReplicaView]) -> int:
        """Return the index of the replica that should serve ``job``."""


@dataclass
class RoundRobinRouting:
    """Cycle over replicas in index order, ignoring load."""

    _next: int = 0

    def choose(self, job: ServeJob, replicas: Sequence[ReplicaView]) -> int:
        """Return the next replica in the cycle.

        The cycle walks *positions* in the offered view list but
        returns the view's :attr:`ReplicaView.index` -- under an
        elastic fleet the routable views are a subset of the fleet, so
        a position is not a replica identity.
        """
        view = replicas[self._next % len(replicas)]
        self._next += 1
        return view.index


class LeastLoadedRouting:
    """Send each job to the replica owing the fewest outstanding batches.

    Load is :attr:`ReplicaView.outstanding_batches` -- a **batch count**
    (active + parked + pending), not a duration.  With heterogeneous
    tenants equal counts can hide large wall-clock differences; use
    :class:`CostAwareRouting` (seconds-valued) when an estimator is
    available.
    """

    def choose(self, job: ServeJob, replicas: Sequence[ReplicaView]) -> int:
        """Return the least-loaded replica (lowest index breaks ties)."""
        best = min(replicas, key=lambda r: (r.outstanding_batches, r.index))
        return best.index


@dataclass(frozen=True)
class PackingAffinityRouting:
    """Co-locate jobs with similar microbatch shapes, load permitting.

    Among replicas whose outstanding-batch load is within ``load_slack``
    of the least loaded, pick the one whose closest live tenant has the
    most similar mean sample length to the arriving job.  A replica with
    no live tenants counts as a perfect fit (it starts a fresh group), so
    under light load this degrades gracefully to spreading.

    Both the load floor and the slack are in **global batches**
    (:attr:`ReplicaView.outstanding_batches` counts, not seconds);
    length similarity is in **tokens** (mean sample length).

    With an ``estimator`` attached the similarity heuristic is replaced
    by a direct waste prediction: each eligible replica is scored by
    :meth:`~repro.serve.costing.CostEstimator.pack_fragmentation` over
    its live tenant profiles (:attr:`ReplicaView.live_profiles`) *plus*
    the arrival -- the fraction of bin capacity the post-placement
    co-resident set would leave unfilled -- and the lowest predicted
    waste wins.  Mean-length distance can prefer a twin tenant whose
    combined mass straddles a capacity boundary; the fragmentation score
    sees the boundary.

    Attributes:
        load_slack: How many extra outstanding global batches (a count,
            not a duration) a better-fitting replica may carry before
            load wins.
        estimator: Prices predicted post-pack waste per candidate
            replica; ``None`` keeps the legacy mean-length-distance
            rule.
    """

    load_slack: int = 4
    estimator: CostEstimator | None = None

    def __post_init__(self) -> None:
        if self.load_slack < 0:
            raise ScheduleError("load_slack must be non-negative")

    def choose(self, job: ServeJob, replicas: Sequence[ReplicaView]) -> int:
        """Return the best shape-affine replica within the load slack."""
        floor = min(r.outstanding_batches for r in replicas)
        eligible = [
            r for r in replicas
            if r.outstanding_batches <= floor + self.load_slack
        ]
        if self.estimator is not None:
            profile = TenantProfile.from_job(job.job)
            best = min(
                eligible,
                key=lambda r: (
                    self.estimator.pack_fragmentation(
                        (*r.live_profiles, profile)
                    ),
                    r.outstanding_batches,
                    r.index,
                ),
            )
            return best.index
        length = job.job.mean_length()

        def distance(view: ReplicaView) -> float:
            if not view.live_mean_lengths:
                return 0.0
            return min(abs(length - other) for other in view.live_mean_lengths)

        best = min(
            eligible,
            key=lambda r: (distance(r), r.outstanding_batches, r.index),
        )
        return best.index


@dataclass(frozen=True)
class PriorityHeadroomRouting:
    """Reserve per-replica slot headroom for high SLO classes.

    High-class jobs (``priority >= high_class``) are placed where the
    most adapter slots are free (then least loaded), so they start
    immediately instead of queueing or preempting.  Best-effort jobs
    prefer replicas with free slots beyond the ``reserve`` (taking one
    still leaves at least the reserve), and among those the replica
    serving the fewest high-class tenants
    (:attr:`ReplicaView.live_priorities`) -- the one where a preemptive
    policy is least likely to evict them.  Only when every replica is
    down to its reserve do they fall back to plain least-loaded
    placement: the reserve is headroom, not a hard partition, so
    low-class work is never unroutable.

    Attributes:
        high_class: Priority at or above which a job is "high class".
        reserve: Free slots per replica kept for high-class arrivals.
    """

    high_class: int = 1
    reserve: int = 1

    def __post_init__(self) -> None:
        if self.reserve < 0:
            raise ScheduleError("reserve must be non-negative")

    def choose(self, job: ServeJob, replicas: Sequence[ReplicaView]) -> int:
        """Return the replica respecting the high-class headroom."""
        if job.priority >= self.high_class:
            best = min(
                replicas,
                key=lambda r: (
                    -math.inf if r.slots_free is None else -r.slots_free,
                    r.outstanding_batches,
                    r.index,
                ),
            )
            return best.index
        roomy = [
            r
            for r in replicas
            if r.slots_free is None or r.slots_free > self.reserve
        ]
        if not roomy:
            best = min(replicas, key=lambda r: (r.outstanding_batches, r.index))
            return best.index

        def high_actives(view: ReplicaView) -> int:
            return sum(1 for p in view.live_priorities if p >= self.high_class)

        best = min(
            roomy,
            key=lambda r: (high_actives(r), r.outstanding_batches, r.index),
        )
        return best.index


@dataclass(frozen=True)
class CostAwareRouting:
    """Place where the fleet's expected backlog (seconds) grows least.

    For each replica the score is its expected remaining service time
    (:attr:`ReplicaView.expected_remaining_time`, **seconds**) plus the
    arriving job's *marginal* expected service time there
    (:meth:`~repro.serve.costing.CostEstimator.placement_seconds`,
    priced at the concurrency the job would run at -- a crowded replica
    is charged the multi-adapter kernel overhead the newcomer would
    actually pay).  The replica with the lowest post-placement backlog
    wins; lowest index breaks ties.

    This is the cost-model-foresight upgrade of
    :class:`LeastLoadedRouting`: two replicas owing the same *batch
    count* can owe 5-10x different amounts of *time* once tenant length
    distributions diverge.  It never picks a strictly dominated replica
    (one no better on expected remaining time or concurrency and
    strictly worse on expected remaining time) -- the property
    ``tests/serve/test_costing.py`` asserts.

    When any view lacks ``expected_remaining_time`` (its orchestrator
    has no estimator), the policy falls back to
    :class:`LeastLoadedRouting`'s batch-count rule rather than mixing
    units.

    Attributes:
        estimator: Prices the arriving job's marginal service time per
            candidate replica.  ``None`` drops the marginal term and
            routes on expected remaining time alone (still
            seconds-valued).
    """

    estimator: CostEstimator | None = None

    def choose(self, job: ServeJob, replicas: Sequence[ReplicaView]) -> int:
        """Return the replica whose expected backlog grows least."""
        if any(r.expected_remaining_time is None for r in replicas):
            best = min(replicas, key=lambda r: (r.outstanding_batches, r.index))
            return best.index
        return self._score(
            job,
            np.array([r.expected_remaining_time for r in replicas], dtype=np.float64),
            [r.num_active for r in replicas],
            np.array([r.index for r in replicas], dtype=np.int64),
        )

    def choose_arrays(
        self,
        job: ServeJob,
        replicas: Sequence[ReplicaView],
        arrays: FleetArrays,
    ) -> int:
        """:meth:`choose` over the fleet loop's column mirror of ``replicas``.

        ``arrays`` holds the values the views carry, so this skips the
        per-arrival extraction -- the one O(fleet) Python loop left on
        the arrival hot path.
        """
        if bool(arrays.missing.any()):
            return self.choose(job, replicas)
        return self._score(job, arrays.backlogs, arrays.num_active, arrays.indices)

    def _score(
        self,
        job: ServeJob,
        backlogs: np.ndarray,
        num_active: "Sequence[int] | np.ndarray",
        indices: np.ndarray,
    ) -> int:
        """The replica minimising ``(backlog + marginal, backlog, index)``.

        All candidates are priced in one
        :meth:`~repro.serve.costing.CostEstimator.placement_seconds_batch`
        call.
        """
        if self.estimator is not None:
            totals = backlogs + self.estimator.placement_seconds_batch(
                job.job, num_active, indices
            )
        else:
            totals = backlogs
        # Secondary key: when the marginal term's float magnitude swamps
        # a small backlog difference, the smaller raw backlog still wins
        # -- a dominated replica is never chosen.  lexsort's last key is
        # primary, so this is min() over (total, backlog, index) tuples.
        order = np.lexsort((indices, backlogs, totals))
        return int(indices[order[0]])


class TenantRouter:
    """Applies a routing policy and keeps the tenant-to-replica map.

    Args:
        policy: The placement policy consulted per arrival.

    Attributes:
        assignments: Current replica index per routed adapter id
            (updated on migration via :meth:`reassign`).
    """

    def __init__(self, policy: RoutingPolicy) -> None:
        self.policy = policy
        self.assignments: dict[int, int] = {}

    def route(
        self,
        job: ServeJob,
        replicas: Sequence[ReplicaView],
        arrays: FleetArrays | None = None,
    ) -> int:
        """Assign ``job`` to a replica and record the assignment.

        Args:
            job: The arriving job.
            replicas: One view per replica, in index order.  Any
                ``Sequence`` works; the fleet loop passes one that
                builds each view only when it is read.
            arrays: Optional column mirror of ``replicas`` (same order,
                same values).  Policies exposing ``choose_arrays`` score
                from it instead of re-walking the views, and the choice
                is validated against its ``indices``; others ignore it.

        Returns:
            The chosen replica index.

        Raises:
            ScheduleError: With no replicas, or when the policy returns
                an index naming none of the offered views.
        """
        if not replicas:
            raise ScheduleError("cannot route with zero replicas")
        chooser = getattr(self.policy, "choose_arrays", None)
        if arrays is not None and chooser is not None:
            index = chooser(job, replicas, arrays)
            ids = arrays.indices
            # The columns name the same replicas as the views, so the
            # choice is checked without reading (or building) a view.
            offered = (0 <= index < len(ids) and ids[index] == index) or index in ids
        else:
            index = self.policy.choose(job, replicas)
            # Validate against the views' identities, not their
            # positions: under an elastic fleet the offered views can be
            # a routable subset.  The positional probe keeps the
            # contiguous full-fleet case O(1); the membership scan only
            # runs for subsets.
            offered = (
                0 <= index < len(replicas) and replicas[index].index == index
            ) or any(view.index == index for view in replicas)
        if not offered:
            raise ScheduleError(
                f"routing policy chose replica {index}, not one of the "
                f"{len(replicas)} offered views"
            )
        self.assignments[job.adapter_id] = index
        return index

    def reassign(self, adapter_id: int, replica: int) -> None:
        """Update the map after a migration moved ``adapter_id``."""
        self.assignments[adapter_id] = replica
