"""Elastic fleet sizing: scale decisions priced in seconds and dollars.

The fleet built by :class:`~repro.serve.replicaset.ReplicaSet` was a
fixed N of identical replicas; this module makes N a *decision*.  A
:class:`FleetAutoscaler` watches the calibrated seconds-valued backlog
(:meth:`~repro.serve.orchestrator.OnlineOrchestrator.expected_remaining_seconds`)
and the queued SLO-miss pressure
(:meth:`~repro.serve.orchestrator.OnlineOrchestrator.deadline_pressure`)
and answers one question per probe: should a replica join, should one
retire, or is the fleet the right size?  Capacity comes from
:class:`CapacityPool` entries -- named slices of the
:mod:`repro.gpu.specs` hardware table with a $/GPU-hour price, a size
limit, and (for spot pools) reclaimability -- and every join is charged
against a fleet-wide $/hour budget ceiling, so the autoscaler can never
buy its way out of backlog past what the operator priced in.

Three design rules keep scaling inside the deterministic kernel rather
than a second loop around it:

**Decisions are data, actions are events.**  :meth:`FleetAutoscaler.plan`
only *returns* ``("join", pool)`` or ``("retire", index)``; the fleet
loop turns that into a :attr:`~repro.serve.events.EventKind.REPLICA_JOIN`
heap event (landing ``provision_delay`` virtual seconds later -- capacity
is never instant) or an immediate
:attr:`~repro.serve.events.EventKind.REPLICA_RETIRE`.  Scale actions
therefore pop in the same ``(time, (kind, lane), seq)`` total order as
every other event, and reruns stay byte-identical.

**Heterogeneity is a correction factor, not a special case.**  A pool's
:attr:`CapacityPool.speed_factor` (its step-time ratio versus the
hardware the estimator's cost model was built for) is seeded into the
:class:`~repro.serve.costing.CalibrationTracker` the moment the replica
joins (:meth:`~repro.serve.costing.CalibrationTracker.seed_replica`),
so cost-aware routing and deadline admission price an L40S honestly
from its first wave instead of converging to the truth over several.

**Reclamation is a deadline, not a kill.**  A
:class:`ReclamationNotice` marks spot replicas draining at notice time
and schedules a
:attr:`~repro.serve.events.EventKind.RECLAIM_DEADLINE`; within the
grace window jobs leave losslessly (free movers immediately, in-flight
ones at wave boundaries), and whatever is still resident at the
deadline is force-drained to a step boundary and evacuated with full
state -- parked for re-admission elsewhere, never lost.

The module deliberately imports nothing from the fleet loop (no
``replicaset``), mirroring :mod:`repro.serve.events`: the autoscaler is
a policy object the loop *consults*, testable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScheduleError, require_finite
from repro.gpu.specs import get_gpu

__all__ = ["CapacityPool", "FleetAutoscaler", "ReclamationNotice"]


@dataclass(frozen=True)
class CapacityPool:
    """A named, priced slice of acquirable capacity.

    The capacity-as-config record the autoscaler buys replicas from: a
    hardware type out of the :mod:`repro.gpu.specs` registry, a
    $/GPU-hour price, a size limit, and whether the provider may
    reclaim it (spot).  Heterogeneous fleets are just several pools --
    e.g. a small on-demand A100 pool for the baseline plus a cheap spot
    L40S pool for burst -- and the :attr:`speed_factor` carries each
    pool's honest price in *time* (the estimator's correction seed), so
    a cheap-but-slow pool is cheap in dollars and expensive in seconds,
    never silently both cheap.

    Attributes:
        name: Unique pool id (also the unit of the size limit).
        gpu: :mod:`repro.gpu.specs` registry key (``"a100-sxm"``,
            ``"l40s"``...); resolved at construction so typos fail fast.
        hourly_rate: $/GPU-hour charged while a replica from this pool
            is in the fleet (provisioning time included -- capacity is
            billed from the buy decision, like real clouds do).
        limit: Most replicas this pool can supply at once.
        speed_factor: Expected observed/predicted step-time ratio versus
            the reference hardware the fleet's cost model was built for
            (> 1 means slower).  Seeded per-replica into the
            :class:`~repro.serve.costing.CalibrationTracker` on join.
        spot: Whether a :class:`ReclamationNotice` may take replicas of
            this pool back.  On-demand pools are never reclaimed.
    """

    name: str
    gpu: str
    hourly_rate: float
    limit: int
    speed_factor: float = 1.0
    spot: bool = False

    def __post_init__(self) -> None:
        get_gpu(self.gpu)  # unknown hardware fails at construction
        require_finite(hourly_rate=self.hourly_rate, speed_factor=self.speed_factor)
        if not self.name:
            raise ScheduleError("pool name must be non-empty")
        if self.hourly_rate < 0:
            raise ScheduleError("hourly_rate must be non-negative")
        if self.limit < 1:
            raise ScheduleError("pool limit must be at least 1")
        if self.speed_factor <= 0:
            raise ScheduleError("speed_factor must be positive")


@dataclass(frozen=True)
class ReclamationNotice:
    """A provider taking spot capacity back, with a grace window.

    Fires as a :attr:`~repro.serve.events.EventKind.REPLICA_RETIRE`
    heap event at :attr:`time`; the fleet loop marks the chosen victims
    draining (unroutable) and schedules each one's
    :attr:`~repro.serve.events.EventKind.RECLAIM_DEADLINE` at
    ``time + deadline``.  Jobs that cannot leave losslessly within the
    window are force-drained to a step boundary at the deadline and
    evacuated with full state -- the forced path costs latency, never
    data.

    Attributes:
        time: Virtual time the notice arrives.
        count: Replicas the provider takes back (clamped to the spot
            replicas actually live; a notice can never take the last
            routable replica).
        deadline: Grace seconds between the notice and the forced kill.
    """

    time: float
    count: int
    deadline: float

    def __post_init__(self) -> None:
        require_finite(time=self.time, deadline=self.deadline)
        if self.time < 0:
            raise ScheduleError("notice time must be non-negative")
        if self.count < 1:
            raise ScheduleError("notice count must be at least 1")
        if self.deadline < 0:
            raise ScheduleError("reclamation deadline must be non-negative")


@dataclass
class FleetAutoscaler:
    """Sizes the fleet against backlog, SLO pressure, and a $ budget.

    Pure policy: the fleet loop
    (:class:`~repro.serve.replicaset.FleetLoop`) probes :meth:`plan`
    after load-changing events,
    turns its decision into kernel events, and reports landings back
    through :meth:`on_joined` / :meth:`on_retired`.  All state lives in
    plain dicts keyed by replica index; nothing here depends on wall
    time or hashing order, so autoscaled runs rerun byte-identically.

    Scaling logic, in one paragraph: let ``per`` be the fleet's summed
    estimator-priced backlog seconds divided by the number of routable
    replicas.  Scale **up** when ``per`` exceeds
    :attr:`scale_up_backlog` *or* any queued deadline job is already
    priced as missed (``pressure > 0``), buying from the cheapest pool
    with free limit whose rate still fits under
    :attr:`budget_per_hour`.  Scale **down** when ``per`` falls below
    :attr:`scale_down_backlog` *and* pressure is zero *and* more than
    :attr:`min_replicas` replicas are routable, retiring the emptiest
    replica (ties: most expensive first, then youngest).  The two
    thresholds form a hysteresis band so a backlog hovering at one
    value cannot flap the fleet, and :attr:`cooldown` spaces actions so
    a burst of arrival events buys at most one replica per window.

    Attributes:
        pools: Capacity on offer (order is the cheapest-first
            tie-break: equal-rate pools are bought in declaration
            order).
        budget_per_hour: Ceiling on the fleet's committed $/hour (live
            plus in-flight replicas); joins that would cross it are
            refused no matter the backlog.
        initial_pools: Pool name per *initial* replica, parallel to the
            executor list handed to the fleet -- the starting fleet is
            billed and limited like autoscaled capacity.
        scale_up_backlog: Backlog seconds per routable replica above
            which the fleet grows.
        scale_down_backlog: Backlog seconds per routable replica below
            which the fleet shrinks (must sit strictly below the up
            threshold -- the hysteresis band).
        provision_delay: Virtual seconds between the buy decision and
            the replica becoming routable (its
            :attr:`~repro.serve.events.EventKind.REPLICA_JOIN` landing).
        cooldown: Minimum virtual seconds between scale decisions.
        min_replicas: Routable-replica floor scale-down respects.
        reclamations: Spot-reclamation notices to inject into the run
            (the fleet loop schedules one
            :attr:`~repro.serve.events.EventKind.REPLICA_RETIRE` per
            notice at its time).
    """

    pools: tuple[CapacityPool, ...]
    budget_per_hour: float
    initial_pools: tuple[str, ...]
    scale_up_backlog: float = 60.0
    scale_down_backlog: float = 10.0
    provision_delay: float = 5.0
    cooldown: float = 10.0
    min_replicas: int = 1
    reclamations: tuple[ReclamationNotice, ...] = ()
    _by_name: dict[str, CapacityPool] = field(
        default_factory=dict, repr=False, init=False
    )
    _pool_of: dict[int, CapacityPool] = field(
        default_factory=dict, repr=False, init=False
    )
    _live: dict[str, int] = field(default_factory=dict, repr=False, init=False)
    _committed_rate: float = field(default=0.0, repr=False, init=False)
    _last_action: float = field(default=float("-inf"), repr=False, init=False)

    def __post_init__(self) -> None:
        self.pools = tuple(self.pools)
        self.initial_pools = tuple(self.initial_pools)
        self.reclamations = tuple(self.reclamations)
        if not self.pools:
            raise ScheduleError("autoscaler needs at least one capacity pool")
        for pool in self.pools:
            if pool.name in self._by_name:
                raise ScheduleError(f"duplicate pool name {pool.name!r}")
            self._by_name[pool.name] = pool
            self._live[pool.name] = 0
        if self.budget_per_hour <= 0:
            raise ScheduleError("budget_per_hour must be positive")
        if not 0 <= self.scale_down_backlog < self.scale_up_backlog:
            raise ScheduleError(
                "scale_down_backlog must sit in [0, scale_up_backlog) -- "
                "the thresholds are a hysteresis band"
            )
        if self.provision_delay < 0 or self.cooldown < 0:
            raise ScheduleError("delays must be non-negative")
        if self.min_replicas < 1:
            raise ScheduleError("min_replicas must be at least 1")
        for name in self.initial_pools:
            if name not in self._by_name:
                raise ScheduleError(f"initial pool {name!r} is not a pool")

    # -- fleet bookkeeping ---------------------------------------------------

    def attach(self, index: int, name: str) -> CapacityPool:
        """Bind an *initial* replica to its pool; bill and count it.

        Called once per starting executor by the fleet loop (in index
        order, using :attr:`initial_pools`).  Enforces the same limit
        and budget discipline autoscaled joins face, so a starting
        fleet the operator could not afford fails at construction, not
        mid-run.

        Returns:
            The pool, so the caller can read its rate and seed factor.
        """
        pool = self._by_name[name]
        self._commit(pool)
        self._pool_of[index] = pool
        return pool

    def _commit(self, pool: CapacityPool) -> None:
        if self._live[pool.name] >= pool.limit:
            raise ScheduleError(f"pool {pool.name!r} is at its limit")
        if self._committed_rate + pool.hourly_rate > self.budget_per_hour:
            raise ScheduleError(
                f"pool {pool.name!r} would exceed the "
                f"${self.budget_per_hour}/h budget"
            )
        self._live[pool.name] += 1
        self._committed_rate += pool.hourly_rate

    def on_joined(self, index: int, pool: CapacityPool) -> None:
        """Record a scale-up landing: ``index`` now runs on ``pool``.

        The pool was already billed and counted when :meth:`plan`
        committed the buy (capacity bills from the decision, not the
        landing); this only binds the new replica index.
        """
        self._pool_of[index] = pool

    def on_retired(self, index: int) -> None:
        """Release a retired/reclaimed replica's budget and pool slot."""
        pool = self._pool_of.pop(index)
        self._live[pool.name] -= 1
        self._committed_rate -= pool.hourly_rate

    # -- decisions -----------------------------------------------------------

    def ready(self, now: float) -> bool:
        """Whether the cooldown window since the last action has passed.

        The fleet loop checks this *before* computing the (fleet-wide,
        O(jobs)) backlog and pressure signals, so a cold autoscaler
        costs nothing on the event hot path.
        """
        return now - self._last_action >= self.cooldown

    def plan(
        self,
        now: float,
        loads: list[tuple[int, float]],
        pressure: int,
    ) -> tuple[str, CapacityPool | int] | None:
        """One scaling decision from the current fleet signals.

        Args:
            now: The probing event's virtual time.
            loads: ``(replica index, backlog seconds)`` per *routable*
                replica -- draining and retired replicas are excluded;
                their leftover work shows up in nobody's backlog until
                it lands somewhere routable.
            pressure: Fleet-wide sum of queued already-priced-as-missed
                deadline jobs (see
                :meth:`~repro.serve.orchestrator.OnlineOrchestrator.deadline_pressure`).

        Returns:
            ``("join", pool)`` -- the caller schedules a
            :attr:`~repro.serve.events.EventKind.REPLICA_JOIN` at
            ``now + provision_delay``; the pool is already billed.
            ``("retire", index)`` -- the caller begins a graceful
            drain-then-retire of that replica.  ``None`` -- fleet is
            the right size (or cooling down / out of budget).
        """
        if not self.ready(now):
            return None
        routable = len(loads)
        per = sum(backlog for _, backlog in loads) / routable if routable else 0.0
        starving = routable == 0
        if starving or per > self.scale_up_backlog or pressure > 0:
            pool = self._cheapest_available()
            if pool is None:
                return None
            self._commit(pool)
            self._last_action = now
            return ("join", pool)
        if (
            per < self.scale_down_backlog
            and pressure == 0
            and routable > self.min_replicas
        ):
            # Emptiest replica; ties go to the most expensive pool,
            # then the youngest replica (highest index) -- all total
            # orders, so the victim is deterministic.
            index, _ = min(
                loads,
                key=lambda item: (
                    item[1],
                    -self._pool_of[item[0]].hourly_rate,
                    -item[0],
                ),
            )
            self._last_action = now
            return ("retire", index)
        return None

    def _cheapest_available(self) -> CapacityPool | None:
        best: CapacityPool | None = None
        for pool in self.pools:
            if self._live[pool.name] >= pool.limit:
                continue
            if self._committed_rate + pool.hourly_rate > self.budget_per_hour:
                continue
            if best is None or pool.hourly_rate < best.hourly_rate:
                best = pool
        return best

    def pick_reclaim_victims(self, count: int, candidates: list[int]) -> list[int]:
        """The spot replicas a reclamation notice takes back.

        Providers reclaim their own (spot) hardware: only candidates
        bought from ``spot=True`` pools qualify, newest (highest index)
        first -- the replicas bought for burst go back first.  At least
        one candidate always survives, so a notice can shrink the fleet
        to one routable replica but never to zero.

        Args:
            count: Replicas the notice asks for.
            candidates: Routable replica indices at notice time.

        Returns:
            Victim indices, possibly fewer than ``count`` (no spot
            capacity left to take), possibly empty.
        """
        spot = sorted(
            (i for i in candidates if self._pool_of[i].spot), reverse=True
        )
        ceiling = min(count, len(candidates) - 1)
        return spot[: max(0, ceiling)]
