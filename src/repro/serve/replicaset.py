"""Multi-replica serving: N pipelines, one tenant stream.

One :class:`~repro.serve.orchestrator.OnlineOrchestrator` drives one
pipeline.  The :class:`ReplicaSet` scales that out: it owns several
independent orchestrators (one per pipeline replica, each with its own
executor), routes every arriving tenant to exactly one of them through a
pluggable :class:`~repro.serve.router.RoutingPolicy`, and -- when the
load skew between replicas exceeds a threshold -- *migrates* jobs
between pipelines.

A set is one single-shot run: it holds the discrete-event kernel of
:mod:`repro.serve.events` and its run state itself.  Arrivals,
per-replica wave closes and scale actions are typed events on one
global heap, control work (rebalance checks, migrations, drains) runs
on the kernel's immediate lane, and each event kind has one handler
method.  Each replica is read once per change: an event that mutates it
marks it stale, and one refresh re-reads it into its row (routing
columns, rebalance load, deadline pressure) for every consumer --
router, rebalancer and autoscaler alike (a view is rebuilt only when a
policy reads it).  So finding the next actor is O(log n) instead of an
O(n) clock scan -- which is what makes 100-1000-replica traces
replayable (``benchmarks/bench_fleet_kernel.py`` measures the per-event
cost).  Every arrival is routed against replica state as of the arrival
instant, which is what makes least-loaded and packing-affinity policies
meaningful.  Batch :meth:`ReplicaSet.run` and the live
:class:`FleetSession` pump the same dispatch.

Migration is lossless.  A pending job moves as a queue entry (a
*reroute*); an admitted job moves between waves as a
:class:`~repro.serve.orchestrator.MigrationTicket` carrying the
executor's exported state -- for numeric executors, the adapter weights,
AdamW moments, and progress counters from
:meth:`~repro.runtime.engine.MultiLoRAEngine.export_job_state`.  Because
export happens only at optimizer-step boundaries and the destination
model shares the same frozen base weights, a migrated job's final
adapter is bit-identical to an unmigrated run
(``tests/integration/test_migration_losslessness.py``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, overload

import numpy as np

from repro.errors import ScheduleError, require_finite
from repro.serve.autoscaler import CapacityPool, FleetAutoscaler
from repro.serve.events import Event, EventKernel, EventKind
from repro.serve.executors import Executor
from repro.serve.jobs import ServeJob
from repro.serve.metrics import JobRecord, ReplicaSetResult
from repro.serve.orchestrator import (
    MigrationTicket,
    OnlineOrchestrator,
    OrchestratorConfig,
)
from repro.serve.router import (
    FleetArrays,
    LeastLoadedRouting,
    ReplicaView,
    RoutingPolicy,
    TenantRouter,
)

__all__ = ["ReplicaSetConfig", "ReplicaSet", "FleetSession"]

#: A planned rebalance action: ``("migrate", adapter_id, source, target)``
#: or ``("drain", source, migrant_or_None)``; ``None`` ends the pass.
_RebalanceAction = tuple


@dataclass
class _RebalancePass:
    """One rebalance pass's bookkeeping, carried through posted events.

    The REBALANCE/MIGRATION/FLUSH chain threads it from check to action
    and back, so a pass moves each job at most once and drains each
    replica at most once.
    """

    #: Adapters already moved this pass (a job moves at most once).
    moved: set[int] = field(default_factory=set)
    #: Replicas already drained this pass (a replica drains at most once).
    drained: set[int] = field(default_factory=set)


@dataclass
class ReplicaSetConfig:
    """Tunables of the multi-replica serving layer.

    The rebalancer has two trigger modes, matching the two load units
    :class:`~repro.serve.router.ReplicaView` reports.
    ``migration_time_threshold`` is the cost-priced mode: it compares
    replicas on their completion horizons -- virtual clock plus
    ``expected_remaining_time`` **seconds** (the same estimator-priced
    backlog routing sees) -- and picks the migrant that best evens the
    seconds gap.  Two replicas owing the same batch count can owe very
    different amounts of time, so this is the mode to use whenever an
    estimator is configured.
    ``migration_threshold`` is the legacy batch-count mode.  When both
    are set, seconds win (they are the finer measure).

    Attributes:
        orchestrator: Per-replica orchestrator configuration (every
            replica runs the same scheduler/window/admission settings).
        routing: Tenant placement policy;
            :class:`~repro.serve.router.LeastLoadedRouting` when omitted.
        migration_threshold: Maximum tolerated outstanding-batch skew
            (a **count**) between the most and least loaded replicas
            before the set migrates jobs to rebalance; ``None`` disables
            the batch-skew trigger.
        migration_time_threshold: Maximum tolerated
            ``expected_remaining_time`` skew in **seconds**; requires
            the orchestrator to carry a
            :class:`~repro.serve.costing.CostEstimator`.  ``None``
            disables the seconds-skew trigger.
        drain_then_migrate: When a triggered rebalance finds no movable
            job -- under a deep pipeline the wave tail is usually in
            flight, so active jobs are not at step boundaries -- pay a
            pipeline drain on the overloaded replica to bring a migrant
            to a boundary and retry.  When a specific mid-flight job is
            worth moving, the drain is *partial*
            (:meth:`~repro.serve.orchestrator.OnlineOrchestrator.drain_for`):
            it stops once that job's submitted batches have stepped,
            leaving the other tenants' pipeline tails in flight --
            ``ReplicaSetResult.drain_steps_saved`` counts the optimizer
            steps a full flush would have forced early.  Only when no
            single candidate qualifies does the set fall back to the
            full flush
            (:meth:`~repro.serve.orchestrator.OnlineOrchestrator.flush`).
            Off by default: even a partial drain costs bubbles, so
            leave it off unless rebalances are visibly starving
            (``ReplicaSetResult.rebalance_drains`` counts the drains
            paid).
        autoscaler: Optional
            :class:`~repro.serve.autoscaler.FleetAutoscaler` making the
            replica count elastic: the fleet loop probes it after every
            event (cooldown-gated), turns its decisions into
            ``REPLICA_JOIN`` / ``REPLICA_RETIRE`` kernel events, and
            runs its spot-reclamation notices with lossless evacuation
            under each notice's deadline.  Requires an orchestrator
            estimator (the backlog signal is priced in seconds) and an
            ``executor_factory``.
        executor_factory: Builds the executor for a replica joining
            from a given :class:`~repro.serve.autoscaler.CapacityPool`
            (e.g. a :class:`~repro.serve.executors.StreamingSimExecutor`
            over that pool's GPU cost model).  Required with an
            autoscaler; for numeric serving it must produce engines
            sharing the fleet's frozen base weights, or migration onto
            the new replica would not be lossless.
    """

    orchestrator: OrchestratorConfig
    routing: RoutingPolicy | None = None
    migration_threshold: int | None = None
    migration_time_threshold: float | None = None
    drain_then_migrate: bool = False
    autoscaler: FleetAutoscaler | None = None
    executor_factory: Callable[[CapacityPool], Executor] | None = None

    def __post_init__(self) -> None:
        require_finite(
            migration_threshold=self.migration_threshold,
            migration_time_threshold=self.migration_time_threshold,
        )
        if self.migration_threshold is not None and self.migration_threshold < 0:
            raise ScheduleError("migration_threshold must be non-negative")
        if self.migration_time_threshold is not None:
            if self.migration_time_threshold < 0:
                raise ScheduleError(
                    "migration_time_threshold must be non-negative"
                )
            if self.orchestrator.estimator is None:
                raise ScheduleError(
                    "migration_time_threshold compares replicas in expected "
                    "seconds; configure an estimator on the orchestrator"
                )
        if self.drain_then_migrate and (
            self.migration_threshold is None
            and self.migration_time_threshold is None
        ):
            raise ScheduleError(
                "drain_then_migrate without a migration threshold would "
                "never fire; set migration_threshold or "
                "migration_time_threshold"
            )
        if self.autoscaler is not None:
            if self.orchestrator.estimator is None:
                raise ScheduleError(
                    "autoscaling watches the seconds-valued backlog; "
                    "configure an estimator on the orchestrator"
                )
            if self.executor_factory is None:
                raise ScheduleError(
                    "autoscaling needs an executor_factory to build the "
                    "executor a joining replica runs on"
                )


class ReplicaSet:
    """Serves one tenant stream across several pipeline replicas.

    The set is its own (single-shot) run: it holds the event kernel,
    one row per replica, and one handler per :class:`EventKind`.
    :meth:`run` ingests a sorted workload and pumps the kernel to
    exhaustion; :meth:`open_session` hands a :class:`FleetSession` that
    ingests live submissions one at a time and pumps to each
    submission's stamp.  Both paths share every line of dispatch, which
    is what makes a recorded gateway session replay bit-identically
    through the batch path.

    Arrivals are scheduled on the heap (lane = adapter id, so
    simultaneous arrivals keep their sorted order); each working
    replica keeps exactly one WAVE_CLOSE event at its current clock.
    An event that moves the clock cancels it and schedules a new one;
    an event that leaves the clock where it was keeps it.  The heap's
    ``(time, (kind, lane), seq)`` order makes a wave close at an
    arrival's instant yield to the arrival (so routing sees every
    replica as of that instant), and advances equal-clock replicas in
    index order.  Control events -- the rebalance check after every
    arrival and wave close, and the migrations/drains it decides -- run
    on the kernel's immediate lane, ahead of any timed event.

    Each replica is read once per change.  An event that mutates a
    replica adds it to one staleness set, ``stale``; :meth:`_refresh`
    re-reads every stale replica into its row -- the router's
    :class:`~repro.serve.router.FleetArrays` columns
    (``expected_remaining_seconds()`` and ``num_active``), the
    rebalance load (when rebalancing is on) and, on elastic fleets, the
    replica's ``deadline_pressure()`` -- and drops its cached view.
    Routing, rebalancing and the autoscaler all read those rows and
    call no orchestrator themselves.  Views are built on read: routing
    gets a lazy sequence, and a dropped view is rebuilt only when a
    policy indexes it, so an arrival routed from the columns builds
    none.  Caching is sound because every row is a pure function of
    one replica's state -- with a single exception: a calibration
    observe on replica *B* reprices any tenant of *B*'s closed wave
    that has since migrated to another replica, so the set watches the
    tracker's version stamp and marks the migrant's current host stale
    too.

    Args:
        executors: One execution backend per replica.  For numeric
            serving the engines must share identical frozen base weights
            (build each model from the same seed), or migration would not
            be lossless.
        config: Replica-set tunables.

    Attributes:
        kernel: The event heap the run goes on.
        records: Live records by adapter id, filled as arrivals are
            offered.
        stale: Replicas whose rows :meth:`_refresh` must re-read.
        arrays: The routing columns, one row per replica.
        loads: Rebalance loads per replica (with rebalancing on).
        pressure: Deadline pressure per replica (elastic fleets).
        views: Cached routing views; ``None`` until read.
    """

    def __init__(self, executors: list[Executor], config: ReplicaSetConfig) -> None:
        if not executors:
            raise ScheduleError("a replica set needs at least one executor")
        self.config = config
        self.replicas: list[OnlineOrchestrator] = []
        self.router = TenantRouter(config.routing or LeastLoadedRouting())
        self._migrations = 0
        self._reroutes = 0
        self._rebalance_drains = 0
        self._drain_steps_saved = 0
        self._ran = False
        # Elastic-fleet accounting.  With no autoscaler none of it
        # changes after construction and the result carries no
        # intervals (the legacy aggregation identities).
        self._autoscaler = config.autoscaler
        self._joined_at: list[float] = []
        self._retired_at: list[float | None] = []
        self._hourly_rates: list[float] = []
        self._joins = 0
        self._retires = 0
        self._reclaims = 0
        self._forced_evacuations = 0
        self._reclaim_latencies: list[float] = []
        estimator = config.orchestrator.estimator
        self._calibration = estimator.calibration if estimator is not None else None
        pools: list[CapacityPool | None] = [None] * len(executors)
        if self._autoscaler is not None:
            names = self._autoscaler.initial_pools
            if len(names) != len(executors):
                raise ScheduleError(
                    f"autoscaler names {len(names)} initial pool(s) for "
                    f"{len(executors)} executor(s)"
                )
            pools = [
                self._autoscaler.attach(index, name)
                for index, name in enumerate(names)
            ]
        for executor, pool in zip(executors, pools):
            self._add_replica(executor, pool, 0.0)
        # The run's state.  Seeding a slow pool bumps the calibration
        # version, so it is read only now.
        n = len(executors)
        self.kernel = EventKernel()
        self.records: dict[int, JobRecord] = {}
        self._params = self._rebalance_params()
        calibration = self._calibration
        self._seen_version = calibration.version if calibration is not None else 0
        # One row per replica, re-read by _refresh once per change.
        self.views: list[ReplicaView | None] = [None] * n
        self.arrays = FleetArrays.for_fleet(n)
        self.loads = np.empty(n, dtype=np.float64)  # with rebalancing
        self.pressure = np.zeros(n, dtype=np.int64)  # elastic fleets
        self.stale: set[int] = set(range(n))
        self._wave_events: list[Event | None] = [None] * n
        # Elastic-fleet state; untouched on a fixed fleet.
        self._deadline_events: dict[int, Event] = {}
        self._held: list[MigrationTicket] = []
        self._unroutable: set[int] = set()
        self._routable_cache: list[int] | None = None
        self._routable_rows = np.empty(0, dtype=np.int64)  # built with the cache
        self._reclaim_started: dict[int, float] = {}
        self._handlers: dict[EventKind, Callable[[Event], bool | None]] = {
            EventKind.ARRIVAL: self._on_arrival,
            EventKind.GATEWAY_INGRESS: self._on_arrival,
            EventKind.WAVE_CLOSE: self._on_wave_close,
            EventKind.REBALANCE: self._on_rebalance,
            EventKind.MIGRATION: self._on_migration,
            EventKind.FLUSH: self._on_flush,
            EventKind.REPLICA_JOIN: self._on_join,
            EventKind.REPLICA_RETIRE: self._on_retire,
            EventKind.RECLAIM_DEADLINE: self._on_reclaim_deadline,
        }
        if self._autoscaler is not None:
            for lane, notice in enumerate(self._autoscaler.reclamations):
                self.kernel.schedule(
                    notice.time,
                    EventKind.REPLICA_RETIRE,
                    payload=("reclaim", notice),
                    lane=lane,
                )

    def _add_replica(
        self, executor: Executor, pool: CapacityPool | None, time: float
    ) -> OnlineOrchestrator:
        """Append one replica on ``executor``, online from ``time``.

        Bills its pool's hourly rate (``0.0`` on a fixed fleet) and
        seeds calibration with a slow pool's speed factor.
        """
        index = len(self.replicas)
        replica = OnlineOrchestrator(executor, self.config.orchestrator, replica_id=index)
        self.replicas.append(replica)
        self._joined_at.append(time)
        self._retired_at.append(None)
        self._hourly_rates.append(0.0 if pool is None else pool.hourly_rate)
        calibration = self._calibration
        if pool is not None and calibration is not None and pool.speed_factor != 1.0:
            calibration.seed_replica(index, pool.speed_factor)
        return replica

    @property
    def num_replicas(self) -> int:
        """Pipeline replicas in the set (including retired ones)."""
        return len(self.replicas)

    def _replica_view(self, index: int) -> ReplicaView:
        """One replica's current :class:`~repro.serve.router.ReplicaView`.

        Load is reported in both units: ``outstanding_batches`` counts
        active **plus parked plus pending** work, and -- when the
        orchestrators carry a :class:`~repro.serve.costing.CostEstimator`
        -- the same work is priced in expected seconds
        (``expected_remaining_time``) for cost-aware policies.  A pure
        function of the replica's state: the set builds it only when a
        routing policy reads it, caches the result and drops it when an
        event mutates that replica, which is safe exactly because
        nothing here depends on other replicas.
        """
        replica = self.replicas[index]
        return ReplicaView(
            index=index,
            clock=replica.clock,
            outstanding_batches=replica.outstanding_batches(),
            num_active=replica.num_active,
            num_pending=replica.num_pending,
            num_parked=replica.num_parked,
            slots_free=replica.slots_free,
            live_mean_lengths=tuple(replica.live_mean_lengths()),
            live_priorities=tuple(replica.live_priorities()),
            live_profiles=tuple(replica.live_profiles()),
            expected_remaining_time=replica.expected_remaining_seconds(),
        )

    # -- the serving loop ---------------------------------------------------

    def run(self, workload: list[ServeJob]) -> ReplicaSetResult:
        """Serve ``workload`` to completion across the replica set.

        Args:
            workload: Jobs with distinct adapter ids, any arrival order.

        Returns:
            Per-replica results plus fleet-wide records and counters.

        Raises:
            ScheduleError: On reuse or duplicate adapter ids.
        """
        self._take_shot()
        ids = [job.adapter_id for job in workload]
        if len(set(ids)) != len(ids):
            raise ScheduleError(f"duplicate adapter ids in workload: {ids}")
        for job in sorted(workload, key=lambda job: (job.arrival_time, job.adapter_id)):
            self._ingest(job, EventKind.ARRIVAL)
        return self._finish()

    def open_session(self) -> FleetSession:
        """Open the fleet for incremental, live-driven serving.

        The session form of :meth:`run`, for callers that discover the
        workload as it happens -- the live gateway
        (:class:`~repro.serve.gateway.ServeGateway`).  Jobs are ingested
        one at a time, the fleet is pumped only up to each caller-chosen
        time frontier, and :meth:`FleetSession.finish` runs the loop to
        exhaustion and assembles the same :class:`ReplicaSetResult` a
        batch run would.  Consumes the set's single shot, exactly like
        :meth:`run`.
        """
        self._take_shot()
        return FleetSession(self)

    def _take_shot(self) -> None:
        """Consume the set's single run (a second one raises) and start
        every replica."""
        if self._ran:
            raise ScheduleError("ReplicaSet.run is single-shot; construct a fresh set")
        self._ran = True
        for replica in self.replicas:
            replica.start([])

    def _ingest(self, job: ServeJob, kind: EventKind) -> None:
        """Schedule one job's arrival (``ARRIVAL`` for trace replay,
        ``GATEWAY_INGRESS`` for a live submission)."""
        self.kernel.schedule(job.arrival_time, kind, payload=job, lane=job.adapter_id)

    def _pump(self, frontier: float) -> None:
        """Process every due event with timestamp at or before ``frontier``.

        Each event runs its handler, then (elastic fleets) the scale
        probe.  A rebalance check that ends its pass returns ``False``:
        it changed nothing, so the probe is skipped for it.
        """
        while (event := self.kernel.pop_until(frontier)) is not None:
            if self._handlers[event.kind](event) is False or self._autoscaler is None:
                continue
            # Any event can free a slot for a held job, or shift the
            # backlog the autoscaler watches.
            if self._held:
                self._held = [t for t in self._held if not self._place(t)]
            self._probe_autoscaler(event.time)

    def _finish(self) -> ReplicaSetResult:
        """Run the kernel dry, verify no evacuated job is stranded, and
        assemble the result."""
        self._pump(math.inf)
        if self._held:
            raise ScheduleError(
                f"{len(self._held)} evacuated job(s) never found a new "
                "replica -- the fleet retired capacity it still needed"
            )
        return self._assemble_result()

    def _assemble_result(self) -> ReplicaSetResult:
        """Finish every replica and fold the run into one result."""
        results = [replica.finish() for replica in self.replicas]
        records: dict[int, JobRecord] = {}
        for result in results:
            records.update(result.records)
        # Active intervals (and the GPU-time bill) only exist for
        # autoscaled runs; a fixed fleet reports none, keeping the
        # legacy makespan-weighted aggregation identities intact.
        intervals: list[tuple[float, float]] = []
        gpu_seconds = 0.0
        dollars = 0.0
        if self._autoscaler is not None:
            ends = [result.makespan for result in results]
            ends += [t for t in self._retired_at if t is not None]
            fleet_end = float(max(ends))
            for index, result in enumerate(results):
                start = float(self._joined_at[index])
                retired = self._retired_at[index]
                end = max(start, fleet_end if retired is None else float(retired))
                intervals.append((start, end))
                gpu_seconds += end - start
                dollars += (end - start) / 3600.0 * self._hourly_rates[index]
        return ReplicaSetResult(
            replicas=results,
            records=records,
            migrations=self._migrations,
            reroutes=self._reroutes,
            rebalance_drains=self._rebalance_drains,
            drain_steps_saved=self._drain_steps_saved,
            events_processed={
                kind.name: count
                for kind, count in sorted(self.kernel.processed.items())
            },
            joins=self._joins,
            retires=self._retires,
            reclaims=self._reclaims,
            forced_evacuations=self._forced_evacuations,
            reclaim_latencies=list(self._reclaim_latencies),
            replica_intervals=intervals,
            gpu_seconds=gpu_seconds,
            dollars_spent=dollars,
        )

    # -- rebalancing --------------------------------------------------------
    #
    # With ``migration_time_threshold`` set, skew is measured in
    # estimator-priced **seconds** -- each replica's *completion
    # horizon*, its virtual clock plus ``expected_remaining_time``.
    # Seconds compose with the clock (batch counts cannot), and the
    # horizon is what a migrated job actually experiences: between
    # arrivals replica clocks drift apart, and a job moved to a
    # remaining-time-light replica whose clock runs *later* would finish
    # later, not earlier.  Without the time threshold, skew is
    # outstanding **batches** (the legacy trigger).  Each check moves one
    # job from the most to the least loaded replica when that strictly
    # reduces the skew *as priced at the source*.  A job moves at most
    # once per pass: corrected prices are replica-keyed, so a tenant can
    # reprice after landing, and without that guard a near-threshold
    # weight could ping-pong between two replicas.  The once-per-job
    # bound also makes termination unconditional.  When no job can move
    # -- typically a deep pipeline holding every active job mid-wave --
    # ``drain_then_migrate`` pays one drain on the overloaded replica (at
    # most once per replica per pass) to unlock the migration; see
    # :meth:`_apply_drain` for the partial-vs-full choice.

    def _rebalance_params(self) -> tuple[float, bool] | None:
        """The active ``(threshold, seconds_mode)``, or ``None`` when off."""
        seconds_mode = self.config.migration_time_threshold is not None
        threshold: float | None = (
            self.config.migration_time_threshold
            if seconds_mode
            else self.config.migration_threshold
        )
        if threshold is None:
            return None
        # A single-replica fleet has nothing to rebalance -- unless an
        # autoscaler can grow it mid-run (per-check fleet size is then
        # _plan_rebalance's indices guard).
        if len(self.replicas) < 2 and self._autoscaler is None:
            return None
        return float(threshold), seconds_mode

    def _replica_load(self, index: int, seconds_mode: bool) -> float:
        """One replica's rebalance load, in the active trigger's unit.

        Seconds mode compares completion *horizons* -- virtual clock
        plus estimator-priced remaining seconds; batch mode counts
        outstanding global batches.  Pure in the replica's own state
        (plus, in seconds mode, the calibration factors of its own
        tenants), which is what lets the set cache it in ``loads``.
        """
        replica = self.replicas[index]
        if seconds_mode:
            return replica.clock + (replica.expected_remaining_seconds() or 0.0)
        return float(replica.outstanding_batches())

    def _plan_rebalance(
        self,
        loads: "np.ndarray | list[float]",
        threshold: float,
        seconds_mode: bool,
        moved: set[int],
        drained: set[int],
        indices: list[int] | None = None,
    ) -> _RebalanceAction | None:
        """Decide one rebalance step from the given loads.

        The single decision procedure of every fleet loop (the test
        suite's scan-loop reference calls it too).  Returns ``("migrate",
        adapter_id, source, target)`` when a job should move,
        ``("drain", source, migrant)`` when ``drain_then_migrate``
        should pay a drain to unlock one (``migrant`` is the mid-flight
        job a partial drain targets, ``None`` for a full flush), or
        ``None`` when the pass is over (skew within threshold, or
        nothing left to try).  ``indices`` restricts the pass to a
        subset of ``loads``'s rows -- the elastic fleet's routable
        replicas, so a draining or retired replica is neither a source
        nor a target; ``None`` (fixed fleets) considers every row with
        no subset copy.
        """
        # argmax/argmin return the *first* extreme index, exactly like
        # ``max(range(n), key=loads.__getitem__)`` on ties -- one C sweep
        # instead of a Python comparison loop over the fleet.
        array = np.asarray(loads, dtype=np.float64)
        if indices is None:
            source = int(np.argmax(array))
            target = int(np.argmin(array))
        else:
            if len(indices) < 2:
                return None
            sub = array[indices]
            source = indices[int(np.argmax(sub))]
            target = indices[int(np.argmin(sub))]
        skew = float(array[source]) - float(array[target])
        if skew <= threshold:
            return None
        replica = self.replicas[source]
        slot_free = self.replicas[target].slots_free != 0
        adapter_id = _pick_migrant(
            replica.migratable_jobs(), skew, seconds_mode, moved, slot_free
        )
        if adapter_id is not None:
            return ("migrate", adapter_id, source, target)
        if self.config.drain_then_migrate and source not in drained:
            # The mid-flight jobs a partial drain could unlock; moving
            # one needs a slot on the target.  No pick: a full flush.
            mid_flight = replica.drainable_jobs() if slot_free else []
            migrant = _pick_migrant(
                [entry + (False,) for entry in mid_flight],
                skew, seconds_mode, moved, slot_free,
            )
            return ("drain", source, migrant)
        return None

    def _apply_drain(self, source: int, migrant: int | None) -> None:
        """Pay the drain that unlocks migration on ``source``.

        With a ``migrant`` picked, the drain is partial
        (:meth:`~repro.serve.orchestrator.OnlineOrchestrator.drain_for`):
        the pipeline runs only until that job's submitted batches have
        stepped, and the optimizer steps left un-forced on the other
        tenants -- steps a full flush would have dragged to completion
        early -- are banked in ``drain_steps_saved``.  Without one, the
        full flush
        (:meth:`~repro.serve.orchestrator.OnlineOrchestrator.flush`)
        brings every active job to a boundary (and may retire jobs,
        settling the skew by itself).
        """
        self._rebalance_drains += 1
        if migrant is None:
            self.replicas[source].flush()
        else:
            self._drain_steps_saved += self.replicas[source].drain_for(migrant)

    def _migrate(self, adapter_id: int, source: int, target: int) -> None:
        """Move one job from replica ``source`` to replica ``target``."""
        self._land(self.replicas[source].eject_job(adapter_id), target)

    def _land(self, ticket: MigrationTicket, target: int) -> None:
        """Inject an ejected job on ``target`` and account for the move.

        A ticket without payload was still queued (a reroute); one
        carrying exported state is a migration of an admitted job.
        """
        self.replicas[target].inject_job(ticket)
        ticket.record.replica = target
        self.router.reassign(ticket.adapter_id, target)
        if ticket.payload is None:
            self._reroutes += 1
        else:
            ticket.record.migrations += 1
            self._migrations += 1

    # -- replica rows -------------------------------------------------------

    def _resync(self, index: int) -> None:
        """Mark ``index`` stale and keep its next wave close at its clock.

        A live wave close already at the replica's clock stays; any
        other is cancelled and, while the replica has work, scheduled
        anew.  Keeping it changes no pop order: the heap key is
        ``(time, (kind, lane), seq)`` with the replica index as lane, so
        ``seq`` never orders two live wave closes.
        """
        self.stale.add(index)
        calibration = self._calibration
        if calibration is not None and calibration.version != self._seen_version:
            fresh = calibration.version
            if fresh == self._seen_version + 1:
                # One observe: its wave tenants live here unless they
                # migrated away -- mark their current hosts stale too.
                for adapter_id in calibration.last_observed_tenants:
                    host = self.router.assignments.get(adapter_id)
                    if host is not None and host != index:
                        self.stale.add(host)
            else:
                # Can't attribute multiple observes; stale every row.
                self.stale.update(range(len(self.replicas)))
            self._seen_version = fresh
        replica = self.replicas[index]
        clock = replica.clock if replica.has_work() else None
        wave = self._wave_events[index]
        if wave is not None:
            if wave.time == clock:
                return
            self.kernel.cancel(wave)
            self._wave_events[index] = None
        if clock is not None:
            self._wave_events[index] = self.kernel.schedule(
                clock, EventKind.WAVE_CLOSE, payload=index, lane=index
            )

    def _refresh(self) -> None:
        """Re-read every stale replica into its row, then clear ``stale``.

        O(dirty), not O(fleet), and one backlog read per replica: the
        seconds-mode load is the clock plus the backlog the router
        column holds.  Call it before reading any row; a view is built
        by :meth:`_view` on first read after its drop here.
        """
        params = self._params
        for index in self.stale:
            replica = self.replicas[index]
            backlog = replica.expected_remaining_seconds()
            self.arrays.refill(index, backlog, replica.num_active)
            if params is not None:
                self.loads[index] = (
                    replica.clock + (backlog or 0.0)
                    if params[1]
                    else float(replica.outstanding_batches())
                )
            if self._autoscaler is not None:
                self.pressure[index] = replica.deadline_pressure()
            self.views[index] = None
        self.stale.clear()

    def _view(self, index: int) -> ReplicaView:
        """Replica ``index``'s routing view, built on first read."""
        view = self.views[index]
        if view is None:
            view = self.views[index] = self._replica_view(index)
        return view

    def _routable(self) -> list[int]:
        """Indices arrivals, migrations, and evacuees may land on.

        Excludes draining (reclamation-marked) and retired replicas.
        Cached -- the fixed-fleet hot path pays one list build total,
        and scale events invalidate it.
        """
        if self._routable_cache is None:
            self._routable_cache = [
                i for i in range(len(self.replicas)) if i not in self._unroutable
            ]
            self._routable_rows = np.array(self._routable_cache, dtype=np.int64)
        return self._routable_cache

    # -- handlers: arrivals, waves, rebalancing -----------------------------

    def _on_arrival(self, event: Event) -> None:
        """Route a job (trace ARRIVAL or live GATEWAY_INGRESS) and offer it."""
        job = event.payload
        routable = self._routable()
        self._refresh()
        index = self.router.route(
            job, _LazyViews(self, routable), self.arrays.take(self._routable_rows)
        )
        record = self.replicas[index].offer(job)
        record.replica = index
        self.records[job.adapter_id] = record
        self._resync(index)
        if self._params is not None:
            self.kernel.post(EventKind.REBALANCE, _RebalancePass())

    def _on_wave_close(self, event: Event) -> None:
        """Advance one replica's serving loop by one iteration."""
        index = event.payload
        self._wave_events[index] = None  # handed out: nothing to cancel
        self.replicas[index].step()
        self._resync(index)
        if index in self._unroutable and self._retired_at[index] is None:
            # A draining (reclaimed) replica: the wave close just brought
            # active jobs to step boundaries -- evacuate them, and
            # retire early once nothing is left.
            self._evacuate_movable(index)
            if not self.replicas[index].has_work():
                self._complete_retirement(index, event.time, reclaim=True)
        if self._params is not None:
            self.kernel.post(EventKind.REBALANCE, _RebalancePass())

    def _on_rebalance(self, event: Event) -> bool:
        """One skew check of the pass in flight; post the action it picks."""
        assert self._params is not None  # only posted when rebalancing is on
        threshold, seconds_mode = self._params
        state = event.payload
        routable = self._routable()
        self._refresh()
        action = self._plan_rebalance(
            self.loads,
            threshold,
            seconds_mode,
            state.moved,
            state.drained,
            None if len(routable) == len(self.replicas) else routable,
        )
        if action is None:
            return False
        kind = EventKind.MIGRATION if action[0] == "migrate" else EventKind.FLUSH
        self.kernel.post(kind, action[1:] + (state,))
        return True

    def _on_migration(self, event: Event) -> None:
        adapter_id, source, target, state = event.payload
        state.moved.add(adapter_id)
        self._migrate(adapter_id, source, target)
        self._resync(source)
        self._resync(target)
        self.kernel.post(EventKind.REBALANCE, state)

    def _on_flush(self, event: Event) -> None:
        source, migrant, state = event.payload
        state.drained.add(source)
        self._apply_drain(source, migrant)
        self._resync(source)
        self.kernel.post(EventKind.REBALANCE, state)

    # -- handlers: scale events ---------------------------------------------

    def _on_join(self, event: Event) -> None:
        """Bring a provisioned replica online at the join instant."""
        assert self._autoscaler is not None  # only scheduled by the probe
        factory = self.config.executor_factory
        assert factory is not None  # config validation
        pool = event.payload
        index = len(self.replicas)
        executor = factory(pool)
        # The new pipeline starts at the join instant, not at virtual
        # zero -- without this it would serve its first jobs "in the
        # past".
        executor.advance(event.time)
        self._add_replica(executor, pool, event.time).start([])
        self.views.append(None)
        self._wave_events.append(None)
        self.loads = np.append(self.loads, 0.0)
        self.pressure = np.append(self.pressure, 0)
        self.arrays.grow()
        self._routable_cache = None
        self._joins += 1
        self._autoscaler.on_joined(index, pool)
        self._resync(index)

    def _on_retire(self, event: Event) -> None:
        """Start a replica's exit: graceful scale-down or a spot reclaim."""
        tag, data = event.payload
        if tag == "scale":
            # Graceful scale-down: partial-drain each mid-flight job,
            # move everything off, retire now.
            index = data
            if index not in self._unroutable:
                self._mark_unroutable(index)
                self._evacuate_all(index, forced=False)
                self._complete_retirement(index, event.time, reclaim=False)
            return
        assert self._autoscaler is not None
        notice = data
        victims = self._autoscaler.pick_reclaim_victims(notice.count, self._routable())
        for index in victims:
            self._mark_unroutable(index)
            self._reclaims += 1
            self._reclaim_started[index] = event.time
            self._evacuate_movable(index)
            if not self.replicas[index].has_work():
                self._complete_retirement(index, event.time, reclaim=True)
            else:
                self._deadline_events[index] = self.kernel.schedule(
                    event.time + notice.deadline,
                    EventKind.RECLAIM_DEADLINE,
                    payload=index,
                    lane=index,
                )

    def _on_reclaim_deadline(self, event: Event) -> None:
        """A reclaim's grace expired: force out whatever is still resident."""
        index = event.payload
        self._deadline_events.pop(index, None)
        if self._retired_at[index] is None:
            # Force every active job to a step boundary and evacuate --
            # adds latency, loses nothing.
            self._forced_evacuations += 1
            self._evacuate_all(index, forced=True)
            self._complete_retirement(index, event.time, reclaim=True)

    # -- elastic-fleet helpers ----------------------------------------------

    def _probe_autoscaler(self, time: float) -> None:
        """Ask the autoscaler for a scale action and schedule it."""
        autoscaler = self._autoscaler
        assert autoscaler is not None
        if not autoscaler.ready(time):
            return
        routable = self._routable()
        self._refresh()
        rows = self._routable_rows
        backlog = list(zip(routable, self.arrays.backlogs[rows].tolist()))
        decision = autoscaler.plan(time, backlog, int(self.pressure[rows].sum()))
        if decision is None:
            return
        if decision[0] == "join":
            self.kernel.schedule(
                time + autoscaler.provision_delay,
                EventKind.REPLICA_JOIN,
                payload=decision[1],
            )
        else:
            self.kernel.post(EventKind.REPLICA_RETIRE, ("scale", decision[1]))

    def _place(self, ticket: MigrationTicket) -> bool:
        """Land an evacuated job on the least-loaded routable replica.

        The lowest index breaks ties; payload-carrying tickets need a
        free adapter slot there.  ``False`` when nowhere fits yet.
        """
        best: tuple[tuple[int, int], int] | None = None
        for index in self._routable():
            replica = self.replicas[index]
            if ticket.payload is not None and replica.slots_free == 0:
                continue
            key = (replica.outstanding_batches(), index)
            if best is None or key < best[0]:
                best = (key, index)
        if best is None:
            return False
        self._land(ticket, best[1])
        self._resync(best[1])
        return True

    def _evacuate_movable(self, index: int) -> None:
        """Eject every pending/parked/boundary job, lowest adapter id
        first; jobs with nowhere to go are held, never dropped."""
        replica = self.replicas[index]
        movable = sorted(entry[0] for entry in replica.migratable_jobs())
        for adapter_id in movable:
            ticket = replica.eject_job(adapter_id)
            if not self._place(ticket):
                self._held.append(ticket)
        if movable:
            self._resync(index)

    def _evacuate_all(self, index: int, forced: bool) -> None:
        """Empty ``index`` completely.

        The graceful path pays one *partial* drain per mid-flight job
        (drain_for: stop at that job's last submitted batch); the forced
        path -- a reclaim deadline expiring -- pays one full flush.
        Either way every job leaves at a step boundary with full state.
        """
        replica = self.replicas[index]
        self._evacuate_movable(index)
        if forced:
            if replica.num_active:
                replica.flush()
        else:
            for adapter_id, _, _ in sorted(replica.drainable_jobs()):
                replica.drain_for(adapter_id)
        self._evacuate_movable(index)
        if replica.has_work():  # jobs a partial drain left mid-flight
            replica.flush()
            self._evacuate_movable(index)

    def _complete_retirement(self, index: int, time: float, reclaim: bool) -> None:
        self._retired_at[index] = time
        self._retires += 1
        if reclaim:
            started = self._reclaim_started.pop(index)
            self._reclaim_latencies.append(float(time - started))
            pending_deadline = self._deadline_events.pop(index, None)
            if pending_deadline is not None:
                self.kernel.cancel(pending_deadline)
        if self._autoscaler is not None:
            self._autoscaler.on_retired(index)
        self._resync(index)  # cancels the wave event; no work remains

    def _mark_unroutable(self, index: int) -> None:
        self._unroutable.add(index)
        self._routable_cache = None


def _pick_migrant(
    candidates: list[tuple[int, int, float | None, bool]],
    skew: float,
    seconds_mode: bool,
    exclude: set[int] | frozenset[int],
    slot_free: bool,
) -> int | None:
    """The candidate whose move best evens out a source and a target.

    ``candidates`` are ``(adapter_id, remaining_batches,
    remaining_seconds, is_pending)`` tuples: the source's movable jobs
    (:meth:`~repro.serve.orchestrator.OnlineOrchestrator.migratable_jobs`),
    or the mid-flight ones a partial drain could unlock.  Each is
    weighed in the skew's own unit -- expected remaining seconds in
    seconds mode, remaining batches otherwise.  Only moves that strictly
    reduce the skew qualify (``0 < weight < skew``), and an active job
    needs ``slot_free`` on the target.  The key is ``(|skew - 2 weight|,
    pending first, adapter id)``: the job bringing the pair closest to
    even wins -- balance is the objective, so a strictly
    better-balancing active job beats a pending one.  Pending jobs win
    ties only, because a queue move costs nothing while an active move
    pays a state transfer; remaining ties go to the lowest adapter id,
    so the pick is deterministic.  Jobs in ``exclude`` (already moved
    this rebalance pass) never qualify; ``None`` when no job does.
    """
    best: tuple[float, bool, int] | None = None
    for adapter_id, batches, seconds, is_pending in candidates:
        if adapter_id in exclude or not (is_pending or slot_free):
            continue
        weight = seconds if seconds_mode else float(batches)
        if weight is None or not 0 < weight < skew:
            continue
        key = (abs(skew - 2 * weight), not is_pending, adapter_id)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


class _LazyViews(Sequence[ReplicaView]):
    """The routable replicas' views, each built only when read.

    What :class:`ReplicaSet` hands :meth:`TenantRouter.route`: position
    ``k`` is replica ``indices[k]``'s view, fetched through the set's
    view cache at the moment a policy indexes or iterates it (the set
    has refreshed its rows just before routing) -- so a
    policy that scores from the columns alone costs no view at all.
    """

    def __init__(self, fleet: ReplicaSet, indices: list[int]) -> None:
        self._fleet = fleet
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    @overload
    def __getitem__(self, position: int) -> ReplicaView: ...

    @overload
    def __getitem__(self, position: slice) -> list[ReplicaView]: ...

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self._fleet._view(i) for i in self._indices[position]]
        return self._fleet._view(self._indices[position])

    def __iter__(self):
        view = self._fleet._view
        return (view(index) for index in self._indices)


class FleetSession:
    """One incrementally-driven fleet run: the live gateway's handle.

    Opened by :meth:`ReplicaSet.open_session`.  Where :meth:`ReplicaSet.run`
    consumes a complete trace, a session discovers its workload as it
    happens: each live submission is :meth:`ingest`-ed as a
    :attr:`~repro.serve.events.EventKind.GATEWAY_INGRESS` event at its
    virtual arrival stamp, and :meth:`advance` pumps the event loop only
    up to the caller's current time frontier -- the fleet never runs
    ahead of wall-clock-derived time.  Because the session pumps the
    same :class:`ReplicaSet` dispatch as the batch path, replaying the
    ingested jobs as a plain trace through a fresh :meth:`ReplicaSet.run`
    reproduces the session's result bit-identically
    (``tests/integration/test_gateway_conformance.py``).

    The contract callers must keep, enforced by :meth:`ingest`: a job's
    ``arrival_time`` is at or after every frontier already passed to
    :meth:`advance` -- the kernel pops events in global time order, so
    an arrival scheduled behind an already-pumped frontier would replay
    in a different position than it ran live.  The gateway keeps it by
    stamping arrivals from its monotone submission clock.
    """

    def __init__(self, replica_set: ReplicaSet) -> None:
        self._set = replica_set
        self._ids: set[int] = set()
        self._frontier = -math.inf
        self._finished: ReplicaSetResult | None = None

    def ingest(self, job: ServeJob) -> None:
        """Schedule one live submission at its ``arrival_time``.

        Raises:
            ScheduleError: On a duplicate adapter id, an arrival behind
                a frontier already pumped, or a finished session.
        """
        if self._finished is not None:
            raise ScheduleError("the fleet session is finished")
        if job.adapter_id in self._ids:
            raise ScheduleError(
                f"duplicate adapter id in session: {job.adapter_id}"
            )
        if job.arrival_time < self._frontier:
            raise ScheduleError(
                f"arrival_time {job.arrival_time} is behind the frontier "
                f"{self._frontier} the session already advanced to"
            )
        self._ids.add(job.adapter_id)
        self._set._ingest(job, EventKind.GATEWAY_INGRESS)

    def advance(self, frontier: float) -> None:
        """Pump every due event with timestamp at or before ``frontier``.

        Raises:
            ScheduleError: On a NaN frontier (``inf`` is legal: it
                pumps everything queued), or a finished session.
        """
        if self._finished is not None:
            raise ScheduleError("the fleet session is finished")
        if math.isnan(frontier):
            raise ScheduleError("the session frontier must not be NaN")
        self._frontier = max(self._frontier, frontier)
        self._set._pump(frontier)

    def record(self, adapter_id: int) -> JobRecord | None:
        """The live :class:`~repro.serve.metrics.JobRecord` of an ingested
        job, or ``None`` while its ingress event is still queued."""
        return self._set.records.get(adapter_id)

    def finish(self) -> ReplicaSetResult:
        """Run the loop to exhaustion and assemble the fleet result.

        Idempotent: the first call drains the kernel and finishes every
        replica; later calls return the same result object.
        """
        if self._finished is None:
            self._finished = self._set._finish()
        return self._finished
