"""Online multi-tenant serving: continuous scheduling over live jobs.

This layer turns the offline schedule->execute pipeline into a serving
system: jobs arrive over virtual time, are admitted against an
adapter-slot budget, scheduled window by window, spliced into the
in-flight microbatch stream, and retired on completion -- with the same
losslessness guarantee the offline path has.

Admission is SLO-aware: a pluggable :class:`OrderingPolicy` ranks slot
candidates (FCFS, SRPT on remaining batches, priority classes, or
earliest deadline first), preemptive policies evict running jobs
losslessly (state exported at an optimizer-step boundary, parked, and
resumed bit-identically), and ``mid_wave_admission`` lets an urgent
arrival cut the running wave instead of waiting for its boundary.

The control plane is cost-model-driven and **closed-loop**: a
:class:`CostEstimator` (:mod:`repro.serve.costing`) prices jobs,
placements, and planning waves in expected seconds; every executed wave
records a predicted/observed pair; and a :class:`CalibrationTracker`
folds those pairs back into smoothed per-tenant/per-replica correction
factors, so routing, ordering, admission, window sizing, and
rebalancing all act on time that keeps itself honest.  The full
estimator math, units discipline, and calibration contract live in
``docs/costing.md``; the operator-facing guide is ``docs/serving.md``;
the module map is ``docs/architecture.md``.

Exported API, by concern (one line each; the class docstrings carry the
contracts):

**Jobs & executors** (``docs/serving.md``)
  * :class:`ServeJob` -- one tenant's request: scheduling view, arrival
    time, optional numeric payload, SLO metadata.
  * :class:`JobOutcome` -- terminal state enum: finished / rejected /
    unfinished.
  * :func:`poisson_workload` -- wrap offline jobs into Poisson arrivals.
  * :class:`Executor` -- the streaming execution protocol (submit /
    drain / export / import).
  * :class:`NumericExecutor` -- real weights behind the protocol
    (losslessness-testable).
  * :class:`StreamingSimExecutor` -- incremental 1F1B pipeline
    simulation (cost-model time).
  * :class:`StepEvent` -- one completed optimizer step, timestamped.
  * :class:`StreamSplicer` -- bubble-safe junctions between planning
    windows.

**Orchestration** (``docs/serving.md``)
  * :class:`OnlineOrchestrator` -- the serving loop over one executor:
    admit, plan, splice, execute, retire.
  * :class:`OrchestratorConfig` -- its tunables (window, admission,
    ordering, estimator, adaptive window, packing scheme).
  * :class:`AdaptiveWindowConfig` -- the window control loop: shrink
    under churn, grow when stable, cap by predicted wave seconds.
  * :class:`MigrationTicket` -- a job in transit between orchestrators.

**Admission** (``docs/costing.md`` section "Choosing policies")
  * :class:`AdmissionPolicy` -- the slot-budget protocol.
  * :class:`SlotAdmission` -- a fixed adapter-slot budget.
  * :class:`MemoryAdmission` -- the budget the GPU memory model derives.
  * :class:`DeadlineFeasibilityAdmission` -- shed deadline-infeasible
    arrivals; optionally queueing-aware (charge the planned backlog).

**Ordering** (``docs/serving.md`` section "SLO & fairness")
  * :class:`OrderingPolicy` -- the slot-candidate ranking protocol.
  * :class:`JobView` -- the policy-facing candidate snapshot.
  * :class:`FCFSOrdering` / :class:`SRPTOrdering` /
    :class:`PriorityOrdering` / :class:`DeadlineOrdering` -- arrival
    order, shortest-remaining (batches or priced seconds), SLO classes,
    EDF/least-laxity; all but FCFS take an aging starvation bound.
  * :func:`policy_keys` -- rank a whole candidate set at once (each
    candidate by the policy's ``key``).

**Fleet kernel** (``docs/architecture.md`` section "The fleet kernel")
  * :class:`EventKernel` -- the discrete-event heart of
    :class:`ReplicaSet`: one global clock, a deterministic event heap,
    an immediate control lane.
  * :class:`Event` -- one scheduled occurrence (time, kind, lane, seq;
    lazily cancellable).
  * :class:`EventKind` -- the event taxonomy: arrival, wave close,
    rebalance, migration, flush, plus the scale events (replica join /
    retire, reclaim deadline).
  * :class:`FleetArrays` -- the two routing columns (expected backlog,
    active jobs) per replica, filled from the orchestrators by the
    kernel's dirty-set caching so array-aware routing builds no view.

**Costing** (``docs/costing.md``)
  * :class:`CostEstimator` -- prices jobs/placements/waves in expected
    seconds from the layer cost model + tenant length moments.
  * :class:`TenantProfile` -- a tenant's length moments, as pricing
    input.
  * :class:`CalibrationTracker` -- the feedback loop: smoothed
    observed/predicted correction factors per tenant and replica.
  * :data:`CALIBRATION_TOLERANCE` -- the a priori honesty band.
  * :data:`CORRECTED_CALIBRATION_TOLERANCE` -- the tightened band once
    correction is active.

**Routing & scale-out** (``docs/serving.md`` section "Many pipelines")
  * :class:`ReplicaSet` / :class:`ReplicaSetConfig` -- N orchestrators,
    one tenant stream; skew-triggered (batches or seconds) lossless
    migration, optional drain-then-migrate unlock.
  * :class:`TenantRouter` -- applies a routing policy, keeps the
    tenant-to-replica map.
  * :class:`RoutingPolicy` -- the placement protocol.
  * :class:`ReplicaView` -- a replica's load snapshot, in both units
    (batch counts and expected seconds).
  * :class:`RoundRobinRouting` / :class:`LeastLoadedRouting` /
    :class:`PackingAffinityRouting` / :class:`PriorityHeadroomRouting` /
    :class:`CostAwareRouting` -- cycle, fewest batches, shape affinity,
    SLO headroom, least seconds-valued backlog growth.

**Autoscaling** (``docs/serving.md`` section "Elastic fleets")
  * :class:`FleetAutoscaler` -- scales the replica count against the
    seconds-valued backlog within a $/GPU-hour budget; scale actions
    are kernel events, spot reclamation is deadline-driven lossless
    evacuation.
  * :class:`CapacityPool` -- one procurable capacity tier: GPU kind,
    hourly price, replica limit, relative speed, spot flag.
  * :class:`ReclamationNotice` -- a scripted spot reclamation: notice
    time, replicas taken, evacuation grace period.

**Live gateway** (``docs/serving.md`` section "Live gateway")
  * :class:`ServeGateway` -- the asyncio front door: wall-clock
    submissions stamped onto virtual time, four door checks (rate,
    queue bound, fairness quota, deadline feasibility), cancellable
    hold window, and a recorded trace that replays bit-identically
    through the sim path.
  * :class:`GatewayLimits` -- the door's protection knobs (all off by
    default).
  * :class:`GatewayTicket` / :class:`GatewayOverload` -- the two submit
    outcomes: accepted, or shed ``429``-style with a reason from
    :data:`SHED_REASONS`.
  * :class:`GatewayResult` -- a drained session: the fleet result plus
    the door's ledger.
  * :class:`GatewayStats` -- that ledger: accept/shed/cancel counts and
    wall-clock admission latencies.
  * :class:`FleetSession` -- the incremental fleet loop under the
    gateway (ingest / advance / finish on the event kernel).
  * :class:`WallClock` / :class:`ManualClock` -- virtual-time sources:
    scaled wall clock for live runs, scripted clock for deterministic
    tests.

**Metrics** (``docs/serving.md`` section "Metrics")
  * :class:`JobRecord` -- one job's lifecycle timestamps and totals.
  * :class:`OrchestratorResult` -- one pipeline's run: latency views,
    calibration views, counters.
  * :class:`ReplicaSetResult` -- the fleet aggregate (sums and weighted
    means that match per-replica drill-down), including the billing
    view: per-replica active ``replica_intervals``, the ``gpu_seconds``
    they sum to, and the ``dollars_spent`` they price to.

**Declarative config** (``docs/tuning.md``)
  * :class:`ServeConfig` -- the whole control plane as one frozen,
    JSON-round-trippable bundle of policy names and scalar knobs; the
    candidate form the autotuner (:mod:`repro.tune`) searches over.
  * :data:`ROUTING_POLICIES` / :data:`ORDERING_POLICIES` /
    :data:`PACKING_SCHEMES` -- the policy and scheme names a bundle
    accepts, in documented order.
  * :data:`GPU_HOURLY_RATE` -- the reference $/GPU-hour that prices
    fixed-fleet runs onto the same dollars axis autoscaled runs bill
    on.
"""

from repro.serve.admission import (
    AdmissionPolicy,
    DeadlineFeasibilityAdmission,
    MemoryAdmission,
    SlotAdmission,
)
from repro.serve.autoscaler import (
    CapacityPool,
    FleetAutoscaler,
    ReclamationNotice,
)
from repro.serve.config import (
    GPU_HOURLY_RATE,
    ORDERING_POLICIES,
    PACKING_SCHEMES,
    ROUTING_POLICIES,
    ServeConfig,
)
from repro.serve.costing import (
    CALIBRATION_TOLERANCE,
    CORRECTED_CALIBRATION_TOLERANCE,
    CalibrationTracker,
    CostEstimator,
    TenantProfile,
)
from repro.serve.events import Event, EventKernel, EventKind
from repro.serve.gateway import (
    SHED_REASONS,
    GatewayLimits,
    GatewayOverload,
    GatewayResult,
    GatewayTicket,
    ManualClock,
    ServeGateway,
    WallClock,
)
from repro.serve.executors import (
    Executor,
    NumericExecutor,
    StepEvent,
    StreamingSimExecutor,
)
from repro.serve.jobs import JobOutcome, ServeJob, poisson_workload
from repro.serve.metrics import (
    GatewayStats,
    JobRecord,
    OrchestratorResult,
    ReplicaSetResult,
)
from repro.serve.orchestrator import (
    AdaptiveWindowConfig,
    MigrationTicket,
    OnlineOrchestrator,
    OrchestratorConfig,
)
from repro.serve.ordering import (
    DeadlineOrdering,
    FCFSOrdering,
    JobView,
    OrderingPolicy,
    PriorityOrdering,
    SRPTOrdering,
    policy_keys,
)
from repro.serve.replicaset import FleetSession, ReplicaSet, ReplicaSetConfig
from repro.serve.router import (
    CostAwareRouting,
    FleetArrays,
    LeastLoadedRouting,
    PackingAffinityRouting,
    PriorityHeadroomRouting,
    ReplicaView,
    RoundRobinRouting,
    RoutingPolicy,
    TenantRouter,
)
from repro.serve.splice import StreamSplicer

__all__ = [
    "AdaptiveWindowConfig",
    "AdmissionPolicy",
    "CALIBRATION_TOLERANCE",
    "CORRECTED_CALIBRATION_TOLERANCE",
    "CalibrationTracker",
    "CapacityPool",
    "CostAwareRouting",
    "CostEstimator",
    "DeadlineFeasibilityAdmission",
    "DeadlineOrdering",
    "Event",
    "EventKernel",
    "EventKind",
    "Executor",
    "FCFSOrdering",
    "FleetArrays",
    "FleetAutoscaler",
    "FleetSession",
    "GPU_HOURLY_RATE",
    "GatewayLimits",
    "GatewayOverload",
    "GatewayResult",
    "GatewayStats",
    "GatewayTicket",
    "JobOutcome",
    "JobRecord",
    "JobView",
    "LeastLoadedRouting",
    "ManualClock",
    "MemoryAdmission",
    "MigrationTicket",
    "NumericExecutor",
    "ORDERING_POLICIES",
    "OnlineOrchestrator",
    "OrchestratorConfig",
    "OrchestratorResult",
    "OrderingPolicy",
    "PACKING_SCHEMES",
    "PackingAffinityRouting",
    "PriorityHeadroomRouting",
    "PriorityOrdering",
    "ROUTING_POLICIES",
    "ReclamationNotice",
    "ReplicaSet",
    "ReplicaSetConfig",
    "ReplicaSetResult",
    "ReplicaView",
    "RoundRobinRouting",
    "RoutingPolicy",
    "SHED_REASONS",
    "SRPTOrdering",
    "ServeConfig",
    "ServeGateway",
    "ServeJob",
    "SlotAdmission",
    "StepEvent",
    "StreamSplicer",
    "StreamingSimExecutor",
    "TenantProfile",
    "TenantRouter",
    "WallClock",
    "poisson_workload",
    "policy_keys",
]
