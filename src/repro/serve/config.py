"""Declarative serve configs: the whole control plane as one flat bundle.

Every knob the serving layer exposes -- router, ordering policy,
admission gate, planning window, rebalancer trigger, fleet size,
autoscaler budget -- lives on some constructor somewhere: a routing
policy object here, an :class:`~repro.serve.orchestrator.OrchestratorConfig`
there, a :class:`~repro.serve.replicaset.ReplicaSetConfig` wrapping both.
That is the right shape for *running* one configuration and the wrong
shape for *searching over* configurations: an autotuner needs candidates
it can enumerate, hash, serialize into an artifact, and rebuild
bit-identically.  :class:`ServeConfig` is that form -- a frozen, flat,
JSON-round-trippable bundle of policy *names* and scalar knobs, with
:meth:`ServeConfig.build` as the single place the names are turned back
into live policy objects, fresh executors, and a
:class:`~repro.serve.replicaset.ReplicaSetConfig`.

The offline autotuner (:mod:`repro.tune`) enumerates these bundles,
collapses the ones that replay identically, and replays traces through
each representative; ``docs/tuning.md`` documents the search space
axis by axis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping

from repro.errors import ScheduleError, require_finite, require_int
from repro.models.layer_costs import LayerCostModel
from repro.scheduler.scheduler import SchedulerConfig
from repro.serve.admission import DeadlineFeasibilityAdmission, SlotAdmission
from repro.serve.autoscaler import CapacityPool, FleetAutoscaler
from repro.serve.costing import CalibrationTracker, CostEstimator
from repro.serve.executors import Executor, StreamingSimExecutor
from repro.serve.gateway import GatewayLimits, ServeGateway, VirtualClock
from repro.serve.orchestrator import AdaptiveWindowConfig, OrchestratorConfig
from repro.serve.ordering import (
    DeadlineOrdering,
    FCFSOrdering,
    OrderingPolicy,
    PriorityOrdering,
    SRPTOrdering,
)
from repro.serve.replicaset import ReplicaSetConfig
from repro.serve.router import (
    CostAwareRouting,
    LeastLoadedRouting,
    PackingAffinityRouting,
    PriorityHeadroomRouting,
    RoundRobinRouting,
    RoutingPolicy,
)

__all__ = [
    "GPU_HOURLY_RATE",
    "ROUTING_POLICIES",
    "ORDERING_POLICIES",
    "PACKING_SCHEMES",
    "ServeConfig",
]

#: Reference $/GPU-hour an on-demand replica is priced at when a run is
#: converted to dollars (the same rate the autoscale benchmark's
#: on-demand H100 pool charges), so fixed-fleet and autoscaled candidates
#: land on one comparable cost axis.
GPU_HOURLY_RATE = 6.0

#: Routing-policy names :attr:`ServeConfig.routing` accepts, in the order
#: they are documented (``docs/serving.md`` section "Many pipelines").
ROUTING_POLICIES = (
    "round_robin",
    "least_loaded",
    "packing_affinity",
    "priority_headroom",
    "cost_aware",
)

#: Ordering-policy names :attr:`ServeConfig.ordering` accepts
#: (``docs/serving.md`` section "SLO & fairness").
ORDERING_POLICIES = ("fcfs", "srpt", "priority", "deadline")

#: Wave-packing scheme names :attr:`ServeConfig.packing` accepts
#: (``docs/serving.md`` section "Length-aware packing"): ``"arrival"``
#: plans waves in admission order, ``"knapsack"`` assembles them from
#: deterministic token-mass knapsacks with sticky head-tail groups.
PACKING_SCHEMES = ("arrival", "knapsack")

#: The :class:`~repro.serve.gateway.GatewayLimits` field each of
#: :class:`ServeConfig`'s gateway knobs builds.
_GATEWAY_FIELDS = {
    "queue_bound": "gateway_queue_bound",
    "rate": "gateway_rate",
    "burst": "gateway_burst",
    "fairness_share": "gateway_fairness",
    "ingress_hold": "gateway_hold",
}

#: Autoscaler control constants used when :attr:`ServeConfig.autoscale_budget`
#: is set: hysteresis band (seconds of backlog), provisioning latency, and
#: decision cooldown, sized for the short virtual-time traces the tuner
#: replays (the library defaults assume wall-clock-scale runs).
AUTOSCALE_UP_BACKLOG = 1.0
AUTOSCALE_DOWN_BACKLOG = 0.25
AUTOSCALE_PROVISION_DELAY = 0.2
AUTOSCALE_COOLDOWN = 0.5
#: Replica headroom the autoscaled pool offers beyond the initial fleet.
AUTOSCALE_POOL_LIMIT = 8


@dataclass(frozen=True)
class ServeConfig:
    """One serve configuration as a flat, serializable bundle.

    Policies are named, not instantiated: a :class:`ServeConfig` is a
    *value* (hashable, comparable, JSON-round-trippable through
    :meth:`to_dict`/:meth:`from_dict`), and :meth:`build` is the one
    function that turns the value into live executors and a
    :class:`~repro.serve.replicaset.ReplicaSetConfig`.  Two equal
    bundles build behaviorally identical fleets, which is what lets the
    autotuner (:mod:`repro.tune`) deduplicate, cache, and commit them
    into artifacts.

    Attributes:
        num_replicas: Pipeline replicas the fleet starts with (the whole
            fleet, when no autoscaler runs).
        routing: Tenant-placement policy name, one of
            :data:`ROUTING_POLICIES`.
        ordering: Slot-candidate ranking policy name, one of
            :data:`ORDERING_POLICIES`.
        preemptive: Whether the ordering policy may evict a running job
            for a strictly better-ranked one (lossless either way).
        aging_rate: Starvation bound of the non-FCFS orderings; 0
            disables aging.  FCFS takes none, so it must stay 0 there.
        slots: Adapter-slot budget per replica
            (:class:`~repro.serve.admission.SlotAdmission`).
        deadline_gate: Wrap the slot budget in
            :class:`~repro.serve.admission.DeadlineFeasibilityAdmission`,
            shedding arrivals whose expected remaining time no longer
            fits their deadline.
        gate_slack: Feasibility slack of the gate (1.0 = shed only
            provably-doomed arrivals).
        queueing_aware: Charge the replica's planned backlog in the
            feasibility test too (requires ``deadline_gate``).
        window_batches: Global batches planned per live job each wave.
        adaptive_window: Replace the static window with the
            :class:`~repro.serve.orchestrator.AdaptiveWindowConfig`
            control loop (library defaults).
        migration_time_threshold: Completion-horizon skew, in expected
            **seconds**, beyond which the fleet rebalances; ``None``
            disables rebalancing.
        drain_then_migrate: Pay (partial) pipeline drains to unlock
            deep-pipeline migrations; requires a migration trigger.
        autoscale_budget: $/GPU-hour budget of a
            :class:`~repro.serve.autoscaler.FleetAutoscaler` over one
            on-demand pool priced at :data:`GPU_HOURLY_RATE`; ``None``
            keeps the fleet fixed at ``num_replicas``.
        calibrated: Attach a fresh
            :class:`~repro.serve.costing.CalibrationTracker` so prices
            are feedback-corrected as the run unfolds.
        packing: Wave-packing scheme name, one of
            :data:`PACKING_SCHEMES`.  ``"knapsack"`` turns on
            length-aware streaming packing end to end: knapsack wave
            assembly with sticky groups in the orchestrator,
            fragmentation-biased admission ties, and (with the
            ``packing_affinity`` routing) estimator-priced replica
            placement.
        gateway_rate: Per-tenant token-bucket refill of the live
            gateway's door (submissions per virtual second); ``None``
            disables rate limiting.  The gateway knobs parameterize
            :meth:`build_gateway` only -- they are deliberately *not* an
            autotuner axis (the tuner replays traces, and a trace never
            meets the door), but they live on the bundle so a deployed
            gateway's limits serialize, label, and round-trip with the
            rest of its configuration.
        gateway_burst: Token-bucket capacity of the door.
        gateway_queue_bound: Maximum in-flight submissions per tenant at
            the door; ``None`` disables the bound.
        gateway_fairness: Maximum fraction of the total ingress backlog
            one tenant may hold while others wait; ``None`` disables the
            quota.
        gateway_hold: Virtual seconds an accepted submission stays held
            (cancellable) at the door before release into the fleet.
    """

    num_replicas: int = 1
    routing: str = "least_loaded"
    ordering: str = "fcfs"
    preemptive: bool = False
    aging_rate: float = 0.0
    slots: int = 2
    deadline_gate: bool = False
    gate_slack: float = 1.0
    queueing_aware: bool = False
    window_batches: int = 2
    adaptive_window: bool = False
    migration_time_threshold: float | None = None
    drain_then_migrate: bool = False
    autoscale_budget: float | None = None
    calibrated: bool = False
    packing: str = "arrival"
    gateway_rate: float | None = None
    gateway_burst: float = 4.0
    gateway_queue_bound: int | None = None
    gateway_fairness: float | None = None
    gateway_hold: float = 0.0

    def __post_init__(self) -> None:
        # The gateway_* floats are checked by GatewayLimits below.
        require_finite(
            aging_rate=self.aging_rate,
            gate_slack=self.gate_slack,
            migration_time_threshold=self.migration_time_threshold,
            autoscale_budget=self.autoscale_budget,
        )
        require_int(
            num_replicas=self.num_replicas,
            slots=self.slots,
            window_batches=self.window_batches,
        )
        if self.packing not in PACKING_SCHEMES:
            raise ScheduleError(f"unknown packing scheme '{self.packing}'")
        if self.num_replicas < 1:
            raise ScheduleError("num_replicas must be at least 1")
        if self.routing not in ROUTING_POLICIES:
            raise ScheduleError(f"unknown routing policy '{self.routing}'")
        if self.ordering not in ORDERING_POLICIES:
            raise ScheduleError(f"unknown ordering policy '{self.ordering}'")
        if self.aging_rate < 0:
            raise ScheduleError("aging_rate must be non-negative")
        if self.ordering == "fcfs" and self.aging_rate:
            raise ScheduleError("FCFS ordering takes no aging_rate")
        if self.slots < 1:
            raise ScheduleError("slots must be at least 1")
        if self.gate_slack <= 0:
            raise ScheduleError("gate_slack must be positive")
        if self.queueing_aware and not self.deadline_gate:
            raise ScheduleError("queueing_aware requires deadline_gate")
        if self.window_batches < 1:
            raise ScheduleError("window_batches must be at least 1")
        if (
            self.migration_time_threshold is not None
            and self.migration_time_threshold <= 0
        ):
            raise ScheduleError("migration_time_threshold must be positive")
        if self.drain_then_migrate and self.migration_time_threshold is None:
            raise ScheduleError("drain_then_migrate requires a migration trigger")
        if self.autoscale_budget is not None:
            if self.autoscale_budget <= 0:
                raise ScheduleError("autoscale_budget must be positive")
            committed = self.num_replicas * GPU_HOURLY_RATE
            if self.autoscale_budget < committed:
                raise ScheduleError(
                    "autoscale_budget cannot cover the initial fleet "
                    f"({self.autoscale_budget} < {committed} $/hour)"
                )
        # GatewayLimits owns the gateway-knob invariants and opens every
        # refusal with its own field's name; re-raise it under the name
        # of the knob the caller set here.
        try:
            self.gateway_limits()
        except ScheduleError as error:
            name, rest = str(error).split(" ", 1)
            raise ScheduleError(f"{_GATEWAY_FIELDS.get(name, name)} {rest}") from None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The bundle as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeConfig":
        """Rebuild a bundle serialized by :meth:`to_dict` (validated)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ScheduleError(f"unknown ServeConfig fields {sorted(unknown)}")
        return cls(**dict(data))

    def label(self) -> str:
        """A compact human-readable tag for tables and progress lines."""
        parts = [f"x{self.num_replicas}", self.routing, self.ordering]
        if self.preemptive:
            parts.append("preempt")
        if self.aging_rate:
            parts.append(f"age{self.aging_rate:g}")
        parts.append(f"s{self.slots}")
        if self.deadline_gate:
            parts.append("qgate" if self.queueing_aware else "gate")
        parts.append("adaptive" if self.adaptive_window else f"w{self.window_batches}")
        if self.migration_time_threshold is not None:
            parts.append(f"mig{self.migration_time_threshold:g}")
            if self.drain_then_migrate:
                parts.append("drain")
        if self.autoscale_budget is not None:
            parts.append(f"auto${self.autoscale_budget:g}")
        if self.calibrated:
            parts.append("cal")
        if self.packing == "knapsack":
            parts.append("knap")
        if self.gateway_rate is not None:
            parts.append(f"gwr{self.gateway_rate:g}b{self.gateway_burst:g}")
        if self.gateway_queue_bound is not None:
            parts.append(f"gwq{self.gateway_queue_bound}")
        if self.gateway_fairness is not None:
            parts.append(f"gwf{self.gateway_fairness:g}")
        if self.gateway_hold:
            parts.append(f"gwh{self.gateway_hold:g}")
        return "-".join(parts)

    # -- construction -------------------------------------------------------

    def _ordering(self) -> OrderingPolicy:
        """The live ordering policy the bundle names."""
        if self.ordering == "fcfs":
            return FCFSOrdering(preemptive=self.preemptive)
        if self.ordering == "srpt":
            return SRPTOrdering(preemptive=self.preemptive, aging_rate=self.aging_rate)
        if self.ordering == "priority":
            return PriorityOrdering(
                preemptive=self.preemptive, aging_rate=self.aging_rate
            )
        return DeadlineOrdering(preemptive=self.preemptive, aging_rate=self.aging_rate)

    def _routing(self, estimator: CostEstimator) -> RoutingPolicy:
        """The live routing policy the bundle names.

        Under ``packing="knapsack"`` the ``packing_affinity`` policy is
        built in its estimator-priced mode: replicas are scored by the
        predicted post-pack waste of their live set with the tenant
        added, not by mean-length distance.
        """
        if self.routing == "round_robin":
            return RoundRobinRouting()
        if self.routing == "least_loaded":
            return LeastLoadedRouting()
        if self.routing == "packing_affinity":
            if self.packing == "knapsack":
                return PackingAffinityRouting(estimator=estimator)
            return PackingAffinityRouting()
        if self.routing == "priority_headroom":
            return PriorityHeadroomRouting()
        return CostAwareRouting(estimator)

    def _autoscaler(self) -> FleetAutoscaler | None:
        """The autoscaler the bundle names (``None`` for fixed fleets)."""
        if self.autoscale_budget is None:
            return None
        pool = CapacityPool(
            "on-demand",
            "h100",
            hourly_rate=GPU_HOURLY_RATE,
            limit=max(AUTOSCALE_POOL_LIMIT, self.num_replicas),
        )
        return FleetAutoscaler(
            pools=(pool,),
            budget_per_hour=self.autoscale_budget,
            initial_pools=("on-demand",) * self.num_replicas,
            scale_up_backlog=AUTOSCALE_UP_BACKLOG,
            scale_down_backlog=AUTOSCALE_DOWN_BACKLOG,
            provision_delay=AUTOSCALE_PROVISION_DELAY,
            cooldown=AUTOSCALE_COOLDOWN,
        )

    def build(
        self, cost: LayerCostModel, scheduler: SchedulerConfig
    ) -> tuple[list[Executor], ReplicaSetConfig]:
        """Materialize the bundle against a cost model and scheduler.

        Returns fresh streaming executors (one per initial replica) and
        the :class:`~repro.serve.replicaset.ReplicaSetConfig` that wires
        the named policies together.  Every call builds independent
        state -- estimator, calibration tracker, autoscaler, executors
        -- so repeated replays of one bundle cannot leak state into each
        other (equal bundles replay bit-identically).
        """
        tracker = CalibrationTracker() if self.calibrated else None
        estimator = CostEstimator.for_scheduler(cost, scheduler, calibration=tracker)
        admission: SlotAdmission | DeadlineFeasibilityAdmission
        admission = SlotAdmission(self.slots)
        if self.deadline_gate:
            admission = DeadlineFeasibilityAdmission(
                admission,
                slack=self.gate_slack,
                queueing_aware=self.queueing_aware,
            )
        orchestrator = OrchestratorConfig(
            scheduler=scheduler,
            window_batches=self.window_batches,
            admission=admission,
            ordering=self._ordering(),
            estimator=estimator,
            adaptive_window=AdaptiveWindowConfig() if self.adaptive_window else None,
            packing=self.packing,
        )
        factory: Callable[[CapacityPool], Executor] | None = None
        autoscaler = self._autoscaler()
        if autoscaler is not None:

            def factory(pool: CapacityPool) -> Executor:
                return StreamingSimExecutor(cost, scheduler.num_stages)

        config = ReplicaSetConfig(
            orchestrator=orchestrator,
            routing=self._routing(estimator),
            migration_time_threshold=self.migration_time_threshold,
            drain_then_migrate=self.drain_then_migrate,
            autoscaler=autoscaler,
            executor_factory=factory,
        )
        executors: list[Executor] = [
            StreamingSimExecutor(cost, scheduler.num_stages)
            for _ in range(self.num_replicas)
        ]
        return executors, config

    def gateway_limits(self) -> GatewayLimits:
        """The bundle's gateway knobs as a
        :class:`~repro.serve.gateway.GatewayLimits` (validated there)."""
        return GatewayLimits(
            **{field: getattr(self, knob) for field, knob in _GATEWAY_FIELDS.items()}
        )

    def build_gateway(
        self,
        cost: LayerCostModel,
        scheduler: SchedulerConfig,
        clock: VirtualClock | None = None,
    ) -> ServeGateway:
        """Materialize the bundle as a live serving gateway.

        :meth:`build` plus the front door: constructs the fleet exactly
        as :meth:`build` would (the event kernel; a gateway needs the
        incremental loop), wraps it in a fresh
        :class:`~repro.serve.replicaset.ReplicaSet`, and opens a
        :class:`~repro.serve.gateway.ServeGateway` on it with this
        bundle's :meth:`gateway_limits`.

        Args:
            cost: Stage-cost model the executors simulate against.
            scheduler: Intra-replica scheduler configuration.
            clock: Virtual-time source for the gateway; a 1:1
                :class:`~repro.serve.gateway.WallClock` when omitted.
        """
        from repro.serve.replicaset import ReplicaSet

        executors, config = self.build(cost, scheduler)
        replica_set = ReplicaSet(executors=executors, config=config)
        if clock is None:
            return ServeGateway(replica_set, limits=self.gateway_limits())
        return ServeGateway(
            replica_set, limits=self.gateway_limits(), clock=clock
        )
