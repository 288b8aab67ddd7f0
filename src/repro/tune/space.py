"""The serve-config search space: axes, enumeration, and baselines.

A :class:`SearchSpace` is the declarative cross-product the autotuner
explores: per-axis value tuples whose product is enumerated into
concrete :class:`~repro.serve.config.ServeConfig` bundles by
:meth:`SearchSpace.candidates`.  Combinations the serve layer itself
rejects (a queueing-aware gate without the gate, aging on FCFS, a drain
unlock without a migration trigger) are skipped during enumeration
rather than patched up, so every emitted candidate is a valid bundle
and the space's size is exactly what a user can count from the axes.

:func:`default_space` is the stock space ``docs/tuning.md`` documents
axis by axis; :func:`single_policy_defaults` are the one-knob baseline
configs the tuning benchmark's gate compares the tuned pick against
(each default turns on exactly one policy family over the plain
round-robin/FCFS baseline).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from repro.serve.config import ServeConfig

__all__ = [
    "NON_SEARCH_FIELDS",
    "SearchSpace",
    "default_space",
    "single_policy_defaults",
]

#: :class:`~repro.serve.config.ServeConfig` fields the search space
#: deliberately does **not** sweep: the live gateway's door limits.  The
#: tuner replays recorded traces, and a trace never meets the door --
#: every gateway knob would multiply the product without changing a
#: single replayed metric.  They stay on the bundle (so a deployed
#: gateway's limits serialize and label with the rest of its
#: configuration) and enumerated candidates carry their defaults.
NON_SEARCH_FIELDS = frozenset(
    {
        "gateway_rate",
        "gateway_burst",
        "gateway_queue_bound",
        "gateway_fairness",
        "gateway_hold",
    }
)


@dataclass(frozen=True)
class SearchSpace:
    """Per-axis candidate values; the product is the candidate set.

    Every axis mirrors one :class:`~repro.serve.config.ServeConfig`
    field (same name, pluralized), so a one-point space on every axis
    describes exactly one config and widening any axis multiplies the
    product.  Axes default to the corresponding ``ServeConfig`` default
    as a single point, so a space only names the axes it actually
    sweeps.  The gateway knobs (:data:`NON_SEARCH_FIELDS`) have no axis
    at all: trace replay never exercises the door, so sweeping them
    would only inflate the product.

    Attributes:
        fleet_sizes: Initial replica counts to try.
        routings: Routing-policy names
            (:data:`~repro.serve.config.ROUTING_POLICIES`).
        orderings: Ordering-policy names
            (:data:`~repro.serve.config.ORDERING_POLICIES`).
        preemptive: Preemption on/off for the ordering policy.
        aging_rates: Aging starvation bounds (0 disables; skipped for
            FCFS, which takes none).
        slots: Adapter-slot budgets per replica.
        deadline_gates: Deadline-feasibility admission on/off.
        gate_slacks: Feasibility slack values (combined with gated
            candidates only).
        queueing_aware: Queueing-aware feasibility on/off (combined
            with gated candidates only).
        windows: Static planning-window sizes, in global batches.
        adaptive_windows: Adaptive-window control loop on/off.
        rebalance_thresholds: Completion-horizon skew triggers in
            expected seconds (``None`` disables rebalancing).
        drains: Drain-then-migrate unlock on/off (combined with a
            rebalance trigger only).
        autoscale_budgets: $/hour autoscaler budgets (``None`` keeps
            the fleet fixed).
        calibrated: Closed-loop calibration correction on/off.
        packings: Wave-packing scheme names
            (:data:`~repro.serve.config.PACKING_SCHEMES`).
    """

    fleet_sizes: tuple[int, ...] = (1,)
    routings: tuple[str, ...] = ("least_loaded",)
    orderings: tuple[str, ...] = ("fcfs",)
    preemptive: tuple[bool, ...] = (False,)
    aging_rates: tuple[float, ...] = (0.0,)
    slots: tuple[int, ...] = (2,)
    deadline_gates: tuple[bool, ...] = (False,)
    gate_slacks: tuple[float, ...] = (1.0,)
    queueing_aware: tuple[bool, ...] = (False,)
    windows: tuple[int, ...] = (2,)
    adaptive_windows: tuple[bool, ...] = (False,)
    rebalance_thresholds: tuple[float | None, ...] = (None,)
    drains: tuple[bool, ...] = (False,)
    autoscale_budgets: tuple[float | None, ...] = (None,)
    calibrated: tuple[bool, ...] = (False,)
    packings: tuple[str, ...] = ("arrival",)

    def candidates(self) -> list[ServeConfig]:
        """Every valid config in the space's cross-product, in axis order.

        The iteration order is the deterministic odometer order of
        :func:`itertools.product` over the axes as declared, so two runs
        over one space enumerate identical lists.  Invalid combinations
        are skipped: aging on FCFS, ``queueing_aware`` without the gate,
        a non-default ``gate_slack`` without the gate (it would alias
        the ungated config), a drain unlock without a rebalance trigger.
        """
        configs = []
        for (
            fleet,
            routing,
            ordering,
            preempt,
            aging,
            slot_budget,
            gate,
            slack,
            queueing,
            window,
            adaptive,
            threshold,
            drain,
            budget,
            calibrate,
            packing,
        ) in itertools.product(
            self.fleet_sizes,
            self.routings,
            self.orderings,
            self.preemptive,
            self.aging_rates,
            self.slots,
            self.deadline_gates,
            self.gate_slacks,
            self.queueing_aware,
            self.windows,
            self.adaptive_windows,
            self.rebalance_thresholds,
            self.drains,
            self.autoscale_budgets,
            self.calibrated,
            self.packings,
        ):
            if ordering == "fcfs" and aging:
                continue
            if not gate and (queueing or slack != 1.0):
                continue
            if drain and threshold is None:
                continue
            configs.append(
                ServeConfig(
                    num_replicas=fleet,
                    routing=routing,
                    ordering=ordering,
                    preemptive=preempt,
                    aging_rate=aging,
                    slots=slot_budget,
                    deadline_gate=gate,
                    gate_slack=slack,
                    queueing_aware=queueing,
                    window_batches=window,
                    adaptive_window=adaptive,
                    migration_time_threshold=threshold,
                    drain_then_migrate=drain,
                    autoscale_budget=budget,
                    calibrated=calibrate,
                    packing=packing,
                )
            )
        return configs

    def axes(self) -> dict[str, tuple]:
        """Axis name to value tuple, for reports and artifacts."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_space() -> SearchSpace:
    """The stock search space (``docs/tuning.md`` documents each axis).

    Sized for interactive tuning: three routing families (the cycle
    baseline, the count heuristic, the cost-driven policy), three
    ordering families (fairness, size-aware, deadline-aware), the
    feasibility gate on/off, two window sizes, and one- or two-replica
    fleets -- 72 raw candidates before equivalence collapse.
    """
    return SearchSpace(
        fleet_sizes=(1, 2),
        routings=("round_robin", "least_loaded", "cost_aware"),
        orderings=("fcfs", "srpt", "deadline"),
        deadline_gates=(False, True),
        windows=(1, 2),
    )


def single_policy_defaults(
    fleet_size: int = 2, slots: int = 2, window: int = 2
) -> dict[str, ServeConfig]:
    """The one-knob baseline configs the tuning benchmark gates against.

    Each default turns on exactly one policy family over the plain
    baseline (round-robin routing, FCFS ordering, slot-only admission,
    static window), so beating *every* default shows the tuned config's
    win comes from composing policies, not from any single knob:

    - ``baseline``: the plain config itself.
    - ``least-loaded`` / ``cost-aware``: routing only.
    - ``srpt`` / ``edf``: ordering only.
    - ``gated``: deadline-feasibility admission only.

    All defaults share ``fleet_size``, ``slots``, and ``window``, so
    the dollars axis compares fleets of equal size.
    """
    base = ServeConfig(
        num_replicas=fleet_size,
        routing="round_robin",
        ordering="fcfs",
        slots=slots,
        window_batches=window,
    )

    def variant(**kwargs: object) -> ServeConfig:
        return ServeConfig.from_dict({**base.to_dict(), **kwargs})

    return {
        "baseline": base,
        "least-loaded": variant(routing="least_loaded"),
        "cost-aware": variant(routing="cost_aware"),
        "srpt": variant(ordering="srpt"),
        "edf": variant(ordering="deadline"),
        "gated": variant(deadline_gate=True),
    }
