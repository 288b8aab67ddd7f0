"""Equivalence collapse: simulate one config per behavioral class.

Replaying a trace through the event kernel is fast, but a search space
is a cross-product and many of its members are *equivalent* to one
another on a given trace.  :func:`canonical` merges them using nothing
but the trace's shape -- no simulation.  Some knobs are inert in
context, and collapsing them merges whole slices of the product into
one representative: on a single-replica fleet every routing policy
places every tenant on replica 0 and no rebalance can ever fire, so
routing/rebalance knobs are rewritten to their baselines; on a
deadline-free trace
:meth:`~repro.serve.admission.DeadlineFeasibilityAdmission.feasible`
passes every arrival, so the gate collapses to its base admission;
preemptive FCFS never finds a *strictly* earlier-arriving candidate
than an admitted job, so it collapses to plain FCFS; and on a
single-job trace knapsack packing collapses to arrival order.  Each
collapse is an exact behavioral identity, not an approximation
(``tests/tune/test_pruner.py`` replays both sides and compares).
"""

from __future__ import annotations

from dataclasses import replace

from repro.serve.config import ServeConfig

__all__ = ["canonical"]


def canonical(
    config: ServeConfig, has_deadlines: bool, multi_tenant: bool = True
) -> ServeConfig:
    """The representative of ``config``'s behavioral equivalence class.

    Rewrites knobs that are provably inert for the given trace shape to
    their baseline values, so configs differing only in inert knobs map
    to one bundle and are simulated once.  Every rewrite is an exact
    identity (see the module docstring for the arguments);
    anything not provably inert is left untouched.

    Args:
        config: The candidate to canonicalize.
        has_deadlines: Whether any trace job carries a deadline -- the
            feasibility gate is only collapsible when none does.
        multi_tenant: Whether the trace holds more than one job -- the
            packing axis is only collapsible on singleton traces.
    """
    updates: dict[str, object] = {}
    if config.num_replicas == 1:
        # One replica: placement has one choice and skew needs two.
        updates["routing"] = "least_loaded"
        updates["migration_time_threshold"] = None
        updates["drain_then_migrate"] = False
    if not has_deadlines and config.deadline_gate:
        # feasible() passes every deadline-free arrival, so the gate is
        # exactly its base admission (and the queueing-aware charge is
        # part of the gate).
        updates["deadline_gate"] = False
        updates["gate_slack"] = 1.0
        updates["queueing_aware"] = False
    if config.ordering == "fcfs" and config.preemptive:
        # FCFS ranks by arrival time: a later arrival is never strictly
        # better-ranked than an admitted job, so preemption never fires.
        updates["preemptive"] = False
    if not multi_tenant and config.packing != "arrival":
        # One tenant: knapsack grouping over a single job is the
        # singleton group arrival order produces, the admission
        # tie-breaker never sees two candidates, routing scores never
        # tie-break differently for one tenant, and the merge discount
        # is gated on two or more live jobs -- so knapsack packing
        # prices and plans identically to arrival order.
        updates["packing"] = "arrival"
    return replace(config, **updates) if updates else config

