"""The fleet's cached replica rows equal a fresh read, always.

:class:`~repro.serve.replicaset.ReplicaSet` re-reads a replica -- its
:class:`~repro.serve.FleetArrays` row, rebalance load and deadline
pressure -- only after an event adds it to ``stale``, and builds a
replica's view only when a routing policy reads it.  Both shortcuts are
sound only if every mutation reaches ``stale`` -- including the
calibration case, where a wave closing on one replica reprices a
migrant now hosted on another.  This oracle audits each arrival and
each autoscaler probe of the golden scenarios that exercise those
paths (a calibrated fixed fleet that reroutes, the autoscaler's join,
retire and reclaim scenarios, a live gateway session), of a calibrated
fleet whose drains move active jobs between waves, and of an elastic
fleet whose queued deadline jobs are priced as missed:

* every row the set holds fresh equals the row derived from a fresh
  :meth:`~repro.serve.ReplicaSet._replica_view` -- and the router is
  handed the columns of exactly the routable replicas, every row fresh
  (on an elastic fleet too), whenever the replicas carry an estimator;
* with rebalancing on, every fresh load equals a fresh
  :meth:`~repro.serve.ReplicaSet._replica_load`; on an elastic fleet,
  every fresh pressure equals a fresh ``deadline_pressure()``;
* the ``(backlog, pressure)`` each probe hands the autoscaler's
  ``plan`` equals a direct read of every routable replica;
* every view the router reads equals an eager rebuild.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import pytest

from repro.serve import (
    CostAwareRouting,
    FleetAutoscaler,
    ReplicaView,
    ServeJob,
    TenantRouter,
    poisson_workload,
)
from repro.serve.replicaset import ReplicaSet
from tests.golden.scenarios import (
    MIXED,
    SCENARIOS,
    elastic,
    fleet,
    make_jobs,
    priced,
)


def calibrated_active_migration():
    """A calibrated, cost-routed fixed fleet that drains to migrate.

    Active jobs move between waves, so a wave closing on the source
    observes a tenant that now lives elsewhere: the calibration case.
    With this seed one such observe reprices a migrant still live on a
    host whose row was otherwise fresh, so only the set's
    migrant-host invalidation keeps that row right.
    """
    estimator = priced(2, calibrated=True)
    workload = poisson_workload(make_jobs(MIXED), rate=2.0, rng=1)
    replica_set = fleet(
        2, 2, estimator=estimator, routing=CostAwareRouting(estimator),
        migration_time_threshold=0.3, drain_then_migrate=True,
    )
    return replica_set, replica_set.run(workload)


def elastic_deadline_pressure():
    """An elastic fleet whose probes see queued deadline misses.

    One slot per replica and tight deadlines leave due jobs queued past
    the time they could still finish, so ``deadline_pressure`` is
    nonzero at many probes while the fleet joins and retires replicas.
    """
    workload = [
        ServeJob(job=job, arrival_time=0.02 * a, deadline=0.02 * a + 0.3)
        for a, job in enumerate(make_jobs([(12, 2)] * 8))
    ]
    replica_set = elastic(("a100",), slots=1, budget_per_hour=6.0)
    return replica_set, replica_set.run(workload)


AUDITED = {
    "calibrated-active-migration": calibrated_active_migration,
    "elastic-deadline-pressure": elastic_deadline_pressure,
    **{
        scenario.name: scenario.run
        for scenario in SCENARIOS
        if scenario.name in (
            "cost-aware-calibrated",
            "autoscale-join-retire",
            "spot-reclaim-forced",
            "reclaim-holds-ticket",
            "gateway-session",
        )
    },
}


def fresh_row(fleet, index):
    """The ``(backlog, num_active)`` row a fresh view implies."""
    view = fleet._replica_view(index)
    remaining = view.expected_remaining_time
    return (0.0 if remaining is None else remaining, view.num_active)


class AuditedViews(Sequence):
    """The set's lazy views, each read checked against an eager rebuild."""

    def __init__(self, views, fleet, tally):
        self._views = views
        self._fleet = fleet
        self._tally = tally

    def __len__(self):
        return len(self._views)

    def _check(self, view: ReplicaView) -> ReplicaView:
        assert view == self._fleet._replica_view(view.index)
        self._tally["views"] += 1
        return view

    def __getitem__(self, position):
        got = self._views[position]
        if isinstance(position, slice):
            return [self._check(view) for view in got]
        return self._check(got)

    def __iter__(self):
        return (self._check(view) for view in self._views)


@pytest.fixture
def audit(monkeypatch):
    """Patch the arrival and probe paths to audit every route and every
    autoscaler plan; yields the tallies."""
    tally: Counter = Counter()
    current: dict = {}
    on_arrival, route = ReplicaSet._on_arrival, TenantRouter.route
    probe, plan = ReplicaSet._probe_autoscaler, FleetAutoscaler.plan

    def audited_arrival(self, event):
        current["fleet"] = self
        return on_arrival(self, event)

    def audited_probe(self, time):
        current["fleet"] = self
        return probe(self, time)

    def audited_route(self, job, replicas, arrays=None):
        fleet = current["fleet"]
        tally["arrivals"] += 1
        assert (arrays is not None) == fleet._priced
        if arrays is not None:
            assert not fleet.stale  # the router reads every row
            # The columns are the routable rows, each fresh.
            assert arrays.indices.tolist() == fleet._routable()
            for k, index in enumerate(arrays.indices.tolist()):
                row = (arrays.backlogs[k], arrays.num_active[k])
                assert row == fresh_row(fleet, index), (index, row)
            tally["columns"] += 1
        for index, replica in enumerate(fleet.replicas):
            if index in fleet.stale:
                continue
            row = (
                fleet.arrays.backlogs[index],
                fleet.arrays.num_active[index],
            )
            assert row == fresh_row(fleet, index), (index, row)
            tally["rows"] += 1
            if fleet._params is not None:
                fresh = fleet._replica_load(index, fleet._params[1])
                assert fleet.loads[index] == fresh, (index, fleet.loads[index])
                tally["loads"] += 1
            if fleet._autoscaler is not None:
                fresh = replica.deadline_pressure()
                assert fleet.pressure[index] == fresh, (index, fleet.pressure[index])
                tally["pressures"] += 1
        return route(self, job, AuditedViews(replicas, fleet, tally), arrays)

    def audited_plan(self, now, loads, pressure):
        replicas = current["fleet"].replicas
        routable = current["fleet"]._routable()
        direct = [(i, replicas[i].expected_remaining_seconds() or 0.0)
                  for i in routable]
        assert loads == direct
        assert all(type(backlog) is float for _, backlog in loads)
        assert type(pressure) is int
        assert pressure == sum(replicas[i].deadline_pressure() for i in routable)
        tally["probes"] += 1
        tally["pressured_probes"] += pressure > 0
        return plan(self, now, loads, pressure)

    monkeypatch.setattr(ReplicaSet, "_on_arrival", audited_arrival)
    monkeypatch.setattr(ReplicaSet, "_probe_autoscaler", audited_probe)
    monkeypatch.setattr(TenantRouter, "route", audited_route)
    monkeypatch.setattr(FleetAutoscaler, "plan", audited_plan)
    return tally


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_cached_rows_and_read_views_equal_a_fresh_rebuild(audit, name):
    replica_set, result = AUDITED[name]()
    assert audit["arrivals"] == len(result.records)
    assert audit["rows"] > 0
    if replica_set._rebalance_params() is not None:
        assert audit["loads"] > 0
    if replica_set.config.autoscaler is not None:
        assert audit["pressures"] > 0 and audit["probes"] > 0
    if name == "calibrated-active-migration":
        assert result.migrations > 0
    if name in ("autoscale-join-retire", "spot-reclaim-forced"):
        assert result.joins + result.reclaims > 0
    if name == "elastic-deadline-pressure":
        assert result.joins > 0 and audit["pressured_probes"] > 0
    if name in (
        "autoscale-join-retire",
        "elastic-deadline-pressure",
        "spot-reclaim-forced",
        "reclaim-holds-ticket",
        "gateway-session",
    ):
        # Elastic fleets route from the columns too: every arrival hands
        # the router a full set of fresh rows, whatever has retired.
        assert audit["columns"] == audit["arrivals"]


def test_views_are_read_only_where_a_policy_needs_them(audit):
    # Cost-aware routing scores from the columns: a fixed, priced fleet
    # routes every arrival without reading (or building) one view.
    AUDITED["cost-aware-calibrated"]()
    assert audit["arrivals"] > 0
    assert audit["views"] == 0
