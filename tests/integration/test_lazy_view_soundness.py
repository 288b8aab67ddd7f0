"""The fleet loop's cached routing state equals a fresh rebuild, always.

:class:`~repro.serve.replicaset.FleetLoop` refreshes a replica's
:class:`~repro.serve.FleetArrays` row only after an event marks it
stale, and builds a replica's view only when a routing policy reads it.
Both shortcuts are sound only if every invalidation reaches every cache
-- including the calibration case, where a wave closing on one replica
reprices a migrant now hosted on another.  This oracle audits each
arrival of the golden scenarios that exercise those paths (a calibrated
fixed fleet that reroutes, the autoscaler's join, retire and reclaim
scenarios, a live gateway session) and of a calibrated fleet whose
drains move active jobs between waves:

* every row the loop holds fresh equals the row derived from a fresh
  :meth:`~repro.serve.ReplicaSet._replica_view` -- and the router is
  handed the columns of exactly the routable replicas, every row fresh
  (on an elastic fleet too, with no row missing);
* every view the router reads equals an eager rebuild.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import pytest

from repro.serve import CostAwareRouting, ReplicaView, TenantRouter, poisson_workload
from repro.serve.replicaset import FleetLoop
from tests.golden.scenarios import MIXED, SCENARIOS, fleet, make_jobs, priced


def calibrated_active_migration():
    """A calibrated, cost-routed fixed fleet that drains to migrate.

    Active jobs move between waves, so a wave closing on the source
    observes a tenant that now lives elsewhere: the calibration case.
    With this seed one such observe reprices a migrant still live on a
    host whose row was otherwise fresh, so only the loop's
    migrant-host invalidation keeps that row right.
    """
    estimator = priced(2, calibrated=True)
    workload = poisson_workload(make_jobs(MIXED), rate=2.0, rng=1)
    replica_set = fleet(
        2, 2, estimator=estimator, routing=CostAwareRouting(estimator),
        migration_time_threshold=0.3, drain_then_migrate=True,
    )
    return replica_set, replica_set.run(workload)


AUDITED = {
    "calibrated-active-migration": calibrated_active_migration,
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
    """The ``(backlog, num_active, missing)`` row a fresh view implies."""
    view = fleet._replica_view(index)
    remaining = view.expected_remaining_time
    return (0.0 if remaining is None else remaining, view.num_active,
            remaining is None)


class AuditedViews(Sequence):
    """The loop's lazy views, each read checked against an eager rebuild."""

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
    """Patch the arrival path to audit every route; yields the tallies."""
    tally: Counter = Counter()
    current: dict = {}
    on_arrival, route = FleetLoop._on_arrival, TenantRouter.route

    def audited_arrival(self, event):
        current["loop"] = self
        return on_arrival(self, event)

    def audited_route(self, job, replicas, arrays=None):
        loop = current["loop"]
        fleet = loop.fleet
        tally["arrivals"] += 1
        if arrays is not None:
            assert not loop.stale_rows  # the router reads every row
            # The columns are the routable rows, each fresh.
            assert arrays.indices.tolist() == loop._routable()
            for k, index in enumerate(arrays.indices.tolist()):
                row = (arrays.backlogs[k], arrays.num_active[k], arrays.missing[k])
                assert row == fresh_row(fleet, index), (index, row)
            if not arrays.missing.any():
                tally["columns"] += 1
        for index in range(len(fleet.replicas)):
            if index in loop.stale_rows:
                continue
            row = (
                loop.arrays.backlogs[index],
                loop.arrays.num_active[index],
                loop.arrays.missing[index],
            )
            assert row == fresh_row(fleet, index), (index, row)
            tally["rows"] += 1
        return route(self, job, AuditedViews(replicas, fleet, tally), arrays)

    monkeypatch.setattr(FleetLoop, "_on_arrival", audited_arrival)
    monkeypatch.setattr(TenantRouter, "route", audited_route)
    return tally


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_cached_rows_and_read_views_equal_a_fresh_rebuild(audit, name):
    _, result = AUDITED[name]()
    assert audit["arrivals"] == len(result.records)
    assert audit["rows"] > 0
    if name == "calibrated-active-migration":
        assert result.migrations > 0
    if name in ("autoscale-join-retire", "spot-reclaim-forced"):
        assert result.joins + result.reclaims > 0
    if name in (
        "autoscale-join-retire",
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
