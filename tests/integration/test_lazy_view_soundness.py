"""The fleet's cached replica rows equal a fresh read, always.

:class:`~repro.serve.replicaset.ReplicaSet` re-reads a replica -- its
:class:`~repro.serve.FleetArrays` row, rebalance load and deadline
pressure -- only after an event adds it to ``stale``, and builds a
replica's view only when a routing policy reads it.  Both shortcuts are
sound only if every mutation reaches ``stale`` -- including the
calibration case, where a wave closing on one replica reprices a
migrant now hosted on another.  This oracle audits each arrival and
each autoscaler probe of the golden scenarios that exercise those
paths (a calibrated fixed fleet that reroutes, two batch-count
rebalancing fleets, the autoscaler's join, retire and reclaim
scenarios, a live gateway session), of a calibrated fleet whose drains
move active jobs between waves, of an elastic fleet whose queued
deadline jobs are priced as missed, and of an elastic fleet that
migrates while it joins, retires and is reclaimed:

* every row the set holds fresh equals the row derived from a fresh
  :meth:`~repro.serve.ReplicaSet._replica_view` -- and the router is
  handed the columns of exactly the routable replicas, every row fresh
  (on an elastic fleet too), whenever the replicas carry an estimator;
* with rebalancing on, every fresh load equals a fresh
  :meth:`~repro.serve.ReplicaSet._replica_load`; on an elastic fleet,
  every fresh pressure equals a fresh ``deadline_pressure()``;
* the ``(backlog, pressure)`` each probe hands the autoscaler's
  ``plan`` equals a direct read of every routable replica;
* every view the router reads equals an eager rebuild;
* after every pumped event, the rebalance skew bound covers every fresh
  routable load (``lo <= load <= hi``), and every scan that plans a
  move starts from the routable rows' exact extremes.

The bound lets a rebalance check that cannot act skip the scan, and the
pump runs a pass's first check itself instead of posting it.  Both are
checked against the protocol they replace: every scenario, served with
a scan on every check or with every first check posted as a
``REBALANCE`` event, moves the same jobs to the same records.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    CostAwareRouting,
    EventKernel,
    EventKind,
    FleetAutoscaler,
    ReclamationNotice,
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
    entry,
    fleet,
    make_jobs,
    one_sample_jobs,
    priced,
)

CORPUS = json.loads(
    (Path(__file__).resolve().parents[1] / "golden/fleet_corpus.json").read_text()
)["scenarios"]


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


def elastic_rebalancing():
    """An elastic fleet that migrates while it joins, retires and is
    reclaimed.

    A small seconds threshold makes the rebalancer act, and with no
    cooldown the autoscaler can act again at the very instant a check
    posts a move -- so the held placements and probe the pump runs
    after an acting check are live work here.
    """
    notice = ReclamationNotice(time=0.01, count=1, deadline=0.05)
    workload = poisson_workload(one_sample_jobs(80, 23), rate=200.0, rng=9)
    replica_set = elastic(
        ("a100", "l40s-spot", "l40s-spot"), slots=2,
        migration_time_threshold=0.05, cooldown=0.0, reclamations=(notice,),
    )
    return replica_set, replica_set.run(workload)


AUDITED = {
    "calibrated-active-migration": calibrated_active_migration,
    "elastic-deadline-pressure": elastic_deadline_pressure,
    "elastic-rebalancing": elastic_rebalancing,
    **{
        scenario.name: scenario.run
        for scenario in SCENARIOS
        if scenario.name in (
            "active-migration",
            "batch-skew-rebalance",
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


def audit_bound(fleet, tally):
    """The skew bound covers every fresh routable load."""
    if fleet._params is None:
        return
    for index in fleet._routable():
        if index not in fleet.stale:
            load = fleet.loads[index]
            assert fleet.lo <= load <= fleet.hi, (index, fleet.lo, load, fleet.hi)
    tally["bounds"] += 1


@pytest.fixture
def audit(monkeypatch):
    """Patch the arrival and probe paths to audit every route and every
    autoscaler plan, the kernel to audit the skew bound after every
    event, and the rebalance planner to audit every scan; yields the
    tallies."""
    tally: Counter = Counter()
    current: dict = {}
    on_arrival, route = ReplicaSet._on_arrival, TenantRouter.route
    probe, plan = ReplicaSet._probe_autoscaler, FleetAutoscaler.plan
    pump, pop_until = ReplicaSet._pump, EventKernel.pop_until
    plan_rebalance = ReplicaSet._plan_rebalance

    def audited_pump(self, frontier):
        current["fleet"] = self
        return pump(self, frontier)

    def audited_pop_until(self, frontier=math.inf):
        # The pump pops once more after each event is fully handled:
        # its check and settle are done, so the bound must hold.
        fleet = current.get("fleet")
        if fleet is not None and fleet.kernel is self:
            audit_bound(fleet, tally)
        return pop_until(self, frontier)

    def audited_plan_rebalance(self, loads, *args):
        rows = np.asarray(loads)[self._routable()]
        assert (self.hi, self.lo) == (rows.max(), rows.min()), (self.hi, self.lo)
        tally["scans"] += 1
        return plan_rebalance(self, loads, *args)

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

    monkeypatch.setattr(ReplicaSet, "_pump", audited_pump)
    monkeypatch.setattr(EventKernel, "pop_until", audited_pop_until)
    monkeypatch.setattr(ReplicaSet, "_plan_rebalance", audited_plan_rebalance)
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
    if name == "elastic-rebalancing":
        assert result.migrations + result.reroutes > 0
        assert result.joins > 0 and result.retires > 0 and result.reclaims > 0
    if name in (
        "autoscale-join-retire",
        "elastic-deadline-pressure",
        "elastic-rebalancing",
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


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_the_skew_bound_covers_every_fresh_routable_load(audit, name):
    replica_set, result = AUDITED[name]()
    assert replica_set._rebalance_params() is not None
    assert audit["bounds"] > 0
    events = result.events_processed
    if events.get("MIGRATION", 0) + events.get("FLUSH", 0):
        assert audit["scans"] > 0


def scan_every_check(monkeypatch):
    """Void the bound after every refresh, so every check scans."""
    refresh = ReplicaSet._refresh

    def refresh_and_void(self):
        refresh(self)
        self.hi = math.inf

    monkeypatch.setattr(ReplicaSet, "_refresh", refresh_and_void)


def post_every_check(monkeypatch):
    """Post every first check as a ``REBALANCE`` event that scans.

    The protocol the pump's own check replaces: the posted check pops
    after the handler's held placements and probe, and an acting one
    is followed by a second round of them like any other event.
    """
    scan_every_check(monkeypatch)
    for name in ("_on_arrival", "_on_wave_close"):
        handler = getattr(ReplicaSet, name)

        def posting(self, event, handler=handler):
            handler(self, event)
            if self._check_due:
                self._check_due = False
                self.kernel.post(EventKind.REBALANCE, None)

        monkeypatch.setattr(ReplicaSet, name, posting)


REFERENCES = {
    "scan-every-check": scan_every_check,
    "post-every-check": post_every_check,
}


def outcome(digests):
    """What a rebalance protocol must not change: records, fleet, moves."""
    events = digests["events_processed"]
    moves = {kind: events.get(kind, 0) for kind in ("MIGRATION", "FLUSH")}
    return digests["records_sha256"], digests["fleet_sha256"], moves


@pytest.mark.parametrize("reference", sorted(REFERENCES))
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_golden_scenarios_replay_under_the_reference_check(
    monkeypatch, reference, scenario
):
    REFERENCES[reference](monkeypatch)
    assert outcome(entry(*scenario.run())) == outcome(CORPUS[scenario.name])


def probe_log(monkeypatch):
    """Log every autoscaler probe: its time and the tickets held then."""
    log = []
    probe = ReplicaSet._probe_autoscaler

    def logged(self, time):
        log.append((time, len(self._held)))
        return probe(self, time)

    monkeypatch.setattr(ReplicaSet, "_probe_autoscaler", logged)
    return log


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_elastic_rebalancing_matches_the_reference_check(monkeypatch, reference):
    # The autoscaler is stateful, so it must also be probed exactly as
    # often: after every event, and again after every check that acts.
    probes = probe_log(monkeypatch)
    want = outcome(entry(*elastic_rebalancing())), list(probes)
    probes.clear()
    REFERENCES[reference](monkeypatch)
    assert (outcome(entry(*elastic_rebalancing())), probes) == want
    assert want[0][2]["MIGRATION"] > 0
