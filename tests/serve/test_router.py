"""Tests for tenant routing policies and the TenantRouter."""

import pytest

from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.errors import ScheduleError
from repro.scheduler import AdapterJob
from repro.serve import (
    LeastLoadedRouting,
    PackingAffinityRouting,
    ReplicaView,
    RoundRobinRouting,
    RoutingPolicy,
    ServeJob,
    TenantRouter,
)


def view(index, load=0, lengths=(), slots_free=None):
    return ReplicaView(
        index=index,
        outstanding_batches=load,
        num_active=len(lengths),
        slots_free=slots_free,
        live_mean_lengths=tuple(lengths),
    )


def make_job(adapter_id=0, length=100, samples=4, gbs=2):
    dataset = FinetuneDataset(
        adapter_id,
        [Sample(adapter_id, i, length) for i in range(samples)],
    )
    return ServeJob(
        job=AdapterJob(adapter_id, dataset, gbs), arrival_time=0.0
    )


class TestRoundRobin:
    def test_cycles_over_replicas(self):
        policy = RoundRobinRouting()
        replicas = [view(0), view(1), view(2)]
        picks = [policy.choose(make_job(i), replicas) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_ignores_load(self):
        policy = RoundRobinRouting()
        replicas = [view(0, load=100), view(1, load=0)]
        assert policy.choose(make_job(), replicas) == 0


class TestLeastLoaded:
    def test_picks_minimum_outstanding_batches(self):
        policy = LeastLoadedRouting()
        replicas = [view(0, load=5), view(1, load=2), view(2, load=9)]
        assert policy.choose(make_job(), replicas) == 1

    def test_ties_break_to_lowest_index(self):
        policy = LeastLoadedRouting()
        replicas = [view(0, load=3), view(1, load=3)]
        assert policy.choose(make_job(), replicas) == 0


class TestPackingAffinity:
    def test_prefers_similar_mean_length_within_slack(self):
        policy = PackingAffinityRouting(load_slack=4)
        # Replica 1 serves tenants whose mean length matches the arrival.
        replicas = [
            view(0, load=2, lengths=(900.0,)),
            view(1, load=4, lengths=(110.0,)),
        ]
        job = make_job(length=100)
        assert policy.choose(job, replicas) == 1

    def test_load_wins_beyond_the_slack(self):
        policy = PackingAffinityRouting(load_slack=2)
        # The shape-affine replica is too far behind on load.
        replicas = [
            view(0, load=0, lengths=(900.0,)),
            view(1, load=10, lengths=(100.0,)),
        ]
        job = make_job(length=100)
        assert policy.choose(job, replicas) == 0

    def test_empty_replica_is_a_perfect_fit(self):
        policy = PackingAffinityRouting(load_slack=4)
        replicas = [view(0, load=1, lengths=(500.0,)), view(1, load=0)]
        assert policy.choose(make_job(length=500), replicas) == 1

    def test_negative_slack_rejected(self):
        with pytest.raises(ScheduleError, match="load_slack"):
            PackingAffinityRouting(load_slack=-1)

    def test_is_a_routing_policy(self):
        assert isinstance(PackingAffinityRouting(), RoutingPolicy)
        assert isinstance(LeastLoadedRouting(), RoutingPolicy)
        assert isinstance(RoundRobinRouting(), RoutingPolicy)


class TestTenantRouter:
    def test_records_assignments(self):
        router = TenantRouter(LeastLoadedRouting())
        replicas = [view(0, load=4), view(1, load=1)]
        job = make_job(adapter_id=7)
        assert router.route(job, replicas) == 1
        assert router.assignments == {7: 1}

    def test_reassign_updates_the_map(self):
        router = TenantRouter(LeastLoadedRouting())
        router.route(make_job(adapter_id=3), [view(0), view(1, load=5)])
        router.reassign(3, 1)
        assert router.assignments[3] == 1

    def test_zero_replicas_rejected(self):
        router = TenantRouter(RoundRobinRouting())
        with pytest.raises(ScheduleError, match="zero replicas"):
            router.route(make_job(), [])

    def test_out_of_range_policy_choice_rejected(self):
        class Broken:
            def choose(self, job, replicas):
                return len(replicas)

        router = TenantRouter(Broken())
        with pytest.raises(ScheduleError, match="chose replica"):
            router.route(make_job(), [view(0)])

    def test_routes_real_synthetic_jobs(self):
        router = TenantRouter(PackingAffinityRouting())
        jobs = [
            ServeJob(
                job=AdapterJob(a, synthetic_dataset(a, "xsum", 8, seed=1), 4),
                arrival_time=float(a),
            )
            for a in range(3)
        ]
        views = [view(0), view(1)]
        for job in jobs:
            index = router.route(job, views)
            assert index in (0, 1)
        assert len(router.assignments) == 3


class TestPriorityHeadroom:
    def high(self, adapter_id=9):
        from dataclasses import replace

        return replace(make_job(adapter_id), priority=2)

    def test_high_class_goes_to_most_free_slots(self):
        from repro.serve import PriorityHeadroomRouting

        policy = PriorityHeadroomRouting(high_class=1)
        replicas = [
            view(0, load=0, slots_free=1),
            view(1, load=9, slots_free=3),
        ]
        assert policy.choose(self.high(), replicas) == 1

    def test_high_class_prefers_unbounded_admission(self):
        from repro.serve import PriorityHeadroomRouting

        policy = PriorityHeadroomRouting(high_class=1)
        replicas = [view(0, slots_free=4), view(1, slots_free=None)]
        assert policy.choose(self.high(), replicas) == 1

    def test_best_effort_avoids_the_reserve(self):
        from repro.serve import PriorityHeadroomRouting

        policy = PriorityHeadroomRouting(high_class=1, reserve=1)
        # Replica 0 is less loaded but down to its reserved slot.
        replicas = [
            view(0, load=1, slots_free=1),
            view(1, load=5, slots_free=3),
        ]
        assert policy.choose(make_job(), replicas) == 1

    def test_reserve_is_headroom_not_a_partition(self):
        from repro.serve import PriorityHeadroomRouting

        policy = PriorityHeadroomRouting(high_class=1, reserve=2)
        # Every replica is at (or under) the reserve: fall back to
        # least-loaded rather than refusing to route.
        replicas = [
            view(0, load=7, slots_free=1),
            view(1, load=3, slots_free=2),
        ]
        assert policy.choose(make_job(), replicas) == 1

    def test_fallback_is_plain_least_loaded(self):
        from dataclasses import replace

        from repro.serve import PriorityHeadroomRouting

        policy = PriorityHeadroomRouting(high_class=1, reserve=2)
        # All replicas at/under the reserve: load decides, not
        # high-class pressure -- the documented fallback.
        replicas = [
            replace(view(0, load=1, slots_free=1), live_priorities=(2,)),
            replace(view(1, load=40, slots_free=2), live_priorities=()),
        ]
        assert policy.choose(make_job(), replicas) == 0

    def test_best_effort_avoids_high_class_pressure(self):
        from dataclasses import replace

        from repro.serve import PriorityHeadroomRouting

        policy = PriorityHeadroomRouting(high_class=1, reserve=0)
        # Equal load and room everywhere: the replica with no high-class
        # tenants is the one where a best-effort job won't be preempted.
        replicas = [
            replace(view(0, load=4, slots_free=3), live_priorities=(2, 1)),
            replace(view(1, load=4, slots_free=3), live_priorities=(0, 0)),
        ]
        assert policy.choose(make_job(), replicas) == 1

    def test_negative_reserve_rejected(self):
        from repro.serve import PriorityHeadroomRouting

        with pytest.raises(ScheduleError, match="reserve"):
            PriorityHeadroomRouting(reserve=-1)

    def test_is_a_routing_policy(self):
        from repro.serve import PriorityHeadroomRouting

        assert isinstance(PriorityHeadroomRouting(), RoutingPolicy)

    def test_view_exposes_live_priorities(self):
        assert view(0).live_priorities == ()


class TestCostAware:
    def test_is_a_routing_policy(self):
        from repro.serve import CostAwareRouting

        assert isinstance(CostAwareRouting(), RoutingPolicy)

    def test_routes_on_seconds_not_batches(self):
        from dataclasses import replace

        from repro.serve import CostAwareRouting

        # Replica 0: many cheap batches.  Replica 1: few expensive ones.
        replicas = [
            replace(view(0, load=12), expected_remaining_time=0.4),
            replace(view(1, load=3), expected_remaining_time=2.5),
        ]
        assert CostAwareRouting().choose(make_job(), replicas) == 0
        # Least-loaded, batch-counting, disagrees -- that is the point.
        assert LeastLoadedRouting().choose(make_job(), replicas) == 1

    def test_falls_back_when_views_are_unpriced(self):
        from repro.serve import CostAwareRouting

        replicas = [view(0, load=12), view(1, load=3)]
        assert CostAwareRouting().choose(make_job(), replicas) == 1

    def test_works_under_tenant_router(self):
        from dataclasses import replace

        from repro.serve import CostAwareRouting

        router = TenantRouter(CostAwareRouting())
        replicas = [
            replace(view(0), expected_remaining_time=5.0),
            replace(view(1), expected_remaining_time=1.0),
        ]
        job = make_job(7)
        assert router.route(job, replicas) == 1
        assert router.assignments[7] == 1

    def test_view_seconds_fields_default_to_unpriced(self):
        snapshot = view(0)
        assert snapshot.expected_remaining_time is None
