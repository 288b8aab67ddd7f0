"""Property tests: every candidate-set decision equals its per-item rule.

The serve layer prices, ranks and routes whole candidate sets at once
(:meth:`CostEstimator.job_seconds_batch` /
:meth:`~CostEstimator.placement_seconds_batch`,
:func:`~repro.serve.ordering.policy_keys`,
:class:`~repro.serve.CostAwareRouting` over views or over the fleet
loop's :class:`~repro.serve.FleetArrays` columns).  The fleet loop must
match the lockstep reference bit for bit, so each set-level answer must
be **exactly** the per-item rule's -- each test asserts ``==``, never
``approx``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CalibrationTracker,
    CostAwareRouting,
    CostEstimator,
    DeadlineOrdering,
    FCFSOrdering,
    FleetArrays,
    JobView,
    PriorityOrdering,
    ReplicaView,
    SRPTOrdering,
    ServeJob,
    policy_keys,
)

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]
SCHEDULER = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)


def make_estimator(calibrated):
    estimator = CostEstimator.for_scheduler(COST, SCHEDULER)
    if calibrated:
        estimator.calibration = CalibrationTracker()
        # Seed distinguishable per-tenant and per-replica factors.
        estimator.calibration.observe(10.0, 13.0, tenants=[0, 2], replica=0)
        estimator.calibration.observe(10.0, 8.0, tenants=[1], replica=1)
    return estimator


def make_job(adapter_id, samples=8, gbs=4):
    return AdapterJob(
        adapter_id,
        synthetic_dataset(adapter_id, DATASETS[adapter_id % 4], samples,
                          seed=3),
        gbs,
    )


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
rates = st.sampled_from([0.0, 0.25, 1.5])

job_views = st.builds(
    JobView,
    adapter_id=st.integers(min_value=0, max_value=99),
    arrival_time=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    priority=st.integers(min_value=-5, max_value=5),
    deadline=st.one_of(st.none(), finite),
    remaining_batches=st.integers(min_value=0, max_value=1000),
    admitted=st.booleans(),
    remaining_seconds=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    ),
)


class TestPolicyKeysEqualScalar:
    @given(views=st.lists(job_views, max_size=20), now=finite, rate=rates)
    @settings(max_examples=60, deadline=None)
    def test_all_shipped_policies(self, views, now, rate):
        policies = [
            FCFSOrdering(),
            SRPTOrdering(aging_rate=rate),
            PriorityOrdering(aging_rate=rate),
            DeadlineOrdering(aging_rate=rate),
        ]
        for policy in policies:
            batch = policy_keys(policy, views, now)
            scalar = [policy.key(view, now) for view in views]
            assert batch == scalar
            # Exactness, not just tuple equality through -0.0 == 0.0:
            # the lead term must be the same float down to its sign bit.
            for b, s in zip(batch, scalar):
                assert math.copysign(1.0, b[0]) == math.copysign(
                    1.0, float(s[0])
                )

    def test_unbatched_policy_falls_back_to_scalar(self):
        class Odd:
            preemptive = False

            def key(self, job, now):
                return (-job.adapter_id,)

        views = [
            JobView(adapter_id=a, arrival_time=0.0, priority=0, deadline=None,
                    remaining_batches=1, admitted=False)
            for a in range(3)
        ]
        assert policy_keys(Odd(), views, 5.0) == [(0,), (-1,), (-2,)]

    def test_empty_candidate_set(self):
        assert policy_keys(SRPTOrdering(), [], 0.0) == []


class TestBatchedPricingEqualsScalar:
    @given(calibrated=st.booleans(),
           num_adapters=st.integers(min_value=1, max_value=4),
           replica=st.one_of(st.none(), st.integers(0, 2)),
           remaining=st.lists(
               st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
               min_size=6, max_size=6,
           ))
    @settings(max_examples=30, deadline=None)
    def test_job_seconds_batch(self, calibrated, num_adapters, replica,
                               remaining):
        estimator = make_estimator(calibrated)
        jobs = [make_job(a, samples=4 + 2 * a, gbs=2 + 2 * (a % 2))
                for a in range(6)]
        batch = estimator.job_seconds_batch(
            jobs, remaining, num_adapters=num_adapters, replica=replica
        )
        for i, job in enumerate(jobs):
            scalar = estimator.job_seconds(
                job, remaining[i], num_adapters=num_adapters, replica=replica
            )
            assert batch[i] == scalar

    @given(calibrated=st.booleans(),
           num_active=st.lists(st.integers(min_value=0, max_value=5),
                               min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_placement_seconds_batch(self, calibrated, num_active):
        estimator = make_estimator(calibrated)
        job = make_job(0)
        replicas = [i % 3 for i in range(len(num_active))]
        batch = estimator.placement_seconds_batch(job, num_active, replicas)
        for i, active in enumerate(num_active):
            scalar = estimator.placement_seconds(
                job, active, replica=replicas[i]
            )
            assert batch[i] == scalar

    def test_replicas_argument_defaults_to_uncorrected(self):
        estimator = make_estimator(calibrated=True)
        job = make_job(5)  # untracked tenant: replica factor would apply
        batch = estimator.placement_seconds_batch(job, [0, 1, 2])
        for i in range(3):
            assert batch[i] == estimator.placement_seconds(job, i,
                                                           replica=None)

    def test_zero_batch_jobs_price_zero(self):
        estimator = make_estimator(calibrated=True)
        jobs = [make_job(0), make_job(1)]
        batch = estimator.job_seconds_batch(jobs, [0, 0])
        assert batch.tolist() == [0.0, 0.0]


class TestRouterChoiceEqualsScalar:
    @staticmethod
    def scalar_choose(job, replicas, estimator):
        """The pre-vectorization scoring rule, verbatim."""

        def score(view):
            backlog = view.expected_remaining_time or 0.0
            marginal = (
                estimator.placement_seconds(job.job, view.num_active,
                                            replica=view.index)
                if estimator is not None
                else 0.0
            )
            return (backlog + marginal, backlog, view.index)

        return min(replicas, key=score).index

    @given(calibrated=st.booleans(),
           with_estimator=st.booleans(),
           loads=st.lists(
               st.tuples(
                   st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                   st.integers(min_value=0, max_value=5),
               ),
               min_size=1, max_size=16,
           ),
           gaps=st.lists(st.integers(min_value=0, max_value=3),
                         min_size=16, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_choose_matches_scalar_rule(self, calibrated, with_estimator,
                                        loads, gaps):
        # ``gaps`` skips replica ids between views: an elastic fleet
        # routes over its routable subset, whose indices are not
        # positions (all-zero gaps is the contiguous full fleet).
        estimator = make_estimator(calibrated) if with_estimator else None
        job = ServeJob(job=make_job(1), arrival_time=0.0)
        indices = [i + sum(gaps[:i + 1]) for i in range(len(loads))]
        views = [
            ReplicaView(index=index, clock=0.0, num_active=active,
                        num_pending=0, num_parked=0,
                        outstanding_batches=active, slots_free=1,
                        expected_remaining_time=backlog)
            for index, (backlog, active) in zip(indices, loads)
        ]
        policy = CostAwareRouting(estimator=estimator)
        assert policy.choose(job, views) == self.scalar_choose(
            job, views, estimator
        )

    def test_unpriced_view_falls_back_to_batch_counts(self):
        job = ServeJob(job=make_job(1), arrival_time=0.0)
        views = [
            ReplicaView(index=0, clock=0.0, num_active=1, num_pending=0,
                        num_parked=0, outstanding_batches=5, slots_free=1,
                        expected_remaining_time=None),
            ReplicaView(index=1, clock=0.0, num_active=1, num_pending=0,
                        num_parked=0, outstanding_batches=2, slots_free=1,
                        expected_remaining_time=1.0),
        ]
        assert CostAwareRouting().choose(job, views) == 1

    @given(calibrated=st.booleans(),
           with_estimator=st.booleans(),
           adapter_id=st.sampled_from([1, 5]),  # tracked / untracked tenant
           hole=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
           loads=st.lists(
               st.tuples(
                   st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                   st.integers(min_value=0, max_value=5),
               ),
               min_size=1, max_size=16,
           ))
    @settings(max_examples=40, deadline=None)
    def test_choose_arrays_matches_choose(self, calibrated, with_estimator,
                                          adapter_id, hole, loads):
        # ``hole`` punches one unpriced view into the fleet, exercising
        # the missing-row fallback; the untracked tenant routes the
        # pricing through the per-replica correction gather, with the
        # replica ids arriving as an int64 ndarray.
        estimator = make_estimator(calibrated) if with_estimator else None
        job = ServeJob(job=make_job(adapter_id), arrival_time=0.0)
        views = [
            ReplicaView(index=i, clock=0.0, num_active=active,
                        num_pending=0, num_parked=0,
                        outstanding_batches=active, slots_free=1,
                        expected_remaining_time=(
                            None if hole is not None and hole == i
                            else backlog
                        ))
            for i, (backlog, active) in enumerate(loads)
        ]
        arrays = FleetArrays.for_fleet(len(views))
        for i, view in enumerate(views):
            arrays.refill(i, view)
        policy = CostAwareRouting(estimator=estimator)
        assert policy.choose_arrays(job, views, arrays) == policy.choose(
            job, views
        )
