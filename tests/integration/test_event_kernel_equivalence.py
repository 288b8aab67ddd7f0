"""Property test: the event loop is bit-identical to lockstep.

:class:`~repro.serve.ReplicaSet` runs on a discrete-event loop; the
original replica-scan loop survives in the test suite as
:func:`tests.lockstep_reference.run_lockstep`, the executable
specification.  Hypothesis drives both loops over randomized small
traces -- arrival patterns x ordering policies x rebalance triggers
(batch skew, seconds skew, drain-unlock) -- and asserts the runs are
**indistinguishable** (:func:`tests.helpers.fingerprint`): identical
per-job records (arrival/start/finish timestamps, outcome, final
replica, migration count), identical fleet counters, identical
calibration records, identical per-replica streams.

Two deterministic scenarios (active migration, deep-pipeline drain) pin
the equivalence on known-adversarial traces, and a repeat-run test pins
byte-level determinism of the event kernel itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_dataset
from repro.gpu import H100
from repro.models.config import LLAMA3_8B
from repro.models.layer_costs import LayerCostModel
from repro.scheduler import AdapterJob, SchedulerConfig
from repro.serve import (
    CostEstimator,
    FCFSOrdering,
    OrchestratorConfig,
    ReplicaSet,
    ReplicaSetConfig,
    SRPTOrdering,
    ServeJob,
    SlotAdmission,
    StreamingSimExecutor,
    poisson_workload,
)
from tests.helpers import fingerprint
from tests.lockstep_reference import run_lockstep

COST = LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi")
DATASETS = ["xsum", "cnn_dailymail", "wikisum", "mixed"]


class StickyRouting:
    """Pin every tenant to replica 0 (forces rebalancing to act)."""

    def choose(self, job, replicas):
        return 0


def make_jobs(specs):
    """One AdapterJob per ``(samples, gbs)`` spec, datasets cycling."""
    return [
        AdapterJob(a, synthetic_dataset(a, DATASETS[a % 4], samples, seed=3),
                   gbs)
        for a, (samples, gbs) in enumerate(specs)
    ]


def build_set(num_replicas, num_stages, ordering, sticky,
              batch_threshold, time_threshold, drain, slots=2):
    """A fresh fleet (executors, estimator, calibration) per run."""
    scheduler = SchedulerConfig(capacity=8192, num_stages=num_stages,
                                use_milp=False)
    estimator = (
        CostEstimator.for_scheduler(COST, scheduler)
        if time_threshold is not None or isinstance(ordering, SRPTOrdering)
        else None
    )
    config = ReplicaSetConfig(
        orchestrator=OrchestratorConfig(
            scheduler=scheduler,
            window_batches=1,
            admission=SlotAdmission(slots),
            ordering=ordering,
            estimator=estimator,
        ),
        routing=StickyRouting() if sticky else None,
        migration_threshold=batch_threshold,
        migration_time_threshold=time_threshold,
        drain_then_migrate=drain,
    )
    executors = [
        StreamingSimExecutor(COST, num_stages) for _ in range(num_replicas)
    ]
    return ReplicaSet(executors, config)


def run_both(specs, **kwargs):
    """Fingerprints of the event loop and of the lockstep reference."""
    prints = []
    for serve in (ReplicaSet.run, run_lockstep):
        replica_set = build_set(**kwargs)
        workload = poisson_workload(make_jobs(specs), rate=1.0, rng=11)
        prints.append(fingerprint(serve(replica_set, workload), replica_set))
    return prints


job_specs = st.lists(
    st.tuples(
        st.integers(min_value=4, max_value=16),  # samples
        st.sampled_from([2, 4]),                 # global batch size
    ),
    min_size=3,
    max_size=7,
)


@pytest.mark.slow
class TestRandomizedEquivalence:
    @given(specs=job_specs,
           num_replicas=st.integers(min_value=2, max_value=3),
           sticky=st.booleans(),
           threshold=st.sampled_from([None, 2, 6]))
    @settings(max_examples=12, deadline=None)
    def test_batch_skew_traces_match(self, specs, num_replicas, sticky,
                                     threshold):
        event, lockstep = run_both(
            specs, num_replicas=num_replicas, num_stages=2,
            ordering=FCFSOrdering(), sticky=sticky,
            batch_threshold=threshold, time_threshold=None, drain=False,
        )
        assert event == lockstep

    @given(specs=job_specs,
           drain=st.booleans(),
           time_threshold=st.sampled_from([0.05, 1.0]))
    @settings(max_examples=10, deadline=None)
    def test_seconds_skew_and_drain_traces_match(self, specs, drain,
                                                 time_threshold):
        # Seconds-valued skew exercises the estimator/calibration caches
        # and -- with drain_then_migrate -- the partial-drain unlock.
        event, lockstep = run_both(
            specs, num_replicas=2, num_stages=4,
            ordering=SRPTOrdering(), sticky=True,
            batch_threshold=None, time_threshold=time_threshold,
            drain=drain,
        )
        assert event == lockstep


class TestPinnedEquivalence:
    def migration_trace(self):
        long_job = AdapterJob(0, synthetic_dataset(0, "xsum", 12, seed=3), 2)
        shorts = [
            AdapterJob(a, synthetic_dataset(a, "xsum", 4, seed=3), 2)
            for a in (1, 2)
        ]
        return [
            ServeJob(job=long_job, arrival_time=0.0),
            ServeJob(job=shorts[0], arrival_time=0.01),
            ServeJob(job=shorts[1], arrival_time=0.01),
        ]

    def test_active_migration_trace_matches(self):
        prints = []
        for serve in (ReplicaSet.run, run_lockstep):
            replica_set = build_set(
                num_replicas=2, num_stages=1,
                ordering=FCFSOrdering(), sticky=True,
                batch_threshold=8, time_threshold=None, drain=False,
                slots=4,
            )
            result = serve(replica_set, self.migration_trace())
            assert result.migrations >= 1  # the trace forces a move
            prints.append(fingerprint(result, replica_set))
        assert prints[0] == prints[1]

    def test_deep_pipeline_drain_trace_matches(self):
        specs = [(24, 4), (24, 4)]
        prints = []
        drains = []
        for serve in (ReplicaSet.run, run_lockstep):
            replica_set = build_set(
                num_replicas=2, num_stages=4,
                ordering=FCFSOrdering(), sticky=True,
                batch_threshold=None, time_threshold=0.05, drain=True,
            )
            workload = [
                ServeJob(job=job, arrival_time=0.0)
                for job in make_jobs(specs)
            ]
            result = serve(replica_set, workload)
            drains.append(result.rebalance_drains)
            prints.append(fingerprint(result, replica_set))
        assert drains[0] >= 1  # the trace forces a drain-unlock
        assert prints[0] == prints[1]

    def test_event_kernel_reruns_are_byte_identical(self):
        # Determinism of the event kernel itself: two fresh runs of the
        # same trace agree down to the repr of every record and stream.
        reprs = []
        for _ in range(2):
            replica_set = build_set(
                num_replicas=3, num_stages=2,
                ordering=SRPTOrdering(), sticky=False,
                batch_threshold=2, time_threshold=None, drain=False,
            )
            workload = poisson_workload(
                make_jobs([(8, 2), (12, 4), (6, 2), (10, 2)]),
                rate=1.0, rng=7,
            )
            result = replica_set.run(workload)
            reprs.append(repr(fingerprint(result, replica_set))
                         + repr(sorted(result.records.items()))
                         + repr(result.events_processed))
        assert reprs[0] == reprs[1]
